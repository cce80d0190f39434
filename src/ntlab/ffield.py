"""Prime field contexts and multiplicative characters.

Everything downstream (character sums, traces, p-adic lifts) works through a
FieldCtx: an odd prime together with its smallest primitive root, a discrete
log table, and the quadratic character table. Characters are handled as
exponents of the generator, never as floating point roots of unity.
cyclic_convolve is the exact convolution the routes share, as code only:
one product of two decimals, or one squaring when both inputs are the same
list, which libmpdec multiplies by a number-theoretic transform once they
are long; the product is folded mod n in the decimal domain.
per_prime is the one way a per-prime table is shared: each builder keeps
what it built for the current prime, so the checks of a prime build it once.
"""

from __future__ import annotations

from functools import wraps
from typing import NamedTuple

# the C module itself: without libmpdec this fails here, rather than
# falling back to the pure-Python _pydecimal, whose products are far slower
from _decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded

from .primes import factorint, isprime

# Character indices are plain integers a mod p-1, denoting the character
# that sends g^k to zeta_{p-1}^{a*k}. Index 0 is the trivial character,
# (p-1)/2 the quadratic character.
CharIdx = int

# exact: every product fits, and a rounding would raise; no code here
# reads or sets the thread's decimal context
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=-MAX_EMAX,
                 traps=[Inexact, Rounded])


_SHARED: dict = {}   # "p": the prime; each builder: (its arguments, object)


def per_prime(build):
    """One-entry memo for a builder whose first argument is a prime or has
    it as .p, keyed on the arguments with the defaults filled in: f(13),
    f(13, 6) and f(13, K=6) are one call. A call for another prime first
    drops every builder's object, so one prime's tables are held at a time;
    callers share them read-only."""
    names = build.__code__.co_varnames[:build.__code__.co_argcount]
    defaults = dict(zip(names[::-1], (build.__defaults__ or ())[::-1]))

    @wraps(build)
    def cached(*args, **kwargs):
        # any other keyword stays in the key as given
        rest = names[len(args):]
        key = (*args, *(kwargs.get(n, defaults.get(n)) for n in rest),
               {k: v for k, v in kwargs.items() if k not in rest})
        if _SHARED.get(build, (None,))[0] != key:
            p = getattr(key[0], "p", key[0])
            if _SHARED.get("p") != p:
                release_tables()
                _SHARED["p"] = p
            _SHARED[build] = (key, build(*args, **kwargs))
        return _SHARED[build][1]

    return cached


def release_tables() -> None:
    """Drop the objects of every per_prime builder."""
    _SHARED.clear()


class FieldCtx(NamedTuple):
    """Immutable context for one odd prime; hashes, compares and prints on
    (p, g) alone, as the tables follow from them."""

    p: int
    g: int
    dlog: tuple[int, ...]  # dlog[0] = -1
    qr: tuple[int, ...]  # phi(x), x < p

    def phi_idx(self) -> CharIdx:
        return (self.p - 1) // 2

    # the tuple's own == and != would read the tables, and would take a
    # plain tuple of the same entries for a context
    def __eq__(self, other):
        return (isinstance(other, FieldCtx) and self.p == other.p
                and self.g == other.g)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((self.p, self.g))

    def __repr__(self):
        return f"FieldCtx(p={self.p!r}, g={self.g!r})"


def _smallest_primitive_root(p: int) -> int:
    prime_factors = list(factorint(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // ell, p) != 1 for ell in prime_factors):
            return g
    raise ArithmeticError(f"no primitive root found for p={p}")  # unreachable


@per_prime
def make_field_ctx(p: int) -> FieldCtx:
    """Build the context for an odd prime p, deterministically."""
    if p < 3 or p % 2 == 0 or not isprime(p):
        raise ValueError(f"not an odd prime: {p}")
    g = _smallest_primitive_root(p)
    dlog = [-1] * p
    x = 1
    for a in range(p - 1):
        dlog[x] = a
        x = x * g % p
    qr = [0] * p
    for x in range(1, p):
        qr[x] = 1 if dlog[x] % 2 == 0 else -1
    return FieldCtx(p=p, g=g, dlog=tuple(dlog), qr=tuple(qr))


def cyclic_convolve(u: list[int], v: list[int]) -> list[int]:
    """w[k] = sum over i + j = k (mod n) of u[i] v[j], exact, n = len(u).

    One product of decimals, by libmpdec's number-theoretic transform: U
    (V) is added to every entry of u (v) so none is negative, each input is
    written as one decimal string of d digits per entry, wide enough for
    n max u max v, and the product's 2n - 1 slots are folded mod n in the
    decimal domain: its top n slots and its other n - 1 with one zero slot
    appended are split off by digit shifts and joined by one exact decimal
    add, and only the n folded slots are parsed. Every folded slot is a
    full cyclic sum, at most n max u max v, so none carries. When v is u
    the one decimal is passed twice, and libmpdec squares it, one forward
    transform fewer. The shifts add U sum v + V sum u + n U V to every
    output, which is subtracted. Slots pass through str and int, so one
    wider than sys.get_int_max_str_digits() (4300 digits by default,
    entries near 2^7000 in both inputs) raises ValueError.
    """
    n = len(u)
    if len(v) != n:
        raise ValueError(f"lengths differ: {n} and {len(v)}")
    if not n:
        return []
    square = v is u
    U = max(0, -min(u))
    V = U if square else max(0, -min(v))
    offset = U * sum(v) + V * sum(u) + n * U * V
    u = [x + U for x in u]
    v = u if square else [y + V for y in v]
    # every slot is at most n mu mv < 2^b, b its bit length, and
    # 30103/100000 > log10(2) makes 10^d > 2^b
    mu, mv = max(u), max(v)
    d = max(n * mu * mv, mu, mv).bit_length() * 30103 // 100000 + 1
    slots = f"%0{d}d" * n
    X = Decimal(slots % tuple(u))
    X = _EXACT.multiply(X, X if square else Decimal(slots % tuple(v)))
    # shift moves the coefficient by whole digits, exactly: hi is the top
    # n slots, lo the other n - 1 with a zero slot appended
    hi = _EXACT.shift(X, -(n - 1) * d)
    lo = _EXACT.shift(_EXACT.subtract(X, _EXACT.shift(hi, (n - 1) * d)), d)
    s = format(_EXACT.add(hi, lo), "f").zfill(n * d)
    return [int(s[i:i + d]) - offset for i in range(0, n * d, d)]
