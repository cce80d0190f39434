"""Prime field contexts and multiplicative characters.

Everything downstream (character sums, traces, p-adic lifts) works through a
FieldCtx: an odd prime together with its smallest primitive root, a discrete
log table, and the quadratic character table. Characters are handled as
exponents of the generator, never as floating point roots of unity.
cyclic_convolve is the exact convolution the routes share, as code only:
one product of two packed inputs, folded mod x^n - 1, or mod x^n + 1
(negacyclic). Its two multipliers are chosen by n b, the bits of its n
slots of b bits each. Up to _BINARY_BITS the inputs are Python ints,
b // 8 + 1 bytes a slot (Kronecker substitution); above, decimals, d digits
a slot, which libmpdec multiplies by its transform, quadratic below that
transform's threshold, so small products go binary.
One call u*v on a 2-core Xeon with Python 3.11.7 (ms):

    n      b     n b       decimal   binary
    120    91    11k       0.53      0.19
    500    93    47k       1.58      1.16
    652    96    63k       1.68      1.94
    712    96    68k       2.58      2.08
    869    96    83k       2.99      2.91
    978    96    94k       2.81      3.29
    1500   95    143k      5.34      5.42
    4000   48    192k      8.23      11.8

The crossover is near 85k bits; libmpdec is also ahead from about 52k to
63k, just before its own cost steps up. _BINARY_BITS is 80k.

per_prime is the one home of a prime's tables: it keeps every object
built for the current prime, keyed by the builder and its positional
arguments, so the checks of a prime build each once. Its builders take no
defaults or keywords; padic.make_padic_ctx fills K before its builder.
"""

from __future__ import annotations

import sys
from array import array
from functools import wraps
from itertools import accumulate
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

# cyclic_convolve's products of at most this many bits (n slots of b bits)
# are Python int products, larger ones libmpdec's: the module docstring's
# table puts the crossover near 85k
_BINARY_BITS = 80_000

# array's unsigned typecodes by item size; little-endian hosts only, since
# the packed ints are read low slot first
_ARRAY = ({array(t).itemsize: t for t in "BHILQ"}
          if sys.byteorder == "little" else {})


_SHARED: dict = {}   # "p": the prime; (builder, its arguments): the object


def per_prime(build):
    """Memo of a builder whose first argument is a prime or has it as .p:
    every object built for the current prime is kept, keyed by the builder
    and its positional arguments, so f(13, 6) and f(13, 8) are two entries.
    Builders take neither defaults nor keywords (make_padic_ctx fills its K
    before it calls one). Keys are hashed. A call for another prime first
    drops every entry, so one prime's tables are held at a time; callers
    share them read-only."""

    @wraps(build)
    def cached(*args):
        key = (build, *args)
        p = getattr(args[0], "p", args[0])
        if _SHARED.get("p") != p:
            release_tables()
            _SHARED["p"] = p
        obj = _SHARED.get(key, _SHARED)   # _SHARED itself marks a miss
        if obj is _SHARED:
            obj = _SHARED[key] = build(*args)
        return obj

    return cached


def release_tables() -> None:
    """Drop every object per_prime keeps."""
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


def cyclic_convolve(u: list[int], v: list[int], sign: int = 1) -> list[int]:
    """w[k] = sum over i + j = k of u[i] v[j], plus sign times the sum over
    i + j = k + n, n = len(u): the exact product mod x^n - sign, cyclic at
    sign 1, negacyclic at sign -1.

    U (V) is added to every entry of u (v) so none is negative; the sums
    folded into a slot then total at most M = n max u max v < 2^b, so none
    carries. The negacyclic fold subtracts the high half and adds M to
    every slot, which then lies in [0, 2M], and b bounds 2M. The shifts add
    U v_j + V u_j + U V, summed with the same signs: C = U sum v + V sum u
    + n U V to a cyclic slot, 2 c_k - C to negacyclic slot k, where c_k sums
    over j <= k. They and M are subtracted.

    Up to n b = _BINARY_BITS bits _binary_cyclic multiplies Python ints;
    above, _decimal_cyclic uses libmpdec's number-theoretic transform, as
    the module docstring times. A slot of more decimal digits than a
    nonzero sys.get_int_max_str_digits() allows takes the binary path at
    any size, as it converts no strings.
    """
    n = len(u)
    if len(v) != n or sign not in (1, -1):
        raise ValueError(f"lengths {n} and {len(v)}, sign {sign}")
    if not n:
        return []
    U, V = max(0, -min(u)), max(0, -min(v))
    mu, mv = max(u) + U, max(v) + V
    M = 0 if sign > 0 else n * mu * mv
    C = U * sum(v) + V * sum(u) + n * U * V
    offsets = [C + M] * n
    if sign < 0 and (U or V):
        offsets = [2 * c - C + M for c in accumulate(
            U * y + V * x + U * V for x, y in zip(u, v))]
    u = [x + U for x in u]
    v = [y + V for y in v]
    b = max(n * mu * mv + M, mu, mv).bit_length()
    # 30103/100000 > log10(2) makes 10^d > 2^b; before 3.10.7 sys has no
    # limit to read, and int() gives 0, no limit
    d = b * 30103 // 100000 + 1
    binary = n * b <= _BINARY_BITS or 0 < getattr(
        sys, "get_int_max_str_digits", int)() < d
    slots = (_binary_cyclic(u, v, n, b // 8 + 1, M) if binary
             else _decimal_cyclic(u, v, n, d, M))
    return [s - o for s, o in zip(slots, offsets)]


def _binary_cyclic(u, v, n, w, M):
    """cyclic_convolve's small products, on non-negative slots below
    2^(8w - 1): each input packed into one int, w bytes a slot, low slot
    first; their product is folded mod n by one mask, one shift and one
    add, or at M > 0 one subtraction and M in every slot. Slot widths of 1,
    2, 4 or 8 bytes pack and unpack by array, one C call each way; others
    by one to_bytes or from_bytes per slot."""
    t = _ARRAY.get(w)

    def pack(xs):
        raw = array(t, xs) if t else b"".join(x.to_bytes(w, "little")
                                              for x in xs)
        return int.from_bytes(raw, "little")

    X = pack(u) * pack(v)
    bits = 8 * w * n
    lo, hi = X & ((1 << bits) - 1), X >> bits
    ones = int.from_bytes((b"\1" + bytes(w - 1)) * n, "little")
    raw = (lo - hi + M * ones if M else lo + hi).to_bytes(w * n, "little")
    return array(t, raw) if t else [int.from_bytes(raw[i:i + w], "little")
                                    for i in range(0, w * n, w)]


def _decimal_cyclic(u, v, n, d, M):
    """cyclic_convolve's large products, by libmpdec's number-theoretic
    transform: each input written as one decimal string of d digits a slot,
    and the product's 2n - 1 slots folded mod n in the decimal domain: its
    top n slots and its other n - 1 with one zero slot appended are split
    off by digit shifts and joined by one exact decimal add, or at M > 0 one
    subtraction and M in every slot; only the n folded slots are parsed."""
    slots = f"%0{d}d" * n
    X = _EXACT.multiply(Decimal(slots % tuple(u)), Decimal(slots % tuple(v)))
    # shift moves the coefficient by whole digits, exactly: hi is the top
    # n slots, lo the other n - 1 with a zero slot appended
    hi = _EXACT.shift(X, -(n - 1) * d)
    lo = _EXACT.shift(_EXACT.subtract(X, _EXACT.shift(hi, (n - 1) * d)), d)
    X = (_EXACT.add(_EXACT.subtract(hi, lo), Decimal(slots % ((M,) * n)))
         if M else _EXACT.add(hi, lo))
    s = format(X, "f").zfill(n * d)
    return [int(s[i:i + d]) for i in range(0, n * d, d)]
