"""Prime field contexts and multiplicative characters.

Everything downstream (character sums, traces, p-adic lifts) works through a
FieldCtx: an odd prime together with its smallest primitive root, a discrete
log table, and the quadratic character table. Characters are handled as
exponents of the generator, never as floating point roots of unity.
cyclic_convolve is the exact convolution the routes share, as code only.
per_prime is the one way a per-prime table is shared: each builder keeps
what it built for the current prime, so the checks of a prime build it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps

from .primes import factorint, isprime

# Character indices are plain integers a mod p-1, denoting the character
# that sends g^k to zeta_{p-1}^{a*k}. Index 0 is the trivial character,
# (p-1)/2 the quadratic character.
CharIdx = int


_SHARED: dict = {}   # "p": the prime; each builder: (its arguments, object)


def per_prime(build):
    """One-entry memo for a builder whose first argument is a prime or has
    it as .p. A call for another prime first drops every builder's object,
    so one prime's tables are held at a time; callers share them read-only."""
    @wraps(build)
    def cached(*args, **kwargs):
        key = (args, kwargs)
        if _SHARED.get(build, (None,))[0] != key:
            p = getattr(args[0], "p", args[0])
            if _SHARED.get("p") != p:
                release_tables()
                _SHARED["p"] = p
            _SHARED[build] = (key, build(*args, **kwargs))
        return _SHARED[build][1]

    return cached


def release_tables() -> None:
    """Drop the objects of every per_prime builder."""
    _SHARED.clear()


@dataclass(frozen=True)
class FieldCtx:
    """Immutable context for one odd prime; hashes and compares on (p, g)."""

    p: int
    g: int
    dlog: tuple[int, ...] = field(repr=False, compare=False)  # dlog[0] = -1
    qr: tuple[int, ...] = field(repr=False, compare=False)  # phi(x), x < p

    def inv(self, x: int) -> int:
        return pow(x, self.p - 2, self.p)

    def phi_idx(self) -> CharIdx:
        return (self.p - 1) // 2


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


def legendre_phi(ctx: FieldCtx, x: int) -> int:
    """Quadratic character phi(x) in {-1, 0, +1}."""
    return ctx.qr[x % ctx.p]


def cyclic_convolve(u: list[int], v: list[int]) -> list[int]:
    """w[k] = sum over i + j = k (mod n) of u[i] v[j], exact, n = len(u).

    Each input is packed into one integer, a slot per entry (Kronecker
    substitution), wide enough for n max|u| max|v|; the product's slots
    are folded mod n.
    """
    n = len(u)
    if len(v) != n:
        raise ValueError(f"lengths differ: {n} and {len(v)}")
    mu, mv = (max(map(abs, x), default=0) for x in (u, v))
    nbytes = (max(n * mu * mv, mu, mv).bit_length() + 8) // 8
    c = _unpack(_pack(u, nbytes) * _pack(v, nbytes), 2 * n, nbytes)
    return [a + b for a, b in zip(c[:n], c[n:])]


def _pack(xs: list[int], nbytes: int) -> int:
    """sum xs[i] 2^(8 nbytes i) for |xs[i]| < 2^(8 nbytes - 1)."""
    half = 1 << (8 * nbytes - 1)
    raw = b"".join((x + half).to_bytes(nbytes, "little") for x in xs)
    return int.from_bytes(raw, "little") - _offset(len(xs), nbytes)


def _unpack(X: int, n: int, nbytes: int) -> list[int]:
    """The n slots of X = sum w[i] 2^(8 nbytes i), |w[i]| < 2^(8 nbytes - 1)."""
    half = 1 << (8 * nbytes - 1)
    raw = (X + _offset(n, nbytes)).to_bytes(n * nbytes, "little")
    return [int.from_bytes(raw[i:i + nbytes], "little") - half
            for i in range(0, n * nbytes, nbytes)]


def _offset(n: int, nbytes: int) -> int:
    """2^(8 nbytes - 1) in each of n slots."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")
