"""Prime field contexts and multiplicative characters.

Everything downstream (character sums, traces, p-adic lifts) works through a
FieldCtx: an odd prime together with its smallest primitive root, a discrete
log table, and the quadratic character table. Characters are handled as
exponents of the generator, never as floating point roots of unity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from sympy import factorint, isprime

# Character indices are plain integers a mod p-1, denoting the character
# that sends g^k to zeta_{p-1}^{a*k}. Index 0 is the trivial character,
# (p-1)/2 the quadratic character.
CharIdx = int


@dataclass(frozen=True)
class FieldCtx:
    """Immutable arithmetic context for one odd prime."""

    p: int
    g: int
    dlog: list[int] = field(repr=False)  # dlog[x] for x in 1..p-1; dlog[0] = -1
    qr: list[int] = field(repr=False)    # phi(x) in {-1,0,+1} for x in 0..p-1

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
    return FieldCtx(p=p, g=g, dlog=dlog, qr=qr)


def legendre_phi(ctx: FieldCtx, x: int) -> int:
    """Quadratic character phi(x) in {-1, 0, +1}."""
    return ctx.qr[x % ctx.p]
