"""Primes, factorizations and divisors, exact and in the standard library.

isprime is deterministic Miller-Rabin to the first 13 prime bases, which
decide every n below PROVEN_BOUND = psi_13 (Sorenson and Webster, Math.
Comp. 86, 2017, extending Jaeschke, Math. Comp. 61, 1993). At or above the
bound it raises rather than guess. The rest are a sieve and trial division,
sized for the primes and the p - 1 the lab handles.
"""

from __future__ import annotations

import math
import operator
from itertools import compress

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PROVEN_BOUND = 3317044064679887385961981   # the least strong pseudoprime to _BASES


def isprime(n: int) -> bool:
    """Exact for n < PROVEN_BOUND; ValueError from there on."""
    n = operator.index(n)
    if n >= PROVEN_BOUND:
        raise ValueError(f"isprime is proven only below {PROVEN_BOUND}: {n}")
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1   # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primerange(lo: int, hi: int) -> list[int]:
    """The primes p with lo <= p < hi, ascending."""
    if hi <= 2:
        return []
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(hi - 1) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, hi, q)))
    lo = max(lo, 2)
    return list(compress(range(lo, hi), sieve[lo:hi]))


def factorint(n: int) -> dict[int, int]:
    """{prime: exponent} for n >= 1, primes ascending."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1: {n}")
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError(f"divisors needs n >= 1: {n}")
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]
