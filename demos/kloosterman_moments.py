"""
Certified Kloosterman sums and their power moments
===================================================

Everything here is computed twice: the sums by two unrelated summation
orders, the moments by exact fixed-point sums against exact closed forms.
The whole table of K(a,p) is one cyclic convolution over Z/p, the
quadric point count: the cosines gathered by u^2 times phi, at p = 101 a
Python int product, and above p ≈ 1000 one of long decimals by libmpdec's
number-theoretic transform; K[a] / 2^shift is within err / 2^shift of
K(a,p).
"""

import math

from ntlab import (closed_forms, kloosterman_sum, kloosterman_sum_via_quadric,
                   kloosterman_table, make_field_ctx, angle_histogram,
                   semicircle_chisq, sheaf_moment, symmetric_moment_rhs,
                   twisted_moment, untwisted_moment)

p = 101
ctx = make_field_ctx(p)

print(f"p = {p}")
for a in (1, 2, 5):
    k = kloosterman_sum(ctx, a)
    q = kloosterman_sum_via_quadric(ctx, a)
    print(f"  K({a}) = {k.value:+.12f} +- {k.err:.2e}; "
          f"quadric route differs by {abs(k.value - q.value):.2e}")

# Weil: |K(a)| <= 2 sqrt(p) for every a
K, shift, err = kloosterman_table(ctx)
worst = max(abs(k) for k in K[1:]) / 2 ** shift
print(f"  max |K(a)| = {worst:.6f} (+- {err / 2 ** shift:.1e}), "
      f"Weil ceiling {2 * math.sqrt(p):.6f}")

forms = closed_forms(p)
for n in (1, 2, 4):
    got = untwisted_moment(ctx, n)
    print(f"  S({n}) = {got}, closed form says {forms[f'S{n}']}"
          + ("   <- off by 3p, see README" if n == 4 else ""))

phi = ctx.phi_idx()
s2phi = twisted_moment(ctx, 2, phi)
print(f"  S(2,phi) = {s2phi}  (= -p: {s2phi == -p})")
s4phi = twisted_moment(ctx, 4, phi)
print(f"  S(4,phi) = {s4phi}, sheaf moment M(4,phi) = {sheaf_moment(ctx, 4)}"
      f" = S(4,phi) + 3p^2: {sheaf_moment(ctx, 4) == s4phi + 3 * p * p}")

# the geometric-series counterweight reproduces the next twisted moment
print(f"  symmetric route for S(4,phi): {symmetric_moment_rhs(ctx, 3)}")

# angle equidistribution, eyeballed through a chi-square
counts = angle_histogram(make_field_ctx(997), 8)
print(f"p = 997 angle histogram: {counts}, "
      f"chi^2 = {semicircle_chisq(counts):.2f}")
