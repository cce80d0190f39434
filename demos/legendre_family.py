"""
Frobenius traces of y^2 = x(x-1)(x-lambda) and what they count
===============================================================
"""

from collections import Counter

from ntlab import (ap_legendre, ap_table, build_hurwitz_table, curve_census,
                   counting_lemma_check, j_invariant, l_set, l_set_sizes,
                   make_field_ctx, schoof_count_check, torsion_class,
                   twist_relation_misses, window8)

p = 29
ctx = make_field_ctx(p)
aps = ap_table(ctx)

print(f"p = {p}")
print("lam  a_p  j-invariant  torsion  |L(lam)|")
sizes = l_set_sizes(ctx)
for lam in range(2, p - 1):
    print(f"{lam:>3} {aps[lam]:>4} {j_invariant(ctx, lam):>12} "
          f"{torsion_class(ctx, lam):>8} {sizes[lam]:>8}")

print(f"L-set size histogram: {dict(Counter(sizes.values()))}")
print(f"L(2) = {sorted(l_set(ctx, 2))}")

# the six lambda values sharing a j-invariant, and the quadratic twist signs
print(f"lam where a twist relation fails: {twist_relation_misses(ctx)}")

# every F_p-isomorphism class once, with automorphism mass adding up
census = curve_census(ctx)
mass = sum((p - 1) // c.aut for c in census)
smooth = sum(1 for A in range(p) for B in range(p)
             if (4 * A ** 3 + 27 * B ** 2) % p)
print(f"census: {len(census)} classes, orbit mass {mass} vs "
      f"{smooth} smooth (A,B) pairs: {mass == smooth}")

# class counts inside a trace window against Hurwitz class numbers
table = build_hurwitz_table(p)   # the n = 2 and mod-16 windows read D <= p
for s in window8(p):
    rec = schoof_count_check(ctx, 2, s, table)
    print(f"classes with trace {s:+} and full 2-torsion: {rec.lhs} "
          f"(H({4 * p - s * s}//4) route: {rec.rhs}, {rec.detail})")

rec = counting_lemma_check(ctx, table)
print(f"half-sum counting identity at p={p}: {rec.lhs} == {rec.rhs}")
