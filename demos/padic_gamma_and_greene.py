from fractions import Fraction

from ntlab import (ap_table, gamma_p, gamma_p_direct, gk_consistency_check,
                   greene_2f1_fraction, make_padic_ctx, ngn_evaluate,
                   prop64_check, prop65_check, prop66_check)

p, K = 13, 6
ctx = make_padic_ctx(p, K)
mod = p ** K

# the block method, at small and large n alike, vs the literal product
for n in (0, 1, 2, p, 5 * p + 3, 2024):
    assert gamma_p(ctx, n) == gamma_p_direct(p, K, n)
print(f"Gamma_{p}(n) block route matches the O(n) product up to n=2024")

# reflection: Gamma_p(x) Gamma_p(1-x) = (-1)^(x mod p, taken in 1..p)
x = Fraction(1, 2)
refl = gamma_p(ctx, x) * gamma_p(ctx, 1 - x) % mod
print(f"Gamma_p(1/2) Gamma_p(1/2) = {refl if refl < mod // 2 else refl - mod}")

# Gauss sums via the factorial formula, cross-checked against Jacobi sums
rec = gk_consistency_check(ctx, 3, 5)
print(f"g(chi^3) g(chi^5) vs J(chi^3,chi^5) g(chi^8): match={rec.match}")
t2 = ctx.omega(2)
print(f"omega(2) = {t2}; reduces to 2 mod p: {t2 % p == 2}; "
      f"t^(p-1) = 1: {pow(t2, p - 1, mod) == 1}")

# hypergeometric values reconstructed as exact rationals
aps = ap_table(ctx.field)
for lam in (2, 3, 7):
    val = greene_2f1_fraction(ctx, lam)
    pred = Fraction(-ctx.field.qr[-1 % p] * aps[lam], p)
    print(f"2F1(lam={lam}) = {val}, trace formula gives {pred}, equal: {val == pred}")

# the two G-function families at a point, as p-adic numbers
val, unit = ngn_evaluate(7, "3g3", 3, 6)
print(f"3G3 family at t=3, p=7: valuation {val}, unit {unit}")
val, unit = ngn_evaluate(p, "9g9", 5, K)
print(f"9G9 family at t=5, p=13: valuation {val}, unit {unit}")

# weighted-sum identities mod p^6, each checked against its stated constant
print(prop64_check(make_padic_ctx(7, 6)).detail)
print(prop65_check(make_padic_ctx(11, 6)).detail)
print(prop66_check(ctx).detail or "backbone identity holds at p=13")
