"""Hurwitz class numbers, the Eichler relation, and the Cohen coefficients."""

from fractions import Fraction

from ntlab import (build_hurwitz_table, class_number_h, cohen_coefficient,
                   eichler_lhs, eichler_rhs, hurwitz_hfull, hurwitz_hstar12)

# one sieve gives every class number to D = 6000; the per-D functions
# enumerate the forms of one discriminant and are the table's oracles
table = build_hurwitz_table(6000)

# hfull counts every class once; the Hurwitz number H(D), 12*H*(D) / 12,
# weighs the classes of multiples of x^2 + y^2 by 1/2 and of x^2 + xy + y^2
# by 1/3
print("D    h(-D)  hfull(D)  12*H*(D)  H(D)  per-D oracles agree")
for D in (3, 4, 7, 11, 12, 15, 16, 20, 23, 47, 71):
    row = (class_number_h(D), table.hfull[D], table.hstar12[D])
    agree = row[1:] == (hurwitz_hfull(D), hurwitz_hstar12(D))
    H = str(Fraction(row[2], 12))
    print(f"{D:<4} {row[0]:>5} {row[1]:>9} {row[2]:>9} {H:>5}  {agree}")
print(f"H*(0) = {Fraction(hurwitz_hstar12(0), 12)}")

# an exact identity: sum of H*(n - s^2) over s^2 <= n, odd n
for n in (1, 3, 5, 93, 4999):
    lhs = eichler_lhs(n, table)
    rhs = eichler_rhs(n)
    print(f"n={n:<5} eichler lhs {lhs} == rhs {rhs}: {lhs == rhs}")

# the companion coefficient is zero at every odd argument tried
worst = max(abs(cohen_coefficient(ell, table)) for ell in range(1, 2000, 2))
print(f"max |c(l)| over odd l < 2000: {worst}")
