"""Normalized error ratios across prime sweeps, printed as sparklines.

The moment bounds predict |S(4,phi)| = O(p^{5/2}); the class-number window
sums drift to p^2/6, p^2/2 or p^2/4 with O(p^{3/2}) error. Dividing by the
predicted power should leave something bounded, and it does.
"""

from ntlab import build_hurwitz_table, make_padic_ctx, sweep_trend_ok
from ntlab.identities import SWEEP_CLAIMS, asymptotic_record
from ntlab.padic import theorem62_record, theorem63_record
from ntlab.primes import primerange

table = build_hurwitz_table(2000)   # every window reads D <= p
BARS = " .:-=+*#%@"


def spark(ratios, lo=0.0, hi=None):
    hi = hi or max(ratios)
    return "".join(BARS[min(9, int(9 * (r - lo) / (hi - lo + 1e-12)))]
                   for r in ratios)


# each claim reads the primes p = residue mod modulus
for claim, (modulus, residue) in SWEEP_CLAIMS.items():
    recs = [asymptotic_record(p, claim, table, 4.0)
            for p in primerange(100, 2001) if p % modulus == residue]
    ratios = [r.ratio for r in recs]
    print(f"{claim:<9} {len(recs):>3} primes  max {max(ratios):.4f}  "
          f"[{spark(ratios, hi=4.0)}]")

# magnitude trends for the weighted G-function sums, on p = 1 mod 6 and
# p = 2 mod 3
for name, record, (modulus, residue) in (("3G3", theorem62_record, (6, 1)),
                                         ("9G9", theorem63_record, (3, 2))):
    recs = [record(make_padic_ctx(p))
            for p in primerange(7, 301) if p % modulus == residue]
    ratios = [r.ratio for r in recs]
    print(f"{name} normalized |T(p)|: first {ratios[0]:.4f} last {ratios[-1]:.4f} "
          f"falling: {sweep_trend_ok(recs)}  [{spark(ratios)}]")
