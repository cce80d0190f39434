"""Normalized error ratios across prime sweeps, printed as sparklines.

The moment bounds predict |S(4,phi)| = O(p^{5/2}); the class-number window
sums drift to p^2/6, p^2/2 or p^2/4 with O(p^{3/2}) error. Dividing by the
predicted power should leave something bounded, and it does.
"""

from ntlab import (asymptotic_sweep, build_hurwitz_table, sweep_trend_ok,
                   theorem62_sweep, theorem63_sweep)

table = build_hurwitz_table(2000)   # every window reads D <= p
BARS = " .:-=+*#%@"


def spark(ratios, lo=0.0, hi=None):
    hi = hi or max(ratios)
    return "".join(BARS[min(9, int(9 * (r - lo) / (hi - lo + 1e-12)))]
                   for r in ratios)


for claim in ("thm1.1", "cor1.2", "prop4.6", "prop4.8", "prop4.9", "prop4.11"):
    recs = asymptotic_sweep(100, 2000, claim, table)
    ratios = [r.ratio for r in recs]
    print(f"{claim:<9} {len(recs):>3} primes  max {max(ratios):.4f}  "
          f"[{spark(ratios, hi=4.0)}]")

# magnitude trends for the weighted G-function sums
for name, sweep in (("3G3", theorem62_sweep), ("9G9", theorem63_sweep)):
    recs = sweep(7, 300)
    ratios = [r.ratio for r in recs]
    print(f"{name} normalized |T(p)|: first {ratios[0]:.4f} last {ratios[-1]:.4f} "
          f"falling: {sweep_trend_ok(recs)}  [{spark(ratios)}]")
