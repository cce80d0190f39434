"""The twisted fourth moment S(4,phi) computed by three independent routes.

Route 1 sums certified Kloosterman fourth powers. Route 2 expands the moment
into Frobenius traces of Legendre curves. Route 3 converts those traces into
Hurwitz class-number windows. All three agree at every prime; the recorded
spot values -245 (p=7) and -507 (p=13) do not, and the gap is exactly
2p(p-2).
"""

from ntlab import build_hurwitz_table, make_field_ctx, s4_direct, s4_via_ap, s4_via_classnumbers
from ntlab.primes import primerange

table = build_hurwitz_table(100)   # every window reads D <= p

print("p     certified   via traces  via class numbers")
for p in primerange(7, 100):
    ctx = make_field_ctx(p)
    a = s4_direct(ctx)
    b = s4_via_ap(ctx, corrected=True)
    c = s4_via_classnumbers(p, table, corrected=True)
    assert a == b == c
    print(f"{p:<5} {a:>10}  {b:>10}  {c:>10}")

for p, stated in ((7, -245), (13, -507)):
    got = s4_direct(make_field_ctx(p))
    print(f"recorded value at p={p} is {stated}; every route here gives {got} "
          f"(difference {stated - got} = 2p(p-2) = {2 * p * (p - 2)})")

# the uncorrected reading of the class-number identity shows the same slip
p = 41
ctx = make_field_ctx(p)
raw = s4_via_classnumbers(p, table, corrected=False)
print(f"p={p}: uncorrected identity gives {raw}, computed moment is "
      f"{s4_direct(ctx)}, gap {raw - s4_direct(ctx)} = {2 * p * (p - 2)}")
