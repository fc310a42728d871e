"""Tour: closed time sets, the Cantor example, and window traces.

For closed sets the information function takes the value m on each
generation-m removed interval; the truncation at depth d gives the
value d to the 2**d surviving intervals.
The tail sums have exact closed forms, and the window traces of the
contraction functional stabilize (geometrically decaying increments).

Run:  python demos/cantor_continuity.py
"""

from fractions import Fraction as F

from orthoconv.info import PointSet, cantor_info_fn, cantor_points
from orthoconv.sets import (
    cantor_tail_integral_oracle, cantor_tail_norm_sq_oracle,
    continuity_verdict,
)

print("=" * 70)
print("Cantor information function at small depths")
print("=" * 70)
h3 = cantor_info_fn(3)
print("depth 3:", h3)
print("points at depth 3:", len(cantor_points(3)))

print()
print("Tail sums, exact (oracle) vs closed forms:")
print("  k   integral of (H-k)^+     3*(2/3)^k     ||(H-k)^+||    3*(2/3)^k")
for k in range(0, 9):
    integ = float(cantor_tail_integral_oracle(k))
    l2 = float(cantor_tail_norm_sq_oracle(k)) ** 0.5
    bound = 3 * (2 / 3) ** k
    print("  %2d  %-22.6f %-13.6f %-14.6f %-10.6f %s"
          % (k, integ, bound, l2, bound,
             "(integrated = bound exactly; quadratic mean exceeds it)"
             if k == 0 else ""))

print()
print("The integrated tail meets the bound with exact equality; the")
print("quadratic-mean tail decays like (2/3)**(k/2) instead.  Both sums")
print("over k = 2**i converge, which is all the continuity criterion needs.")

print()
print("=" * 70)
print("Window traces of the contraction functional around t = 0")
print("=" * 70)
rep = continuity_verdict("cantor", 0, [F(1, 3), F(1, 9)], depths=[4, 6, 8, 10])
for w in rep["windows"]:
    print("  half-width %-5s trace %s stabilized=%s"
          % (w["half_width"], [round(x, 4) for x in w["trace"]],
             w["stabilized"]))

print()
print("Finite sets evaluate exactly, without a depth trace:")
B = PointSet([0, F(1, 9), F(1, 3), F(2, 3), 1])
rep2 = continuity_verdict(B, F(1, 3), [F(1, 9)])
print("  window around 1/3:", rep2["windows"][0]["trace"])
