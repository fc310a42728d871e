"""Tour: building processes with large maximal functions on triadic sets.

The builder walks the dyadic floor of the information function: cells
recurse into subcells, equal-width certified pieces are nested under a
fresh generator family (threshold gain 3**(k/2) y + 4k sqrt(measure)),
disjoint pieces merge (gain sqrt(sum y**2)).  Every step is verified by
direct evaluation: exact increment norms, exact final value, and exact
exceedance measures.

Run:  python demos/divergent_process.py
"""

from fractions import Fraction as F

from orthoconv.info import PointSet
from orthoconv.construct import build_divergent, divergent_prefix

for pts, label in [
    ([0, F(1, 3), F(2, 3), 1], "base quadruple"),
    ([F(n, 9) for n in range(10)], "full level-1 grid"),
]:
    B = PointSet(pts)
    out = build_divergent(B)
    rep = out["report"]
    print("=" * 70)
    print("%s (%d points)" % (label, len(B)))
    print("=" * 70)
    print("steps:")
    for s in out["steps"]:
        print("   cell %-14s -> %-12s y = %.4f" % (s["cell"], s["choice"], s["y"]))
    print("achieved threshold y' = %.4f" % out["achieved_y"])
    print("increment norms exact:", str(rep["gram_deviation"]) == "0")
    print("final value = 24 sqrt(3 lambda(D)) chi:", rep["final_value_ok"])
    print("lambda(max >= y') =", rep["good_measure"])
    print("achieved failure fraction:", rep["achieved_eps"])
    print("maximal function pieces:", len(rep["maximal_function"].values))
    print()

print("=" * 70)
print("Finite product-space prefix: independent copies on nested blocks")
print("=" * 70)
B = PointSet([0, F(1, 3), F(2, 3), 1])
pp = divergent_prefix([B, B, B], [1, F(1, 2), F(1, 4), 0])
union, per_block = pp.oscillation_exceedance(24)
print("per-block event measures:", per_block)
print("measure(some block oscillates past 24):", union,
      "= 1 - (2/3)**3 =", 1 - F(2, 3) ** 3)
print("(independent events; infinitely many blocks would give measure 1,")
print(" which is the finite-prefix reading of a.e. divergence)")
