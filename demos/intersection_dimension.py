"""Dimensions of two worked Cantor set self-intersections.

For a translation t whose expansions over {-1,0,1} form a nontrivial
automaton, the intersection of the {0,1} Cantor set with its translate is
coded by relabelling each automaton edge with the number of admissible
{0,1} digits (two for difference digit 0, one for +/-1).  The spectral
radius of the resulting count matrix gives the Hausdorff dimension as
log(lambda)/(-log alpha) -- and can strictly exceed what any single
expansion's zero frequency predicts.

Run:  python demos/intersection_dimension.py
"""

from fractions import Fraction as F

from cantorint import (
    AlgebraicReal,
    BaseSystem,
    TERNARY,
    box_count_oracle,
    build_expansion_automaton,
    build_intersection_graph,
    dim_from_frequency,
    freq_upper_bound_over_expansions,
    perron_dimension,
)


def report(name, sys_a, t, box_depth=10):
    alpha = sys_a.alpha
    auto = build_expansion_automaton(sys_a, t)
    print(f"--- {name} ---")
    print(f"automaton: {len(auto.states)} states, complete={auto.complete}")
    g = build_intersection_graph(auto)
    print("count matrix:")
    for row in g.count_matrix.entries:
        print("   ", list(row))
    info = g.count_matrix.perron()
    lo, hi = info.enclosure(F(1, 10**10))
    dv = perron_dimension(g, alpha)
    print(f"spectral radius ~ {float((lo + hi) / 2):.6f}"
          f"   dimension ~ {dv.decimal:.6f}")
    bound = freq_upper_bound_over_expansions(auto)
    rhs = dim_from_frequency(sys_a, bound)
    print(f"max cycle zero-frequency = {bound}; frequency-route bound "
          f"~ {rhs.decimal:.6f}")
    print("the dimension strictly exceeds the bound: no single expansion")
    print("accounts for the whole intersection.")
    rep = box_count_oracle(alpha, t, box_depth)
    print(f"box-count cross-check: slope ~ {rep.slope:.4f} from counts "
          f"{[u for (_, _, u) in rep.rows][-4:]}")
    print()


# base: the real root of 2x^3 + 2x^2 + x - 1 (~0.440620)
alpha1 = AlgebraicReal([-1, 1, 2, 2], F(2, 5), F(1, 2))
sys1 = BaseSystem(alpha1, TERNARY)
a1 = sys1.ctx.alpha_element
t1 = -a1 / (sys1.ctx.one + a1)  # value of the alternating word (-1 1)^inf
report("cubic reciprocal-Pisot base, t = sum (-alpha)^i", sys1, t1)

# base: sqrt(2) - 1; t coded by free concatenations of 0(-1)(-1) and (-1)10
alpha2 = AlgebraicReal([-1, 2, 1], F(2, 5), F(1, 2))
sys2 = BaseSystem(alpha2, TERNARY)
a2 = sys2.ctx.alpha_element
a2_cubed = a2 * a2 * a2
t2 = a2 / (a2_cubed - sys2.ctx.one) + a2 * a2 / (sys2.ctx.one - a2_cubed)
report("sqrt(2)-1 base, self-similar intersection", sys2, t2)

print("in the second case the intersection is itself self-similar: four")
print("similitudes of ratio alpha^3, so the dimension is exactly")
print("log 4 / (-3 log(sqrt(2)-1)).")
