"""Every certified number and the test that sets it against a second,
independent route.  A number with no line here has one route only.

- The Perron radius of a matrix of at most 24 rows, from its cyclic
  classes, one root also where components of one radius meet, vs the
  Collatz-Wielandt bracket of the power iteration's vectors on the whole
  matrix:
  test_dimension.py::TestPerron::test_root_against_second_route
- The Perron radius and dimension of every complete pool graph of at most
  24 rows vs the whole matrix's char-poly root, the route those sizes
  took before, kept in the tests as ``reference_char_poly_root``:
  test_dimension.py::TestPerron::test_pool_within_char_poly_roots
- The cyclic-class root, the largest mu^(1/h) over the components, vs the
  whole matrix's char-poly root on periodic and reducible matrices of at
  most 24 rows:
  test_dimension.py::TestCyclicClasses::test_class_root_against_char_poly_root
- The cyclic classes' factorisation of det(xI - A) vs ``char_poly``:
  test_dimension.py::TestCyclicClasses::test_char_poly_factors_over_the_classes
- The Perron root past 24 rows vs numpy's ``eigvals``:
  test_dimension.py::TestPerron::test_class_route_holds_numpy_radius
- The Perron root past 24 rows vs Noda's bracket, the route it replaced,
  kept in the tests as ``reference_noda_bracket``:
  test_dimension.py::TestPerron::test_class_route_within_noda_brackets
- The Perron root of class products of 26 to 35 rows, at seeded shifts of
  ex51's base, vs Noda's bracket:
  test_dimension.py::TestPerron::test_ex51_shifts_past_24_rows_take_roots
- ``graph.cyclic_classes`` vs the gcd of the simple cycle lengths, with
  every edge from C_i to C_(i+1 mod h):
  test_graph.py::test_cyclic_classes_follow_every_edge
- ``log_enclosure`` vs ln by the standard library's ``decimal``:
  test_exactnum.py::TestLogEnclosure::test_seeded_rationals
- The uniqueness test vs the old two-block scan, on the 24 spectrum
  bases, sqrt(2) - 1, (3-sqrt(5))/2 and ex51's base:
  test_expansions.py::TestUniquenessReference::test_words_match_reference
- The uniqueness test vs the definition: t is unique iff no state on its
  own follower path has two children in the hull, on the 24 spectrum
  bases, sqrt(2) - 1, (3-sqrt(5))/2 and ex51's base, with the pool's
  words and a seeded draw, kept in the tests as
  ``reference_branch_unique``:
  test_expansions.py::TestUniquenessDefinition::test_matches_the_scan
- D_alpha, the paper's main theorem, as ``d_set`` describes it, vs the
  zero densities of the unique EP words pre(per), |pre| <= 1 and |per| <=
  8, at bases on either side of each regime boundary: equal to its finite
  list up to n* = 2 and inside it beyond, none in its excluded band, and
  inside the countable family at alpha_KL:
  test_dimension.py::TestDSetAgainstUniqueWords::test_densities_of_unique_words
- The worked-example shifts t of Examples 5.1 and 5.2 vs their closed
  forms:
  test_acceptance.py::test_translations_closed_forms
- The Perron dimension vs the frequency dimension:
  test_dimension.py::TestPerronMeetsFrequency::test_enclosures_overlap
- The box walk's exact integer grid vs the float walk:
  test_dimension.py::TestBoxCount::test_grid_matches_float_walk
- ``_bisect``'s checked Newton cell vs plain halving:
  test_exactnum.py::TestNewtonCell::test_kernel_bases
- The box walk's shared ``GammaSearch`` vs a fresh search per query:
  test_expansions.py::TestGammaSearch::test_shared_matches_fresh
- delta vs the shift-by-shift admissibility scan (Parry 1960):
  test_expansions.py::TestDelta::test_admissible
- A base's interned field context (``exactnum.field``), its states, signs,
  comparisons, enclosures, children and -ln alpha, vs a fresh
  ``QAlphaContext`` on the same base, and its cached range facts 0 < alpha
  < 1 and alpha > 1/2, which ``BaseSystem``, ``perron_dimension`` and the
  box walk's slope read, vs ``compare`` afresh, on the kernel and pool
  bases and on 1/3, 1/2, 3/5, (3-sqrt(5))/2 and 1/sqrt(2):
  test_exactnum.py::TestFieldRegistry::test_interned_matches_fresh
- A base's interned ``BaseSystem``, its delta to 512 digits, periodic
  form, regime, threshold fact, -ln alpha, hull tails and d_set, vs a
  fresh system built after ``exactnum.forget``, on the 24 spectrum bases,
  the kernel bases and alpha_KL:
  test_dimension.py::TestSystemRegistry::test_interned_matches_fresh
- F's sign, from the Thue-Morse product prod (1 - a^(2^k)), vs the
  term-by-term series sum (1 + lambda_i) a^i, kept in the tests as
  ``reference_series_sign_at``, at seeded points, every midpoint of a
  halving to 1e-40 and points within 2^-300 of alpha_KL, and alpha_KL's
  cell at 1e-12 vs the halving on that series; the product's outward
  bounds vs the series sum (-1)^(tau_i) a^i:
  test_thuemorse.py::TestAlphaKL::test_series_sign_matches_fraction_sum
  test_thuemorse.py::TestAlphaKL::test_bisection_meets_the_fraction_halving
  test_thuemorse.py::TestAlphaKL::test_product_bounds_hold_the_series
- Descartes isolation vs the Sturm count: the largest root of each class
  product's and each whole matrix's char poly, of seeded matrices, a dense
  24-row class product and the nudged polynomials, vs the integer Sturm
  chain it replaced, kept in the tests as ``reference_sturm_count`` and
  ``reference_sturm_isolate``: the same squarefree polynomial and root
  count, and the identical 10^-20 cell:
  test_dimension.py::test_descartes_isolation_against_sturm_chain
- The Liouville witness's one running sum on ints, its approximants
  p_k/q_k and x's enclosure, vs the Fraction sums it replaced, kept in the
  tests as ``reference_liouville_approximants`` and
  ``reference_series_enclosure``, on seeded bases and K up to the digit
  bound:
  test_dimension.py::TestLiouville::test_one_sum_matches_the_fraction_routes

Planned in ROADMAP.md, and missing until their code lands, each with
today's code kept in the tests as the reference:

- the max-plus class product for the max cycle mean vs Karp's table;
- the memoized box walk vs the current walk.
"""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
NODE = re.compile(r"(test_\w+\.py)::(?:(\w+)::)?(test_\w+)")


def test_every_named_route_is_a_test():
    named = NODE.findall(__doc__)
    assert len(named) == 25
    for path, cls, fn in named:
        tree = ast.parse((TESTS / path).read_text())
        scope = tree.body if not cls else [
            m for c in tree.body if isinstance(c, ast.ClassDef)
            and c.name == cls for m in c.body]
        tests = {m.name for m in scope if isinstance(m, ast.FunctionDef)}
        assert fn in tests, f"{path}::{cls}::{fn} is no test"
