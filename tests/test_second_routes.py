"""Every certified number and the test that sets it against a second,
independent route.  A number with no line here has one route only.

- The Perron root of a matrix of at most 24 rows, the characteristic
  polynomial's largest real root, vs the Collatz-Wielandt bracket of
  Noda's vectors:
  test_dimension.py::TestPerron::test_root_against_second_route
- ``log_enclosure`` vs ln by the standard library's ``decimal``:
  test_exactnum.py::TestLogEnclosure::test_seeded_rationals
- The uniqueness test vs the old two-block scan:
  test_expansions.py::TestUniquenessReference::test_words_match_reference
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

Planned in ROADMAP.md, and missing until their code lands, each with
today's code kept in the tests as the reference:

- Howard's policy iteration for the max cycle mean vs Karp's table;
- the memoized box walk vs the current walk.
"""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
NODE = re.compile(r"(test_\w+\.py)::(\w+)::(\w+)")


def test_every_named_route_is_a_test():
    named = NODE.findall(__doc__)
    assert len(named) == 8
    for path, cls, fn in named:
        tree = ast.parse((TESTS / path).read_text())
        methods = {m.name for c in tree.body if isinstance(c, ast.ClassDef)
                   and c.name == cls for m in c.body
                   if isinstance(m, ast.FunctionDef)}
        assert fn in methods, f"{path}::{cls}::{fn} is no test"
