"""Static checks over the package source, with the standard library's ast:
no module-level import that its module never uses, no private top-level
name that nothing in the package references, no public top-level function
or class that only the tests call, and no public class member that only
the tests read.  All four catch code left behind when a second copy of
something is deleted, or state that is written and never read.  No module
imports one from a layer above its own, deferred imports included, no
float enters the bisection of a root bracket, and no certified clause of
verify-paper compares floats within a tolerance."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cantorint"
TREES = {p.name: ast.parse(p.read_text(), str(p))
         for p in sorted(SRC.glob("*.py"))}
# the package's callers other than the tests
CALLERS = [ast.parse(p.read_text(), str(p)) for d in ("perfbench", "demos")
           for p in sorted((ROOT / d).glob("*.py"))]


def loaded_names(tree) -> set:
    """Every name the tree reads, bare or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def top_level_names(tree) -> list:
    """Names a module binds at top level by def, class or assignment."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out += [n.id for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)]
    return out


# the package's __init__ imports only to re-export
@pytest.mark.parametrize("name", sorted(set(TREES) - {"__init__.py"}))
def test_no_unused_module_level_import(name):
    tree = TREES[name]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert not unused, f"{name} imports but never uses {unused}"


def test_root_brackets_take_no_float():
    # _bisect's checked cell, the _newton estimate that names it and every
    # exactnum function they call run on ints and Fractions: no true
    # division, float() or float literal
    funcs = {n.name: n for n in TREES["exactnum.py"].body
             if isinstance(n, ast.FunctionDef)}
    todo, seen = ["_bisect"], set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(funcs[name]):
            assert not (isinstance(node, ast.BinOp)
                        and isinstance(node.op, ast.Div)
                        or isinstance(node, ast.Constant)
                        and isinstance(node.value, float)
                        or isinstance(node, ast.Name)
                        and node.id in ("float", "inf")), (name, node.lineno)
            if isinstance(node, ast.Name) and node.id in funcs \
                    and node.id not in seen:
                todo.append(node.id)
    assert {"_newton", "_scaled_value", "grid_level"} <= seen


def test_every_private_top_level_name_is_referenced():
    loaded = set().union(*map(loaded_names, TREES.values()))
    orphans = [f"{name}:{n}" for name, tree in TREES.items()
               for n in top_level_names(tree)
               if n.startswith("_") and not n.startswith("__")
               and n not in loaded]
    assert not orphans, f"defined but never referenced: {orphans}"


def unreferenced_public_names(trees, callers) -> list:
    """Public top-level functions and classes of ``trees`` that no code
    outside their own definition reads: neither another part of the
    package, bar the re-exports of ``__init__.py``, nor ``callers``."""
    parts = [(name, node, loaded_names(node)) for name, tree in trees.items()
             if name != "__init__.py" for node in tree.body]
    read_by_callers = set().union(*map(loaded_names, callers))
    return [f"{name}:{node.name}" for name, node, _ in parts
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in read_by_callers
            and not any(node.name in read for _, other, read in parts
                        if other is not node)]


# exactnum.forget, the one reset of the process caches, serves the tests;
# no run of the package needs one (ROADMAP item 1 gives perfbench a call)
RESET = "exactnum.py:forget"


def test_every_public_top_level_name_has_a_caller():
    orphans = unreferenced_public_names(TREES, CALLERS)
    assert orphans in ([], [RESET]), f"only the tests call {orphans}"


def test_public_name_check_skips_own_body_and_reexports():
    trees = {"__init__.py": ast.parse("from .m import lone, used, Used\n"),
             "m.py": ast.parse("def lone(n):\n    return lone(n - 1)\n"
                               "def used():\n    pass\n"
                               "class Used:\n    pass\n"
                               "def caller():\n    return used()\n")}
    assert unreferenced_public_names(trees, [ast.parse("m.Used()")]) == \
        ["m.py:lone", "m.py:caller"]


def attribute_reads(tree) -> Counter:
    """How often the tree reads each name as an attribute."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load))


def unread_public_members(trees, callers) -> list:
    """Methods, properties and annotated fields of the public top-level
    classes of ``trees`` that nothing reads as an attribute outside the
    member's own definition: neither the package nor ``callers``.

    Like the checks above it matches by name, so it cannot see a
    write-only field that shares its name with a member that is read,
    such as a field ``alpha`` beside the many ``sys.alpha`` reads."""
    reads = sum(map(attribute_reads, [*trees.values(), *callers]), Counter())
    unread = []
    for name, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    member = node.name
                elif isinstance(node, ast.AnnAssign) and \
                        isinstance(node.target, ast.Name):
                    member = node.target.id
                else:
                    continue
                if not member.startswith("_") and \
                        reads[member] == attribute_reads(node)[member]:
                    unread.append(f"{name}:{cls.name}.{member}")
    return unread


def test_every_public_member_has_a_reader():
    orphans = unread_public_members(TREES, CALLERS)
    assert not orphans, f"only the tests read {orphans}"


def test_public_member_check_skips_own_body_and_writes():
    trees = {"m.py": ast.parse(
        "class A:\n"
        "    read: int\n"
        "    unread: int\n"
        "    _private: int\n"
        "    def lone(self):\n"
        "        return self.lone()\n"
        "    def used(self):\n"
        "        return self.read\n"
        "    @property\n"
        "    def prop(self):\n"
        "        return 1\n"
        "class _Hidden:\n"
        "    def orphan(self):\n"
        "        pass\n"
        "def f(a):\n"
        "    a.unread = 1\n"
        "    return a.used()\n")}
    assert unread_public_members(trees, [ast.parse("x.prop")]) == \
        ["m.py:A.unread", "m.py:A.lone"]


# the layers, lowest first; a module imports only from its own layer or
# lower ones
LAYERS = (("exactnum",), ("words", "graph"), ("thuemorse",), ("expansions",),
          ("dimension",), ("acceptance",), ("cli",))
RANK = {mod: rank for rank, layer in enumerate(LAYERS) for mod in layer}
# parse_real("akl") returns thuemorse's alpha_KL, and the benchmark parses
# its bases through exactnum.parse_real; forget empties the caches of the
# layers above, importing them only when it is called
UPWARD_ALLOWED = {("exactnum", "parse_real", "thuemorse"),
                  ("exactnum", "forget", "words"),
                  ("exactnum", "forget", "thuemorse"),
                  ("exactnum", "forget", "expansions")}


def package_imports(tree, scope=None):
    """(innermost enclosing def or None, package module) for every
    relative import in the tree, at module level or deferred."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from package_imports(node, node.name)
            continue
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield scope, node.module.split(".")[0]
            else:
                yield from ((scope, a.name) for a in node.names)
        yield from package_imports(node, scope)


def test_every_module_has_a_layer():
    assert set(RANK) == {name[:-3] for name in TREES} - {"__init__"}


@pytest.mark.parametrize("mod", sorted(RANK))
def test_no_import_from_a_layer_above(mod):
    upward = [(scope, target) for scope, target
              in package_imports(TREES[f"{mod}.py"])
              if RANK[target] > RANK[mod]
              and (mod, scope, target) not in UPWARD_ALLOWED]
    assert not upward, f"{mod} imports from a layer above it: {upward}"


def test_layer_check_sees_deferred_imports():
    tree = ast.parse("from . import exactnum\n"
                     "class A:\n"
                     "    def f(self):\n"
                     "        if True:\n"
                     "            from .dimension import d_set\n"
                     "def g():\n"
                     "    from . import words as w, graph\n")
    assert list(package_imports(tree)) == [
        (None, "exactnum"), ("f", "dimension"), ("g", "words"), ("g", "graph")]


# libm calls whose results carry rounding that nothing bounds
LIBM = {"log", "nextafter"}


def _is_libm_call(node) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in LIBM
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "math")


def _called_name(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else \
        f.attr if isinstance(f, ast.Attribute) else None


def libm_flows(tree, sink="DimensionValue") -> list:
    """Calls that hand a value derived from ``math.log`` or
    ``math.nextafter`` to ``sink`` or to a function that calls it.

    Within each function a name is tainted when something tainted is
    assigned to it; a function whose return value is tainted taints its
    calls.  Both sets grow to a fixed point.  Conservative: any tainted
    argument of a call into a sink counts.
    """
    funcs = [n for n in ast.walk(tree)
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    sinks, sources = {sink}, set()

    def tainted(expr, names):
        return any(_is_libm_call(n)
                   or isinstance(n, ast.Name) and n.id in names
                   or isinstance(n, ast.Call) and _called_name(n) in sources
                   for n in ast.walk(expr))

    def local_taint(fn):
        names: set = set()
        while True:
            before = len(names)
            for n in ast.walk(fn):
                if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign)) \
                        and n.value is not None and tainted(n.value, names):
                    targets = n.targets if isinstance(n, ast.Assign) \
                        else [n.target]
                    names |= {m.id for t in targets for m in ast.walk(t)
                              if isinstance(m, ast.Name)}
            if len(names) == before:
                return names

    while True:
        before = len(sinks), len(sources)
        for fn in funcs:
            calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call)]
            if any(_called_name(c) in sinks for c in calls):
                sinks.add(fn.name)
            names = local_taint(fn)
            if any(isinstance(n, ast.Return) and n.value is not None
                   and tainted(n.value, names) for n in ast.walk(fn)):
                sources.add(fn.name)
        if (len(sinks), len(sources)) == before:
            break
    flows = []
    for fn in funcs:
        names = local_taint(fn)
        for c in ast.walk(fn):
            if isinstance(c, ast.Call) and _called_name(c) in sinks \
                    and any(tainted(a, names) for a in
                            c.args + [k.value for k in c.keywords]):
                flows.append(f"{fn.name}:{c.lineno}")
    return flows


def test_no_libm_result_reaches_a_dimension_value():
    # the float estimates (box_count_oracle's slope, _liouville_min_next's
    # seed) may use libm; every printed enclosure comes from
    # exactnum.log_enclosure, rounded outward once
    tree = TREES["dimension.py"]
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                and n.module == "math"]
    assert libm_flows(tree) == []


# the float recipe the dimension values had before exactnum.log_enclosure
LIBM_RECIPE = '''
def _log_interval(lo, hi):
    a = math.log(lo) if lo > 0 else -math.inf
    b = math.log(hi)
    for _ in range(4):
        a = math.nextafter(a, -math.inf)
        b = math.nextafter(b, math.inf)
    return a, b

def _neg_log_alpha_interval(alpha):
    alo, ahi = exactnum.enclosure(alpha, Fraction(1, 10**20))
    la, lb = _log_interval(alo, ahi)
    return (-lb, -la)

def _ratio_interval(num_lo, num_hi, den_lo, den_hi):
    cands = [num_lo / den_hi, num_lo / den_lo, num_hi / den_hi, num_hi / den_lo]
    return min(cands), max(cands)

def dim_from_frequency(alpha, f):
    nlo, nhi = _neg_log_alpha_interval(alpha)
    l2 = math.log(2)
    lo, hi = _ratio_interval(float(f) * math.nextafter(l2, 0),
                             float(f) * math.nextafter(l2, 2), nlo, nhi)
    return DimensionValue(DimForm.FREQUENCY, alpha, lo, hi, freq=f)

def full_dimension(alpha):
    return dim_from_frequency(alpha, Fraction(1))

def perron_dimension(g, alpha):
    lam_lo, lam_hi = g.count_matrix.perron().enclosure()
    lam_log = _log_interval(lam_lo, lam_hi)
    nlo, nhi = _neg_log_alpha_interval(alpha)
    lo, hi = _ratio_interval(max(lam_log[0], 0.0), max(lam_log[1], 0.0),
                             nlo, nhi)
    return DimensionValue(DimForm.PERRON, alpha, lo, hi)

def box_slope(xs):
    return [math.log(x) for x in xs]
'''


def test_libm_flow_check_sees_the_float_recipe():
    flows = libm_flows(ast.parse(LIBM_RECIPE))
    assert {f.split(":")[0] for f in flows} == \
        {"dim_from_frequency", "perron_dimension"}
    # a libm value handed to a function that builds the value also counts
    wrapped = LIBM_RECIPE.replace(
        "    return DimensionValue(DimForm.PERRON, alpha, lo, hi)",
        "    return _dimension_value(DimForm.PERRON, alpha, (lo, hi))\n\n"
        "def _dimension_value(form, alpha, num):\n"
        "    return DimensionValue(form, alpha, num[0], num[1])")
    assert "perron_dimension" in \
        {f.split(":")[0] for f in libm_flows(ast.parse(wrapped))}


ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
# the two estimates among verify-paper's clauses, by the name they read:
# check 1's elapsed time and check 7's box-count slope
ESTIMATE_CLAUSES = {("check_01_alpha_kl", "elapsed"),
                    ("check_07_box_counting", "slope")}


def _reads_float(node) -> bool:
    """A float literal, a ``.decimal``, a ``float()`` or a ``math`` call."""
    return (isinstance(node, ast.Constant) and isinstance(node.value, float)
            or isinstance(node, ast.Attribute) and node.attr == "decimal"
            or isinstance(node, ast.Call) and _called_name(node) == "float"
            or isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "math")


def float_tolerances(tree) -> list:
    """``function:line`` of each ordering comparison in a top-level
    function that reads a float (see :func:`_reads_float`), bar the
    estimate clauses: a tolerance on floats, where a certified clause
    compares exact enclosure ends or Fractions."""
    out = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Compare)
                    and any(isinstance(op, ORDERINGS) for op in node.ops)
                    and any(map(_reads_float, ast.walk(node)))):
                continue
            if not any((fn.name, name) in ESTIMATE_CLAUSES
                       for name in loaded_names(node)):
                out.append(f"{fn.name}:{node.lineno}")
    return out


def test_no_float_tolerance_in_a_certified_clause():
    tree = TREES["acceptance.py"]
    assert float_tolerances(tree) == []
    # each estimate clause is still there, and still reads a float
    estimates = {(fn.name, name) for fn in tree.body
                 if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn) if isinstance(node, ast.Compare)
                 and any(map(_reads_float, ast.walk(node)))
                 for name in loaded_names(node)}
    assert ESTIMATE_CLAUSES <= estimates


def test_float_tolerance_check_sees_the_old_clauses():
    # checks 6 and 11 as they compared floats, beside the exact forms
    tree = ast.parse(
        "def check_06_example_52():\n"
        "    a = abs(dv.decimal - independent) <= 1e-6\n"
        "    b = Fraction(dv.lo) - slack <= independent\n"
        "    c = rhs.hi < dv.lo\n"
        "def check_11_sft_interval():\n"
        "    d = abs(lo_v.decimal - full / 3) <= 1e-9\n"
        "    e = v.lo <= full_hi / k\n"
        "    f = [v.decimal for v in ds.values] == expected\n"
        "    g = float(x) < hi\n"
        "def check_07_box_counting():\n"
        "    h = abs(rep1.slope - 0.644297) <= 0.08\n"
        "    i = abs(rep1.width - 0.5) <= 0.08\n")
    assert float_tolerances(tree) == [
        "check_06_example_52:2", "check_11_sft_interval:6",
        "check_11_sft_interval:9", "check_07_box_counting:12"]


def fractions_of_names(tree) -> list:
    """Line of each ``Fraction(...)`` call with a name in its arguments.
    Number text reaches a Fraction through ``exactnum.parse_fraction``,
    which bounds its digits before Fraction can build 10^E."""
    return sorted(node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called_name(node) == "Fraction"
            and any(isinstance(n, (ast.Name, ast.Attribute))
                    for arg in node.args + [k.value for k in node.keywords]
                    for n in ast.walk(arg)))


def test_cli_parses_no_number_text_with_fraction():
    assert fractions_of_names(TREES["cli.py"]) == []


def test_fraction_check_sees_option_text():
    tree = ast.parse(
        "LIMIT = Fraction(1, 10**40)\n"
        "def handler(args):\n"
        "    width = Fraction(args.width)\n"
        "    ts = [Fraction(x) for x in args.targets.split(',')]\n"
        "    tol = fractions.Fraction(numerator=args.tol)\n"
        "    return parse_fraction(args.pq), width, ts, tol\n")
    assert fractions_of_names(tree) == [3, 4, 5]


# process state: every registry grows through exactnum._remember, and
# exactnum.forget empties every registry and every functools cache
STATE_KEEPERS = {"_remember", "forget"}
CONTAINER_CALLS = {"dict", "list", "set", "bytearray", "defaultdict"}
MUTATORS = {"append", "extend", "insert", "pop", "popitem", "clear",
            "update", "setdefault", "add", "discard", "remove", "sort",
            "reverse"}
CACHE_DECORATORS = {"cache", "lru_cache", "_memo"}
# the alpha_KL singleton is an identity, not a derived fact: forget keeps it
FORGET_KEEPS = {("thuemorse", "alpha_kl_real")}


def module_containers(tree) -> set:
    """Names a module binds at top level to a new dict, list, set or
    bytearray."""
    out = set()
    for node in tree.body:
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                   ast.ListComp, ast.SetComp))
                or isinstance(value, ast.Call)
                and _called_name(value) in CONTAINER_CALLS):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out |= {n.id for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)}
    return out


def state_writes(trees) -> list:
    """``module:function:line`` of each write to module state inside a
    function other than :data:`STATE_KEEPERS`: a ``global`` statement, or
    a mutating call, an item or slice assignment or deletion on a
    module-level container, by its bare name in its own module or as an
    attribute anywhere."""
    owned = {name: module_containers(tree) for name, tree in trees.items()}
    anywhere = set().union(*owned.values())

    def is_state(node, mine):
        return (isinstance(node, ast.Name) and node.id in mine
                or isinstance(node, ast.Attribute) and node.attr in anywhere)

    out = []
    for name, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or fn.name in STATE_KEEPERS:
                continue
            for node in ast.walk(fn):
                owners = []  # the containers the node writes into
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                    targets = getattr(node, "targets", None) or [node.target]
                    owners = [t.value for t in targets
                              if isinstance(t, ast.Subscript)]
                elif isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr in MUTATORS:
                    owners = [node.func.value]
                if isinstance(node, ast.Global) or any(
                        is_state(o, owned[name]) for o in owners):
                    out.append(f"{name}:{fn.name}:{node.lineno}")
    return out


def test_module_state_is_written_by_the_helper_alone():
    assert state_writes(TREES) == []


def test_state_check_sees_singletons_and_evictions():
    trees = {"a.py": ast.parse(
        "_ONE: list = []\n"
        "_SEEN = {}\n"
        "TABLE = {1: 2}\n"
        "def one():\n"
        "    if not _ONE:\n"
        "        _ONE.append(1)\n"
        "    return _ONE[0]\n"
        "def seen(k):\n"
        "    if len(_SEEN) >= 4:\n"
        "        del _SEEN[next(iter(_SEEN))]\n"
        "    _SEEN[k] = TABLE[k]\n"
        "def flag():\n"
        "    global _FLAG\n"
        "    _FLAG = True\n"
        "def _remember(store, key, value):\n"
        "    store[key] = value\n"
        "    _SEEN[key] = value\n"),
        "b.py": ast.parse(
        "def reset():\n"
        "    a._ONE[:] = []\n"
        "def local():\n"
        "    out = {}\n"
        "    out[1] = 2\n")}
    assert sorted(state_writes(trees)) == [
        "a.py:flag:13", "a.py:one:6", "a.py:seen:10", "a.py:seen:11",
        "b.py:reset:2"]


def cached_functions(trees) -> list:
    """(module, function) of each top-level function under a functools
    cache, directly or through thuemorse's ``_memo``."""
    def name(d):
        d = d.func if isinstance(d, ast.Call) else d
        return d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)

    return [(mod[:-3], fn.name) for mod, tree in trees.items()
            for fn in tree.body if isinstance(fn, ast.FunctionDef)
            and any(name(d) in CACHE_DECORATORS for d in fn.decorator_list)]


def test_forget_clears_every_cache(monkeypatch):
    import importlib
    from cantorint import exactnum
    cached = cached_functions(TREES)
    assert FORGET_KEEPS <= set(cached)
    cleared = []
    for mod, name in cached:
        fn = getattr(importlib.import_module(f"cantorint.{mod}"), name)
        monkeypatch.setattr(fn, "cache_clear",
                            lambda key=(mod, name): cleared.append(key))
    exactnum.forget()
    assert sorted(cleared) == sorted(set(cached) - FORGET_KEEPS)


def test_cache_check_sees_every_decorator():
    tree = ast.parse("@lru_cache(maxsize=4)\ndef a(n): pass\n"
                     "@functools.cache\ndef b(): pass\n"
                     "@_memo(8)\ndef c(n): pass\n"
                     "@wraps(a)\ndef d(n): pass\n")
    assert cached_functions({"m.py": tree}) == [("m", "a"), ("m", "b"),
                                                ("m", "c")]
