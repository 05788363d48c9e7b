"""Import hygiene: no module in src/ or tests/ imports a name it never reads,
only funcspace.py in src/ uses numpy's Chebyshev module, only curvedyn.py
in src/ names the "sigma1" record key of the kept exact orbits, and in it
only _exact_orbit_starts, which only _chain_bases calls, only cli's
dt-check in src/ calls
an assembled block's apply, every module-level constant, function, class
and method of src/ is named somewhere in src/ or tests/, and every
private one somewhere in src/.

One chain engine: in src/ only curvedyn._dt_walk calls _dt_step, only
_dr_walk and _dt_step call dr_matrix outside renorm1d and the reference
qprenorm.apply_DT, and only curvedyn._chain_bases compares a chain mode.
One DT kernel: outside renorm1d only qprenorm.dt_columns, the reference
apply_DT and the assembled build_L_omega take the mode factors l1_matrix
and l2_matrix, asymptotics calls no build_L_omega, and dt_columns is
called by curvedyn._dt_step, qprenorm.l_prime_rows and
asymptotics._dominant_direction, and nowhere else.
Mode rows: in asymptotics only _family_H5 names project_pik, only
_h4_samples calls _mode_rows, and no function takes an attribute
.sup_norm(), a PairFn read; the chains are read as stored rows.

The package __init__ re-exports names it does not read, and `from
__future__` imports are directives, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_the_scan_sees_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys, tau)\n"
    assert _unused_imports(source) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_imported_name_is_read(path):
    assert _unused_imports(path.read_text()) == []


CHEB = "numpy.polynomial.chebyshev"
SRC = sorted((ROOT / "src").rglob("*.py"))


def _chebyshev_uses(source):
    """Lines that import or name numpy.polynomial.chebyshev: an import of
    it or from it, `from numpy.polynomial import chebyshev`, and an
    attribute chain ending in polynomial.chebyshev."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(a.name.startswith(CHEB) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith(CHEB) or (
                node.module == "numpy.polynomial"
                and any(a.name == "chebyshev" for a in node.names))
        else:
            hit = (isinstance(node, ast.Attribute)
                   and node.attr == "chebyshev"
                   and isinstance(node.value, ast.Attribute)
                   and node.value.attr == "polynomial")
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_sees_a_chebyshev_use():
    source = ("from numpy.polynomial import chebyshev as C\n"
              "import numpy.polynomial.chebyshev\n"
              "from numpy.polynomial.chebyshev import chebval\n"
              "import numpy as np\n"
              "np.polynomial.chebyshev.chebval(0.0, [1.0])\n"
              "np.polynomial.polynomial.polyval(0.0, [1.0])\n")
    assert _chebyshev_uses(source) == [1, 2, 3, 5]


@pytest.mark.parametrize("path", SRC,
                         ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_only_funcspace_uses_the_chebyshev_module(path):
    # the Chebyshev basis (tables, Vandermondes, chebval) has one owner
    uses = _chebyshev_uses(path.read_text())
    if path.name == "funcspace.py":
        assert uses             # the owner, so the scan must see it
    else:
        assert uses == []


def _key_uses(source, key):
    """Lines of the string literals equal to key; comments are not code."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and node.value == key)


def test_the_scan_sees_a_record_key():
    source = ('# "sigma1" in a comment\n'
              'cache["sigma1"] = {}\n'
              'x = "sigma1s"\n'
              'cache.get("sigma1", {})\n')
    assert _key_uses(source, "sigma1") == [2, 4]


@pytest.mark.parametrize("path", SRC,
                         ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_only_curvedyn_names_the_sigma1_record(path):
    # the exact-orbit start owns the polished levels, alpha_n with its
    # orbit; no other module reads or seeds them
    uses = _key_uses(path.read_text(), "sigma1")
    if path.name == "curvedyn.py":
        assert uses             # the owner, so the scan must see it
    else:
        assert uses == []


def _constants(source):
    """Names in upper case that a module assigns at its top level."""
    names = []
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        names += [n.id for t in targets for n in ast.walk(t)
                  if isinstance(n, ast.Name) and n.id.lstrip("_").isupper()]
    return names


def _reads(source):
    """Names a module reads: loaded names, attribute names and names
    imported from another module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_the_scan_sees_a_dead_constant():
    source = ("A = 1\n_B: int = 2\nC, D = 3, 4\nlower = 5\n"
              "print(A, mod.C)\nfrom m import D\n")
    assert _constants(source) == ["A", "_B", "C", "D"]
    assert {"A", "C", "D"} <= _reads(source)
    assert "_B" not in _reads(source)


def test_every_module_constant_is_read():
    read = set().union(*(_reads(p.read_text()) for p in MODULES))
    dead = [(p.name, name) for p in SRC for name in _constants(p.read_text())
            if name not in read]
    assert dead == []


def _definitions(source):
    """Functions and classes a module defines at its top level, and the
    methods of those classes; dunders are called by the language, so they
    are exempt."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, defs):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [m.name for m in node.body if isinstance(m, defs)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_the_scan_sees_a_dead_definition():
    source = ("def used(): pass\ndef _dead(): pass\n"
              "class C:\n    def __init__(self): pass\n"
              "    def m(self): pass\n    def _gone(self): pass\n"
              "    def inner(self):\n        def nested(): pass\n"
              "C().m(used())\n")
    assert _definitions(source) == ["used", "_dead", "C", "m", "_gone",
                                    "inner"]
    assert {"used", "C", "m"} <= _reads(source)
    assert not {"_dead", "_gone", "inner"} & _reads(source)


def test_every_definition_is_named():
    # a helper that loses its last caller fails here
    read = set().union(*(_reads(p.read_text()) for p in MODULES))
    dead = [(p.name, name) for p in SRC
            for name in _definitions(p.read_text()) if name not in read]
    assert dead == []


def _unread_private(sources):
    """(index, name) of the private functions, classes and methods that the
    sources define and none of them reads; private means a leading
    underscore, and dunders are exempt."""
    read = set().union(*map(_reads, sources))
    return [(i, name) for i, source in enumerate(sources)
            for name in _definitions(source)
            if name.startswith("_") and name not in read]


def test_the_scan_sees_an_unread_private_definition():
    lib = ("def _helper(): pass\ndef _used(): pass\n"
           "class _C:\n    def _m(self): pass\n    def __len__(self): 0\n"
           "def public(): return _used(), _C\n")
    assert _unread_private([lib]) == [(0, "_helper"), (0, "_m")]
    assert _unread_private([lib, "from lib import _helper\n"]) == [(0, "_m")]


def test_every_private_definition_is_read_in_src():
    # a private helper serves the package: a test alone cannot keep one
    # alive, so a deleted producer does not survive as a test-only helper
    sources = [p.read_text() for p in SRC]
    assert [(SRC[i].name, name) for i, name in _unread_private(sources)] == []


def _enclosed(source, hit):
    """(line, enclosing function) of each node that hit accepts; a node at
    module level has the function None."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if hit(node):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def _attribute_calls(source, attr):
    """(line, enclosing function) of each call of an attribute named
    attr."""
    return _enclosed(source, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr))


def test_the_scan_sees_an_apply_call():
    source = ("def _dt_check(op, v):\n    return op.apply(v)\n"
              "def walk(op, v):\n    def step(w):\n        return op.apply(w)\n"
              "    return step(v), apply(v), op.applied(v)\n"
              "build(1).apply(2)\n")
    assert _attribute_calls(source, "apply") == [(2, "_dt_check"),
                                                 (5, "step"), (7, None)]


@pytest.mark.parametrize("path", SRC,
                         ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_only_the_dt_check_applies_an_assembled_block(path):
    # every chain steps with curvedyn._dt_step; the assembled L_omega block
    # is the reference that the dt-check compares DT with
    calls = _attribute_calls(path.read_text(), "apply")
    if path.name == "cli.py":
        assert [f for _, f in calls] == ["_dt_check"]
    else:
        assert calls == []


def _name_calls(source, name):
    """(line, enclosing function) of each call of name, bare or as an
    attribute."""
    return _enclosed(source, lambda node: (
        isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None),
                     getattr(node.func, "attr", None))))


def test_the_scan_sees_a_call_of_a_name():
    source = ("def _dt_walk(bases, v):\n"
              "    return [_dt_step(b, v) for b in bases]\n"
              "def other(m, v):\n"
              "    return curvedyn._dt_step(m, v), _dt_steps(v), f(_dt_step)\n"
              "_dt_step(1, 2)\n")
    assert _name_calls(source, "_dt_step") == [(2, "_dt_walk"), (4, "other"),
                                               (5, None)]


@pytest.mark.parametrize("path", SRC,
                         ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_only_the_dt_walk_steps_a_chain(path):
    # one loop over _dt_step serves every chain in the package
    calls = _name_calls(path.read_text(), "_dt_step")
    if path.name == "curvedyn.py":
        assert [f for _, f in calls] == ["_dt_walk"]
    else:
        assert calls == []


@pytest.mark.parametrize("path", SRC,
                         ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_only_the_walks_push_by_dr(path):
    # _dr_walk pushes u and _dt_step steps mode 0 of v; renorm1d owns DR
    # and its solvers, and qprenorm.apply_DT is the reference DT step
    funcs = sorted(f for _, f in _name_calls(path.read_text(), "dr_matrix"))
    if path.name == "curvedyn.py":
        assert funcs == ["_dr_walk", "_dt_step"]
    elif path.name == "qprenorm.py":
        assert funcs == ["apply_DT"]
    elif path.name != "renorm1d.py":
        assert funcs == []


def _factor_calls(source):
    """{name: sorted enclosing functions of its calls} for the mode-1
    factors l1_matrix, l2_matrix and the assembled build_L_omega."""
    return {name: sorted(f for _, f in _name_calls(source, name))
            for name in ("l1_matrix", "l2_matrix", "build_L_omega")}


def test_the_scan_sees_an_operator_factor_call():
    source = ("def kernel(psi, H):\n"
              "    return l1_matrix(psi) @ H, renorm1d.l2_matrix(psi)\n"
              "def check(psi, w):\n"
              "    return q.build_L_omega(psi, w).matrix, l1_matrix\n")
    assert _factor_calls(source) == {"l1_matrix": ["kernel"],
                                     "l2_matrix": ["kernel"],
                                     "build_L_omega": ["check"]}


@pytest.mark.parametrize("path", SRC,
                         ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_only_the_operator_layer_takes_l1_and_l2(path):
    # every mode-k step goes through qprenorm.dt_columns; apply_DT is the
    # reference DT step, renorm1d builds the factors, and the assembled
    # block is left to the spectrum, the dt-check and criterion 4
    calls = _factor_calls(path.read_text())
    if path.name == "qprenorm.py":
        want = ["apply_DT", "build_L_omega", "dt_columns"]
        assert calls["l1_matrix"] == calls["l2_matrix"] == want
    elif path.name != "renorm1d.py":
        assert calls["l1_matrix"] == calls["l2_matrix"] == []
    if path.name == "asymptotics.py":
        assert calls["build_L_omega"] == []


KERNEL_CALLERS = {"curvedyn.py": ["_dt_step"],
                  "qprenorm.py": ["l_prime_rows"],
                  "asymptotics.py": ["_dominant_direction"]}


@pytest.mark.parametrize("path", SRC,
                         ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_one_dt_kernel_serves_the_chains_and_the_section(path):
    # the slope chains, H4's steps, apply_L_prime (via l_prime_rows) and the
    # dominant direction all take DT from the same kernel
    calls = sorted(f for _, f in _name_calls(path.read_text(), "dt_columns"))
    assert calls == KERNEL_CALLERS.get(path.name, [])


MODES = ("exact-orbit", "fixed-point")


def _mode_tests(source):
    """(line, enclosing function) of each comparison with a chain mode."""
    return _enclosed(source, lambda node: (
        isinstance(node, ast.Compare)
        and any(isinstance(x, ast.Constant) and x.value in MODES
                for side in (node.left, *node.comparators)
                for x in ast.walk(side))))


def test_the_scan_sees_a_mode_test():
    source = ('def _chain_bases(mode="exact-orbit"):\n'
              '    if mode == "exact-orbit":\n        return 1\n'
              '    return "fixed-point" != mode\n'
              'def other(mode):\n'
              '    return mode in ("fixed-point",), mode == "exact"\n'
              'ok = MODE == "fixed-point"\n')
    assert _mode_tests(source) == [(2, "_chain_bases"), (4, "_chain_bases"),
                                   (6, "other"), (7, None)]


def _key_names(source, key):
    """(line, enclosing function) of each string literal equal to key."""
    return _enclosed(source, lambda node: (
        isinstance(node, ast.Constant) and node.value == key))


def test_the_scan_sees_the_function_that_names_a_key():
    source = ('def _exact_orbit_starts(family):\n'
              '    return family._cache.setdefault("sigma1", {})\n'
              'def other(cache):\n'
              '    # "sigma1"\n'
              '    return cache["sigma1s"], cache.get("sigma1")\n'
              'KEY = "sigma1"\n')
    assert _key_names(source, "sigma1") == [(2, "_exact_orbit_starts"),
                                            (5, "other"), (6, None)]


def test_only_the_exact_orbit_start_keeps_the_orbits():
    # in curvedyn the start alone reads and writes the kept levels, and
    # the chain bases alone take a level's orbit from it
    source = (ROOT / "src" / "qprenorm_lab" / "curvedyn.py").read_text()
    assert {f for _, f in _key_names(source, "sigma1")} == {
        "_exact_orbit_starts"}
    assert [f for _, f in _name_calls(source, "_exact_orbit_starts")] == [
        "_chain_bases"]


def test_only_the_chain_bases_know_the_modes():
    # one function returns a level's bases in either mode
    source = (ROOT / "src" / "qprenorm_lab" / "curvedyn.py").read_text()
    assert {f for _, f in _mode_tests(source)} == {"_chain_bases"}


def _name_uses(source, name):
    """(line, enclosing function) of each use of name, bare or as an
    attribute, called or not."""
    return _enclosed(source, lambda node: (
        getattr(node, "id", None) == name
        or isinstance(node, ast.Attribute) and node.attr == name))


def test_the_scan_sees_a_use_of_a_name():
    source = ("from .funcspace import project_pik\n"
              "def _family_H5(v):\n    return project_pik(v, 1)\n"
              "def other(v):\n"
              "    return map(project_pik, v), funcspace.project_pik\n"
              "def clean(v):\n    return project_pik_all(v), 'project_pik'\n")
    assert _name_uses(source, "project_pik") == [(3, "_family_H5"),
                                                 (5, "other"), (5, "other")]


def test_the_scan_sees_a_pair_read():
    source = ("def old(c1, c2):\n    return c2.sup_norm() / c1.sup_norm()\n"
              "def new(dom, H, v):\n"
              "    return pair_sup_norm(dom, H), sup_norm(v), f.sup_norm\n")
    assert _attribute_calls(source, "sup_norm") == [(2, "old"), (2, "old")]


def test_asymptotics_reads_mode_data_as_stored_rows():
    # the (u, v) layout is left at check_H5's public arguments, which
    # _family_H5 projects, and at H4's draw; every norm of a chain is a
    # pair_sup_norm of its stored rows h = u - i v, not a PairFn read
    source = (ROOT / "src" / "qprenorm_lab" / "asymptotics.py").read_text()
    assert {f for _, f in _name_uses(source, "project_pik")} == {"_family_H5"}
    assert [f for _, f in _name_calls(source, "_mode_rows")] == [
        "_h4_samples"]
    assert _attribute_calls(source, "sup_norm") == []
