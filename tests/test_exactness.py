"""Static guard for exact arithmetic: integers only, anywhere in the package.

Every module of ``prymlab`` is parsed and searched for what would let a
float or a rational in: the name ``float`` or any identifier containing it
(``np.float64``, ``float_power``), the numpy and math names ``linalg``,
``true_divide`` and ``sqrt``, the names ``Fraction`` and ``fractions``, and
every true division ``/``. Floor division ``//`` stays integral and is
allowed.

A second guard keeps one exact product routine: no module but ``lattice.py``
uses the ``@`` operator, so every product goes through ``lattice.matmul``.

A third guard keeps fixed-width integers inside the two modules that bound
them: no module but ``lattice.py`` and ``surface.py`` names a fixed-width
integer type (``int8`` through ``int64``, or any ``uint``: ``pfaffian``,
the Smith elimination, the sparse products, the boundary and the cycle
basis step through int16 and int32, and an unsigned view wraps as well),
and the matrices those two hand out are object arrays of Python ints, so
the elementwise arithmetic of ``prym`` and ``corr`` never meets a dtype
that wraps. The exceptions are ``lattice.eye_minus``, whose caller hands its
result back to ``lattice``'s products and eliminations and computes nothing
on it itself, ``surface._induced``, the induced map at fixed width, which
``prym`` hands to ``eye_minus`` as it is, and the ``gram`` a homology's
sublattice keeps, the checked int64 Gram, which only ``lattice`` reads:
the restricted Gram it hands out is Python ints.

A fourth guard keeps out code nothing calls: every underscore-prefixed
module-level function of the package is read somewhere in it, by name, as
an attribute or by an import.

A fifth guard keeps one route from a statement of ``prym`` to homology, the
``corr.Evaluator`` of its datum: no scenario body, ``_duality`` or
``probe_trial`` names a cover builder or an induced-map routine
(``build_all``, ``induced_map_all``, ``_induced``, ``induce``) or a fiber
constructor of ``corr`` (``make_D``, ``make_S0``, ``make_Di``,
``sigma_matrix``, ``negation_matrix``, ``parity_incidence``,
``parity_indicator``).
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from prymlab import corr, lattice, prym, surface
from prymlab.cover import induce, random_simple
from prymlab.weyl import OrbitKind

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "prymlab"
BANNED = {"linalg", "true_divide", "sqrt", "Fraction", "fractions"}


def _inexact(node):
    """Why ``node`` may bring in a float, or None."""
    names = []
    if isinstance(node, ast.Name):
        names = [node.id]
    elif isinstance(node, ast.Attribute):
        names = [node.attr]
    elif isinstance(node, ast.alias):
        names = [node.name.split(".")[-1], node.asname or ""]
    for name in names:
        if "float" in name or name in BANNED:
            return f"name {name!r}"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return "true division"
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
        return "in-place true division"
    return None


def violations(source: str, filename: str = "<source>") -> list:
    tree = ast.parse(source, filename)
    out = []
    for node in ast.walk(tree):
        why = _inexact(node)
        if why is not None:
            out.append(f"{filename}:{getattr(node, 'lineno', '?')}: {why}")
    return out


def matmul_operators(source: str, filename: str = "<source>") -> list:
    """Where ``source`` multiplies with ``@`` or ``@=``."""
    return [
        f"{filename}:{node.lineno}"
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]


def test_package_modules_are_found():
    assert {p.name for p in PACKAGE.glob("*.py")} >= {"lattice.py", "surface.py", "prym.py"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_admits_no_float(path):
    assert violations(path.read_text(encoding="utf-8"), path.name) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = float(3)",
        "a = b.astype(np.float64)",
        "y = np.linalg.det(m)",
        "from numpy import linalg",
        "from math import sqrt as root",
        "z = np.true_divide(a, b)",
        "w = a / b",
        "w = c / Fraction(1, 2)",
        "q = Fraction(-d) * p / n",
        "from fractions import Fraction",
        "a /= 2",
    ],
)
def test_guard_catches_each_kind(source):
    assert violations(source)


@pytest.mark.parametrize(
    "source",
    [
        "q = a // b",
        "r = math.isqrt(n)",
        "x = np.int64(3)",
    ],
)
def test_guard_allows_exact_code(source):
    assert violations(source) == []


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "lattice.py"],
    ids=lambda p: p.name,
)
def test_module_multiplies_through_matmul(path):
    assert matmul_operators(path.read_text(encoding="utf-8"), path.name) == []


def test_matmul_guard_catches_the_operator_only():
    assert matmul_operators("c = a @ b")
    assert matmul_operators("a @= b")
    assert matmul_operators("c = matmul(a, b)\n@dataclass\nclass K:\n    x: int") == []


FIXED_WIDTH = re.compile(r"int(8|16|32|64)|uint")


def int64_names(source: str, filename: str = "<source>") -> list:
    """Where ``source`` names a fixed-width integer type, ``int8`` through
    ``int64`` or any ``uint``: as a name, an attribute or a string."""
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        named = (
            (isinstance(node, ast.Name) and node.id)
            or (isinstance(node, ast.Attribute) and node.attr)
            or (isinstance(node, ast.alias) and node.name)
            or (isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value)
        )
        if named and FIXED_WIDTH.search(named):
            out.append(f"{filename}:{node.lineno}")
    return out


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in ("lattice.py", "surface.py")],
    ids=lambda p: p.name,
)
def test_module_names_no_int64(path):
    assert int64_names(path.read_text(encoding="utf-8"), path.name) == []


def test_int64_guard_catches_each_spelling():
    for source in ("a.astype(np.int64)", "np.zeros(3, dtype='int64')", "from numpy import int64"):
        assert int64_names(source), source
    assert int64_names("x = np.zeros(3, dtype=object)") == []


@pytest.mark.parametrize(
    "width", ["int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64", "uintp"]
)
def test_fixed_width_guard_catches_every_width(width):
    for source in (f"a.astype(np.{width})", f"np.zeros(3, dtype='{width}')",
                   f"from numpy import {width}", f"x = {width}(3)"):
        assert int64_names(source), source
    for source in ("x = int(3)", "print(intmat(a))", "np.zeros(3, dtype=object)"):
        assert int64_names(source) == [], source


def unreferenced_private(sources: dict) -> list:
    """The underscore-prefixed module-level functions of ``sources`` (file
    name to source text) that no name, attribute or import in any of them
    reads, as ``file:name``."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.split(".")[-1])
    return [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in read
    ]


def test_package_defines_no_private_function_it_never_calls():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private(sources) == []


def test_dead_code_guard_catches_an_unread_private_function():
    sources = {
        "a.py": "def _used(): pass\ndef _dead(): pass\ndef public(): return _used()\n",
        "b.py": "from .a import _imported\nx = mod._read_as_attribute\n"
                "def _imported(): pass\ndef _read_as_attribute(): pass\n",
    }
    assert unreferenced_private(sources) == ["a.py:_dead"]


# what a statement of prym reaches homology through only by the evaluator
PAST_THE_EVALUATOR = {
    "build_all", "induced_map_all", "_induced", "induce",
    "make_D", "make_S0", "make_Di", "sigma_matrix", "negation_matrix",
    "parity_incidence", "parity_indicator",
}


def named_past_the_evaluator(source: str, functions, filename: str = "<source>") -> list:
    """Where the module-level ``functions`` of ``source`` name anything in
    ``PAST_THE_EVALUATOR``, as a name or an attribute, as
    ``file:line: function names name``."""
    out = []
    for node in ast.parse(source, filename).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            for sub in ast.walk(node):
                named = (isinstance(sub, ast.Name) and sub.id) or (
                    isinstance(sub, ast.Attribute) and sub.attr
                )
                if named in PAST_THE_EVALUATOR:
                    out.append(f"{filename}:{sub.lineno}: {node.name} names {named}")
    return out


def test_prym_statements_reach_homology_through_the_evaluator():
    source = (PACKAGE / "prym.py").read_text(encoding="utf-8")
    statements = {fn.__name__ for fn, *_ in prym._SCENARIOS.values()}
    assert len(statements) == len(prym.scenario_names())
    statements |= {"_duality", "probe_trial"}
    defined = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    assert statements <= defined
    assert named_past_the_evaluator(source, statements, "prym.py") == []


@pytest.mark.parametrize("name", sorted(PAST_THE_EVALUATOR))
def test_evaluator_guard_catches_each_name(name):
    statements = {"_duality", "probe_trial"}
    for source in (f"def _duality(ev):\n    return surface.{name}(ev)\n",
                   f"def probe_trial(n):\n    m = [{name}]\n    return m\n"):
        assert named_past_the_evaluator(source, statements), source
    # outside a statement, or as a string, the name is allowed
    for source in (f"def helper(H):\n    return surface.{name}(H)\n",
                   f"def _duality(ev):\n    return ev('{name}')\n"):
        assert named_past_the_evaluator(source, statements) == [], source


def _python_ints(m) -> bool:
    return m.dtype == object and all(type(x) is int for x in m.flat)


def test_matrices_leaving_surface_and_lattice_are_python_ints():
    datum = random_simple(3, 4, 6, seed=3)
    HX = surface.build_all(induce(datum, OrbitKind.SPINOR))
    HC = surface.build_all(induce(datum, OrbitKind.VECTOR))
    # a split spinor cover: the block-diagonal Gram and each part's
    split = surface.build_all(induce(random_simple(3, 0, 10, seed=2), OrbitKind.SPINOR))
    assert len(split.parts) == 2
    assert HX.parts[0].sheet_chains.vals.dtype == np.int64  # held in int64 inside surface
    delta = surface.induced_map_all(HX, HX, corr.make_D(3).matrix)
    s0 = surface.induced_map_all(HX, HC, corr.make_S0(3).matrix)
    one = lattice.eye(HX.rank)
    outputs = {
        "gram": HX.gram,
        "part gram": HX.parts[0].gram,
        "split gram": split.gram,
        "split part 0 gram": split.parts[0].gram,
        "split part 1 gram": split.parts[1].gram,
        "induced_map_all": delta,
        "image": lattice.image(one - delta),
        "image of eye_minus": lattice.image(lattice.eye_minus(delta)),
        "matmul of eye_minus": lattice.matmul(lattice.eye_minus(delta), delta),
        "saturate": lattice.saturate(one - delta),
        "kernel": lattice.kernel(one - delta),
        "solve_exact": lattice.solve_exact(HC.gram, HC.gram),
        "matmul": lattice.matmul(s0, delta),
        "restricted_gram": HX.sublattice(one).restricted_gram(),
    }
    for name, m in outputs.items():
        assert _python_ints(m), name
