"""Every name a package module imports is read, every error class is used, no
module reaches into another one's private names, and every public name has a
reader outside the tests.

No linter ships with the test extra, so these stdlib ``ast`` passes stand in for
an unused-import check, an unused-class check and a private-import check.  A
name counts as read when it appears as a loaded name anywhere in the module,
annotations included.  An exception class of ``errors.py`` counts as used when
some package module raises it or subclasses it.  A helper that several modules
share must be public: no module imports an underscore-prefixed name from
another package module.  A public function or class is read by a package
module or by the benchmark, or ``TEST_ONLY`` says why the tests alone keep it.
Likewise every defaulted parameter of a public function and every defaulted
field of a public class is set, by keyword or by position, in some call of a
package module or the benchmark, or ``TEST_ONLY_SETTINGS`` says why only the
tests set it: a setting nothing else sets is a second value of one constant.
No package module imports ``scipy.interpolate``: the one interpolation, the
averaged limit's gap in t, is ``np.interp``.  Every source file parses under
Python 3.10's grammar, the oldest that ``pyproject.toml`` declares, so syntax
that needs 3.11 (``except*``) fails here before a 3.10 interpreter sees it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "levy_multiscale"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(set(imported) - read)


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_imported_name_is_read(module):
    assert unused_imports((PACKAGE / f"{module}.py").read_text()) == []


def test_the_check_sees_an_unread_import():
    source = "from typing import Callable, Optional\nimport numpy as np\nf: Callable = np.sum\n"
    assert unused_imports(source) == ["Optional"]


def unused_errors(errors_source: str, sources: list[str]) -> list[str]:
    """Classes of ``errors_source`` that no source raises or names as a base."""
    defined = {n.name for n in ast.parse(errors_source).body if isinstance(n, ast.ClassDef)}
    used = set()
    for node in (n for src in sources for n in ast.walk(ast.parse(src))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            used |= {exc.id} if isinstance(exc, ast.Name) else set()
        elif isinstance(node, ast.ClassDef):
            used |= {b.id for b in node.bases if isinstance(b, ast.Name)}
    return sorted(defined - used)


def test_every_error_class_is_raised_or_subclassed():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unused_errors((PACKAGE / "errors.py").read_text(), sources) == []


def test_the_check_sees_an_unraised_error():
    errors = "class Base(Exception): pass\nclass Used(Base): pass\nclass Stale(Base): pass\n"
    assert unused_errors(errors, [errors, "raise Used('x')\n"]) == ["Stale"]


def private_imports(source: str) -> list[str]:
    """Underscore-prefixed names that ``source`` imports from a package module."""
    return sorted(
        a.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "levy_multiscale")
        for a in node.names
        if a.name.startswith("_")
    )


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_module_imports_a_private_name(module):
    assert private_imports((PACKAGE / f"{module}.py").read_text()) == []


def test_the_check_sees_a_private_import():
    source = (
        "from __future__ import annotations\n"
        "from numpy import _globals\n"
        "from .levy_measures import _interval_moment, side_moment\n"
        "from levy_multiscale.hjb_solvers import _require_uniform\n"
    )
    assert private_imports(source) == ["_interval_moment", "_require_uniform"]


PERFBENCH = PACKAGE.parents[1] / "perfbench"

#: Public names that only the tests read, each with the reason it stays.
TEST_ONLY = {
    "abel_average": "the paper's discounted long-run average of the fast factor",
    "ergodic_time_average": "the paper's ergodic time average of the fast factor",
    "effective_vol_harmonic": "the paper's Merton effective volatility, the harmonic mean",
    "subordinator_counterexample": "the paper's counterexample to maximum-principle propagation",
    "hamiltonian_eval": "pointwise oracle of the grid solvers' Bellman minimisation",
    "density_eval": "pointwise oracle of the jump density for the closed-form moments",
    "small_jump_variance": "the (A1) functional of the standing conditions",
    "tail_moment": "the (A3) functional of the standing conditions",
    "two_atom_measure": "the hand-computable measure the tests share",
}


def unread_public_names(package_sources: list[str], reader_sources: list[str]) -> list[str]:
    """Public module-level functions and classes that no source reads.

    A name is read where it is loaded as a name or taken as an attribute in any
    of ``package_sources`` or ``reader_sources``.
    """
    defined = {
        n.name
        for src in package_sources
        for n in ast.parse(src).body
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")
    }
    read = set()
    for node in (n for src in package_sources + reader_sources for n in ast.walk(ast.parse(src))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return sorted(defined - read)


def test_every_public_name_has_a_reader():
    package = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    readers = [p.read_text() for p in sorted(PERFBENCH.glob("*.py"))
               if not p.name.startswith("test_")]
    assert unread_public_names(package, readers) == sorted(TEST_ONLY)


def test_the_check_sees_an_unread_public_name():
    package = ["def used(): pass\ndef stale(): pass\nclass _Private: pass\nclass Kept: pass\n",
               "from .a import used\nx = used()\n"]
    assert unread_public_names(package, ["import a\na.Kept\n"]) == ["stale"]


#: Defaulted settings that only the tests set, each with the reason it stays.
TEST_ONLY_SETTINGS = {
    "LevyMeasureModel.intensity": "the paper's measure scale, and the null driver at 0",
    "generator_apply.return_error": "the achieved-error diagnostic of the pointwise generator",
}


def unset_settings(package_sources: list[str], reader_sources: list[str]) -> list[str]:
    """``name.setting`` for each defaulted setting of a public function or class that no call sets.

    A setting is a parameter with a default, or a class-body field with one.  A
    call sets it when the callee's name (a plain name or an attribute) is the
    function or class and the call passes the setting by keyword or passes
    enough positional arguments to reach it.
    """
    settings = {}
    for node in (n for src in package_sources for n in ast.parse(src).body):
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            params = node.args.posonlyargs + node.args.args
            first = len(params) - len(node.args.defaults)
            settings[node.name] = [(i, a.arg) for i, a in enumerate(params) if i >= first] + [
                (None, a.arg) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if d is not None]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            settings[node.name] = [(i, f.target.id) for i, f in enumerate(fields)
                                   if f.value is not None]
    given = set()
    for node in (n for src in package_sources + reader_sources for n in ast.walk(ast.parse(src))):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            keywords = {k.arg for k in node.keywords}
            given |= {f"{name}.{p}" for i, p in settings.get(name, [])
                     if p in keywords or (i is not None and len(node.args) > i)}
    return sorted({f"{name}.{p}" for name, ps in settings.items() for _, p in ps} - given)


def test_every_setting_has_a_caller():
    package = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    readers = [p.read_text() for p in sorted(PERFBENCH.glob("*.py"))
               if not p.name.startswith("test_")]
    assert unset_settings(package, readers) == sorted(TEST_ONLY_SETTINGS)


def test_the_check_sees_an_unset_setting():
    package = [
        "def f(a, b=1, c=2, *, d=3): pass\n"
        "class K:\n    x: int\n    y: int = 0\n    z: int = 1\n"
        "def _g(e=4): pass\n",
        "from .a import f, K\nf(0, 1, d=2)\nK(1, 2)\n",
    ]
    assert unset_settings(package, ["import a\na.K(1, z=2)\n"]) == ["f.c"]


def imported_modules(source: str) -> set[str]:
    """Dotted names of the modules ``source`` imports; ``from m import n`` counts ``m`` and ``m.n``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
    return names


def imports_module(source: str, module: str) -> bool:
    return any(n == module or n.startswith(f"{module}.") for n in imported_modules(source))


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_module_imports_scipy_interpolate(module):
    assert not imports_module((PACKAGE / f"{module}.py").read_text(), "scipy.interpolate")


@pytest.mark.parametrize("source, found", [
    ("import scipy.interpolate\n", True),
    ("from scipy import integrate, interpolate\n", True),
    ("def f():\n    from scipy.interpolate import RegularGridInterpolator\n", True),
    ("from scipy.interpolate._rgi import RegularGridInterpolator\n", True),
    ("from scipy import integrate\nimport scipy\n", False),
])
def test_the_check_sees_an_interpolate_import(source, found):
    assert imports_module(source, "scipy.interpolate") == found


def newer_syntax(source: str) -> str | None:
    """The SyntaxError that Python 3.10's grammar raises on ``source``, or None."""
    try:
        ast.parse(source, feature_version=(3, 10))
    except SyntaxError as err:
        return str(err)
    return None


def test_every_source_parses_as_python_3_10():
    root = PACKAGE.parents[1]
    paths = sorted(p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py"))
    assert len(paths) > 10
    failures = {str(p.relative_to(root)): newer_syntax(p.read_text()) for p in paths}
    assert {p: e for p, e in failures.items() if e} == {}


@pytest.mark.parametrize("source, refused", [
    ("try:\n    pass\nexcept* ValueError:\n    pass\n", True),
    ("def f[T](x: T) -> T:\n    return x\n", True),
    ("match x:\n    case 1:\n        pass\n", False),
    ("x: int | None = None\n", False),
])
def test_the_check_sees_newer_syntax(source, refused):
    assert (newer_syntax(source) is not None) == refused
