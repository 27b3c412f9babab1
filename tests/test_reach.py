"""Reach gate: every function in src/spectralbox runs under a sample config.

Each `configs/*.yaml` runs through `cli.main` in process under
`sys.setprofile`, which records the code object of every call into a
file of the package.  Each module's AST then lists its functions and
methods, nested ones included; a function counts as reached when a run
entered its code.  A function that no run enters fails the gate unless
an entry of ALLOWED covers it: the entry names the function, or a class
or module around it.

Every entry gives one reason of three kinds: a test oracle kept in the
package beside the kernel it checks, an error or warning path that no
valid sample reaches, or the ROADMAP item whose command will reach it.
An entry that names no code, or that a sample run reaches, fails too, so
the list can only shrink as commands grow.
"""

import ast
import sys
from pathlib import Path

import pytest

import spectralbox
from spectralbox.cli import main
from spectralbox.config import load_config

ROOT = Path(__file__).resolve().parent.parent
# unresolved, as the code objects name their files
PACKAGE = Path(spectralbox.__file__).parent

ORACLE = "test oracle"
ERROR_PATH = "error path"
ROADMAP = "roadmap item"

ALLOWED = {
    "exponentials.f_omega_quadrature": (
        ORACLE, "Gauss-Legendre quadrature of the box transform, checked "
        "against the closed form"),
    "exponentials._leggauss": (ORACLE, "nodes of f_omega_quadrature"),
    "exponentials.eval_F_omega": (
        ORACLE, "the box transform on a dense stack of differences, the "
        "reference of gram_matrix"),
    "model.spectrum_difference_set": (
        ORACLE, "the dense P (P - 1) x d difference set, the reference of "
        "verify-pair's zero set"),
    "exponentials._gl_segment": (ORACLE, "one panel of f_omega_quadrature"),
    "groups._indicator_coeff_closed": (
        ORACLE, "continuum indicator coefficients, the limit of the grid's "
        "own ones"),
    "diffraction.lattice_sum": (
        ORACLE, "direct lattice sum against the constant-shift pairing"),
    "groups.TruncatedOperator.labels": (
        ORACLE, "mode labels of the matrix rows, read by the spectral tests"),
    "model.LatticeWindow.indices": (
        ORACLE, "window index tuples, the row-major reference order"),
    "groups.TruncationLeakageError.__init__": (
        ERROR_PATH, "raised for a generic pair whose leakage_tol is too "
        "small; the samples acknowledge their truncation"),
    "reporting.ReportBuilder.note": (
        ERROR_PATH, "rational period ratio warning of a diffraction model; "
        "the samples use irrational ratios"),
    "extensions": (
        ROADMAP, "item 6: the boundary unitary W of the I x Omega_2 theorem "
        "and its Cayley pair"),
    "groups.MatrixBoundary": (
        ROADMAP, "item 6: a boundary that is a function of A_2, acting on "
        "the grid"),
    "cocycles.BoundaryEigenvalues.from_tower": (
        ROADMAP, "item 5: simulate-groups and check-cocycle on towers"),
}


def _functions(tree: ast.Module, prefix: str):
    """(dotted name, node) of every function and method in the tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{node.name}"
            yield name, node
            yield from _functions(node, f"{name}.<locals>")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}.{node.name}")
        else:
            yield from _functions(node, prefix)


def _definitions() -> dict:
    """Dotted name -> (file, first line of its code object) per function.

    A code object's first line is its first decorator's, if it has one.
    """
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, node in _functions(tree, path.stem):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            found[name] = (str(path), first)
    return found


def _covers(entry: str, name: str) -> bool:
    return name == entry or name.startswith(entry + ".")


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """Dotted names of the functions some sample run entered."""
    configs = sorted((ROOT / "configs").glob("*.yaml"))
    assert configs
    entered = set()
    package = str(PACKAGE)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    out = tmp_path_factory.mktemp("reach")
    previous = sys.getprofile()
    for config in configs:
        command = load_config(config).command
        argv = [command, "--config", str(config), "--out", str(out / config.stem)]
        sys.setprofile(profile)
        try:
            status = main(argv)
        finally:
            sys.setprofile(previous)
        assert status in (0, 1), config.name
    return {name for name, key in _definitions().items() if key in entered}


def test_every_function_runs_under_a_sample_or_is_allowed(reached):
    unreached = [
        name
        for name in _definitions()
        if name not in reached and not any(_covers(e, name) for e in ALLOWED)
    ]
    assert unreached == []


def test_every_allow_list_entry_names_code_in_src():
    names = _definitions()
    stale = [e for e in ALLOWED if not any(_covers(e, name) for name in names)]
    assert stale == []


def test_no_sample_reaches_an_allow_list_entry(reached):
    # a reached entry has found its caller: narrow or drop it
    hits = sorted(
        (entry, name) for entry in ALLOWED for name in reached if _covers(entry, name)
    )
    assert hits == []


def test_every_allow_list_entry_gives_one_reason_of_a_known_kind():
    for entry, (kind, reason) in ALLOWED.items():
        assert kind in (ORACLE, ERROR_PATH, ROADMAP), entry
        assert reason.strip(), entry
