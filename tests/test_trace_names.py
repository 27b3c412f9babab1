"""Every name the benchmark tracer patches must exist on the package.

perfbench/spans.py wraps functions by (module, attribute) and only looks
them up when a traced run starts, so a rename or a deletion there would
surface as a failed `--trace 1` run and nowhere else.  The tracer module
is loaded from its file, as the benchmark loads it, and is not edited.
"""

import importlib.util
from pathlib import Path

import pytest

import spectralbox
import spectralbox.cli  # noqa: F401  (binds the submodules on the package)
from spectralbox.cocycles import BoundaryEigenvalues
from spectralbox.model import IntFunction, LatticeWindow

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = sorted(
    {(module, attr) for module, attr, _, _ in _load_spans().WRAPS}
    | {("cli", "grid_group_action")}
)


@pytest.mark.parametrize("module, attr", TRACED)
def test_traced_name_resolves_on_the_package(module, attr):
    assert callable(getattr(getattr(spectralbox, module, None), attr, None))


def test_tracer_installs_and_restores_every_name():
    spans = _load_spans()
    before = {
        (module, attr): getattr(getattr(spectralbox, module), attr)
        for module, attr, _, _ in spans.WRAPS
    }
    tracer = spans.Tracer()
    try:
        tracer.install(spectralbox)
    finally:
        tracer.uninstall()
    for (module, attr), fn in before.items():
        assert getattr(getattr(spectralbox, module), attr) is fn


def test_window_cells_count_reads_the_eigenvalue_window():
    window = LatticeWindow(((-2, 1), (0, 4)))
    eigs = BoundaryEigenvalues.from_pair(IntFunction(1), IntFunction(1), window)
    count = _load_spans()._count("cocycles.window_cells", (eigs,), None)
    assert count == window.cardinality == 20


def test_traced_simulate_groups_job_counts_grid_actions_and_transforms(tmp_path):
    # the tracer counts calls into the closures of cli.grid_group_action
    # and into groups.twisted_analysis/twisted_synthesis; a rename on the
    # package side would read as zero work, not as an error
    config = tmp_path / "groups.yaml"
    config.write_text(
        "command: simulate-groups\n"
        "groups: {window: {radius: 2}, grid_n: 16, times: [0.25, 0.5], "
        "sub_radius: 1, n_random: 1}\n",
        encoding="utf-8",
    )
    argv = ["simulate-groups", "--config", str(config), "--out", str(tmp_path / "out")]
    tracer = _load_spans().Tracer()
    tracer.install(spectralbox)
    try:
        status = tracer.run_job(0, "simulate-groups", lambda: spectralbox.cli.main(argv))
    finally:
        tracer.uninstall()
    assert status == 0
    counts = tracer.counts[0]
    assert counts["groups.grid_actions"] > 0
    assert counts["grid.transforms"] > 0


def test_traced_check_cocycle_job_counts_window_cells(tmp_path):
    # the count reads args[0].window of check_cocycle_2d, of the single
    # identity and of classify_2d: a signature change there fails here
    config = tmp_path / "cocycle.yaml"
    config.write_text(
        "command: check-cocycle\n"
        'cocycle: {b: {table: {"1": 0.3}}, window: {radius: 2}}\n',
        encoding="utf-8",
    )
    argv = ["check-cocycle", "--config", str(config), "--out", str(tmp_path / "out")]
    tracer = _load_spans().Tracer()
    tracer.install(spectralbox)
    try:
        status = tracer.run_job(0, "check-cocycle", lambda: spectralbox.cli.main(argv))
    finally:
        tracer.uninstall()
    assert status == 0
    # three spans of the 25-cell window: the kernel, the single identity
    # and the classification
    assert tracer.counts[0]["cocycles.window_cells"] == 3 * 25
