"""Spans around the public functions of each spectralbox module.

The tracer replaces a function in the namespace its caller looks it up
in: `cli` binds everything with `from ... import`, `orthogonality_verdict`
and `completeness_probe` reach `gram_matrix` and `enumerate_spectrum`
through `exponentials`, `classify_2d` reaches `check_cocycle_2d` through
`cocycles`, and the grid actions reach the twisted transforms through
`groups`.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from pathlib import Path

# (module, attribute, span name, count metric or None).  A span name is
# the metric base: its time is reported as "<name>_s".
WRAPS = [
    ("cli", "load_config", "config.load", None),
    ("cli", "enumerate_spectrum", "model.enumerate_spectrum", "model.points"),
    ("exponentials", "enumerate_spectrum", "model.enumerate_spectrum", "model.points"),
    ("cli", "spectrum_difference_set", "model.difference_set", None),
    ("cli", "gram_matrix", "exponentials.gram_matrix", "exponentials.gram_entries"),
    ("exponentials", "gram_matrix", "exponentials.gram_matrix", "exponentials.gram_entries"),
    ("cli", "orthogonality_verdict", "exponentials.orthogonality_verdict", None),
    ("cli", "in_zero_set_cube_many", "exponentials.zero_set", None),
    ("cli", "eval_F_omega", "exponentials.zero_set", None),
    ("cli", "completeness_probe", "exponentials.completeness_probe", None),
    ("cli", "unit_circle_root_scan", "exponentials.root_scan", None),
    ("cli", "check_cocycle_2d", "cocycles.check_cocycle_2d", "cocycles.window_cells"),
    ("cocycles", "check_cocycle_2d", "cocycles.check_cocycle_2d", "cocycles.window_cells"),
    ("cli", "check_single_identity_2d", "cocycles.single_identity", "cocycles.window_cells"),
    ("cli", "classify_2d", "cocycles.classify", "cocycles.window_cells"),
    ("cli", "commutator_norm", "groups.commutator_norm", None),
    ("cli", "default_probe_coefficients", "groups.probe_coefficients", None),
    ("cli", "synthesize_window_state", "groups.synthesize", None),
    ("cli", "group_matrix_spectral", "groups.group_matrix_spectral", None),
    ("cli", "group_action_grid", "groups.spectral_check", None),
    ("cli", "project_to_window", "groups.spectral_check", None),
    ("cli", "eigenrelation_check", "groups.eigenrelation", None),
    ("groups", "twisted_analysis", "grid.transform", "grid.transforms"),
    ("groups", "twisted_synthesis", "grid.transform", "grid.transforms"),
    ("cli", "multiplicity_map", "tiling.multiplicity_map", "tiling.samples"),
    ("cli", "tiling_verdict", "tiling.verdict", None),
    ("cli", "emit_tiling_svg", "tiling.svg", None),
    ("cli", "build_density", "diffraction.build_density", "diffraction.density_terms"),
    ("cli", "eval_direct", "diffraction.eval", None),
    ("cli", "eval_diffraction", "diffraction.eval", None),
    ("cli", "emit_diffraction_svg", "diffraction.svg", None),
]

GRID_ACTIONS = "groups.grid_actions"
ARTIFACT_BYTES = "cli.artifact_bytes"
JOB = "cli.job"


def _count(metric, args, result) -> int:
    """Work done by one call, in the unit of its count metric."""
    if metric == "model.points":
        return int(result.shape[0])
    if metric == "exponentials.gram_entries":
        return int(result.entries.size)
    if metric == "cocycles.window_cells":
        return int(args[0].window.cardinality)
    if metric == "grid.transforms":
        return 1
    if metric == "tiling.samples":
        return int(result.counts.size)
    if metric == "diffraction.density_terms":
        return len(result.weights)
    raise KeyError(metric)


def metric_units() -> dict:
    """Every per-layer metric the tracer yields, with its unit."""
    times = {f"{name}_s" for _, _, name, _ in WRAPS} | {"cli.self_s"}
    counts = {metric for _, _, _, metric in WRAPS if metric} | {GRID_ACTIONS}
    units = {name: "s" for name in sorted(times)}
    units.update({name: "count" for name in sorted(counts)})
    units[ARTIFACT_BYTES] = "bytes"
    return units


class Tracer:
    """Records spans (name, start, end, parent, job) and per-job counts."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = {}
        self.names: dict = {}
        self.job = -1
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, fn, name, metric):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.job)
            if metric:
                self.counts[self.job][metric] += _count(metric, args, result)
            return result

        return traced

    def _wrap_action_factory(self, factory):
        """grid_group_action returns a closure; count the calls into it."""

        def traced_factory(*args, **kwargs):
            act = factory(*args, **kwargs)

            def counted(state):
                self.counts[self.job][GRID_ACTIONS] += 1
                return act(state)

            return counted

        return traced_factory

    def install(self, package) -> None:
        modules = {name: getattr(package, name) for name in ("cli", "exponentials", "cocycles", "groups")}
        originals = {(m, attr): getattr(modules[m], attr) for m, attr, _, _ in WRAPS}
        for module, attr, name, metric in WRAPS:
            self._patch(modules[module], attr, self._wrap(originals[(module, attr)], name, metric))
        factory = modules["cli"].grid_group_action
        self._patch(modules["cli"], "grid_group_action", self._wrap_action_factory(factory))

    def _patch(self, module, attr, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def run_job(self, job_id: int, name: str, fn):
        """Run fn() as the root span of job `job_id`, a run of job `name`."""
        self.job = job_id
        self.names[job_id] = name
        self.counts[job_id] = Counter()
        try:
            return self._wrap(fn, JOB, None)()
        finally:
            self.job = -1

    def add_count(self, job_id: int, metric: str, value: int) -> None:
        self.counts[job_id][metric] += value

    def job_metrics(self) -> dict:
        """Per job: inclusive time per span name, job self time, counts.

        cli.self_s is the job span minus its child spans: the time spent in
        cli itself, formatting and writing artifacts.
        """
        jobs = {job: {m: float(v) for m, v in c.items()} for job, c in self.counts.items()}
        for name, start, end, parent, job in self.spans:
            if job < 0:
                continue
            metrics = jobs[job]
            if name == JOB:
                metrics["cli.self_s"] = metrics.get("cli.self_s", 0.0) + (end - start)
                continue
            key = f"{name}_s"
            metrics[key] = metrics.get(key, 0.0) + (end - start)
            if self.spans[parent][0] == JOB:
                metrics["cli.self_s"] = metrics.get("cli.self_s", 0.0) - (end - start)
        return jobs

    def layer_metrics(self) -> dict:
        """Every per-layer metric as an average over the jobs of one round.

        A job's value is its median over the run's repetitions of that job,
        0 where it does not touch the layer; each job of the round weighs
        once, so the times of a job's top layers and cli.self_s add up to
        the mean job time.
        """
        repeats: dict = {}
        for job, metrics in self.job_metrics().items():
            repeats.setdefault(self.names[job], []).append(metrics)
        out = {}
        for metric, unit in metric_units().items():
            medians = [statistics.median(m.get(metric, 0.0) for m in runs)
                       for runs in repeats.values()]
            out[metric] = {"value": statistics.fmean(medians), "unit": unit}
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span, then one per job with its counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent, "job": job}) + "\n")
            for job, counts in self.counts.items():
                fh.write(json.dumps({"job": job, "name": self.names[job],
                                     "counts": dict(counts)}) + "\n")
