"""spectralbox benchmark: one workload, closed loop, one process.

    python3 perfbench/run.py --workload groups-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  Each job runs `spectralbox.cli.main` in process on a config the
benchmark wrote, into a temporary output directory that is removed once
its outputs have been checked.  The next job starts when the previous one
ends.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half of the
run time untraced and half traced, and reports the per-layer metrics and
the tracing overhead; the spans go to .perfbench_runs/.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# one thread: the box has two cores, and the closed loop is one client
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SETUP_ROUNDS = 3


def _import_program():
    """Import spectralbox from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "spectralbox" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source at {src / 'spectralbox'}")
    sys.path.insert(0, str(src))
    import spectralbox
    import spectralbox.cli

    if Path(spectralbox.__file__).resolve().parent != (src / "spectralbox").resolve():
        sys.exit(f"perfbench: spectralbox imported from {spectralbox.__file__}")
    return spectralbox


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs jobs of one workload and keeps the tallies of a run."""

    def __init__(self, cli, seed: int, workdir: Path):
        self.cli = cli
        self.jobs = []
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.configs = {}

    def write_configs(self, jobs) -> None:
        self.jobs = jobs
        for i, job in enumerate(jobs):
            path = self.workdir / f"config-{i:02d}.yaml"
            job.write_config(path)
            self.configs[job.name] = path

    def run(self, job, tracer=None, job_id=0):
        """One job: returns (wall seconds, output bytes)."""
        out = Path(tempfile.mkdtemp(prefix="job-", dir=self.workdir))
        argv = [job.command, "--config", str(self.configs[job.name]),
                "--out", str(out), "--seed", str(self.seed)]
        start = time.perf_counter()
        try:
            if tracer is None:
                status = self.cli.main(argv)
            else:
                status = tracer.run_job(job_id, job.name, lambda: self.cli.main(argv))
        except Exception as exc:  # a crash is a failed job, not a dead run
            status = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.attempted += 1
        problems = []
        if status != job.status:
            problems.append(f"exit status {status!r}, expected {job.status}")
        else:
            try:
                problems = job.check(out)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        size = sum(p.stat().st_size for p in out.iterdir())
        shutil.rmtree(out)
        if problems:
            self.failed += 1
            print(f"perfbench: {job.name} failed: {'; '.join(problems)}", file=sys.stderr)
        return elapsed, size

    def loop(self, seconds: float, tracer=None):
        """Whole rounds of the jobs until `seconds` have passed."""
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            for job in self.jobs:
                elapsed, size = self.run(job, tracer, len(times))
                if tracer is not None:
                    tracer.add_count(len(times), "cli.artifact_bytes", size)
                times.append(elapsed)
        return times


def _value(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    package = _import_program()
    import jobs as workloads
    import spans

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - PROCESS_START

    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        # set-up: configs plus one untimed warm-up job of each command,
        # repeated so that its median is steady
        runner = Runner(package.cli, args.seed, workdir)
        rounds = []
        for _ in range(SETUP_ROUNDS):
            start = time.perf_counter()
            runner.write_configs(workloads.WORKLOADS[args.workload](args.seed))
            first = {}
            for job in runner.jobs:
                first.setdefault(job.command, job)
            for job in first.values():
                runner.run(job)
            rounds.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(rounds)

        # a traced run splits its time: untraced first, then traced
        loop_s = args.seconds if args.trace == 0 else args.seconds / 2
        times = runner.loop(loop_s)
        jobs_per_s = len(times) / sum(times)
        if args.trace == 0:
            metrics = {
                "setup_s": _value(setup_s, "s"),
                "jobs_per_s": _value(jobs_per_s, "1/s"),
                "job_s.p50": _value(statistics.median(times), "s"),
                "peak_rss_mb": _value(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        else:
            tracer = spans.Tracer()
            tracer.install(package)
            try:
                traced = runner.loop(loop_s, tracer)
            finally:
                tracer.uninstall()
            tracer.write(runs / f"trace-{args.workload}-{args.seed}.jsonl")
            metrics = tracer.layer_metrics()
            traced_per_s = len(traced) / sum(traced)
            metrics["trace.untraced_jobs_per_s"] = _value(jobs_per_s, "1/s")
            metrics["trace.traced_jobs_per_s"] = _value(traced_per_s, "1/s")
            metrics["trace.overhead"] = _value(jobs_per_s / traced_per_s - 1.0, "ratio")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
