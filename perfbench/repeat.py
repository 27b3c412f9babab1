"""Repeat the benchmark over seeds and summarise each metric.

    python3 perfbench/repeat.py --workload groups-sweep --seeds 1-10
    python3 perfbench/repeat.py --workload command-mix --seeds 1 --trace 1

Runs perfbench/run.py once per seed, one run at a time, from the root of
the checkout, and prints a Markdown table: for --trace 0 the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median of every end-to-end metric; for --trace 1 the values
of the per-layer metrics.  Each run's JSON line is appended to --log.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log", type=Path, default=ROOT / ".perfbench_runs" / "repeat.jsonl")
    args = parser.parse_args()

    args.log.parent.mkdir(exist_ok=True)
    results = []
    for seed in _seeds(args.seeds):
        result = run_once(args.workload, seed, args.seconds, args.trace)
        with open(args.log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                 "trace": args.trace, **result}) + "\n")
        results.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}", file=sys.stderr, flush=True)

    names = list(results[0]["metrics"])
    if len(results) == 1:
        print("| metric | value | unit |\n|---|---|---|")
        for name in names:
            m = results[0]["metrics"][name]
            print(f"| `{name}` | {m['value']:.6g} | {m['unit']} |")
        return
    print("| metric | median | Q1 | Q3 | spread | unit |\n|---|---|---|---|---|---|")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        print(f"| `{name}` | {med:.4g} | {q1:.4g} | {q3:.4g} | "
              f"{(q3 - q1) / med:.3f} | {results[0]['metrics'][name]['unit']} |")


if __name__ == "__main__":
    main()
