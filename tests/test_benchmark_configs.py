"""Every config the benchmark writes loads, as the job's command.

perfbench/jobs.py builds the configs of the benchmark's workloads; a
stricter config schema must never refuse one of them unnoticed.  The jobs
module is loaded from its file, as tests/test_trace_names.py loads
spans.py, with perfbench/ on sys.path for its `oracles` import.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from spectralbox.config import parse_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_jobs():
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_jobs", PERFBENCH / "jobs.py"
        )
        module = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up by name
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


WORKLOADS = _load_jobs().WORKLOADS


@pytest.mark.parametrize("seed", [41, 42, 43])
@pytest.mark.parametrize("workload", ["groups-sweep", "command-mix"])
def test_every_job_config_loads_as_its_command(workload, seed):
    jobs = WORKLOADS[workload](seed)
    assert jobs
    for job in jobs:
        # the text Job.write_config writes
        cfg = parse_config(json.dumps(job.config, indent=1) + "\n")
        assert cfg.command == job.command, job.name
