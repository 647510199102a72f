"""Every benchmark-pool job, both sizes, against its recorded reference.

The benchmark's own tests check one seed's smoke jobs; this runs every
config any seed can pick, in process, through ``bench_check.check_output``
with ``benchmarks/reference.json``.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

import bench_check  # noqa: E402
import bench_jobs  # noqa: E402
import bench_worker  # noqa: E402


@pytest.mark.parametrize("workload", bench_jobs.WORKLOADS)
def test_every_pool_config_matches_its_reference(workload, tmp_path):
    refs = bench_check.load_reference()
    for smoke in (True, False):
        jobs = bench_jobs.pool(workload, smoke)
        files = bench_worker.prepare(jobs, str(tmp_path), "smoke" if smoke else "full")
        _, _, errors = bench_worker.run_pass(jobs, files)
        assert errors == [None] * len(jobs)
        for job, text in zip(jobs, bench_worker.read_outputs(files, errors)):
            bench_check.check_output(job, text, refs)
