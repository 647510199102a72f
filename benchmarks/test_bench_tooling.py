"""Tests of the benchmark's own tooling, on the smoke size of each workload.

Run with ``PYTHONPATH=src python -m pytest benchmarks``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import bench_check
import bench_jobs
import bench_worker
from bench_trace import PER_LAYER, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _smoke_jobs(seed=1):
    return [job for w in bench_jobs.WORKLOADS for job in bench_jobs.job_list(w, seed, smoke=True)]


def _run(jobs, workdir, tracer=None):
    files = bench_worker.prepare(jobs, str(workdir), "job")
    if tracer is None:
        _, _, errors = bench_worker.run_pass(jobs, files)
    else:
        tracer.begin_pass()
        with tracer.installed():
            wall, _, errors = bench_worker.run_pass(jobs, files, tracer)
    assert errors == [None] * len(jobs)
    texts = bench_worker.read_outputs(files, errors)
    if tracer is not None:
        return texts, tracer.pass_metrics(wall, sum(len(t.encode()) for t in texts))
    return texts


def _claw_bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "claw" or name.startswith("claw.")
        for attr, value in vars(module).items()
    }


def test_traced_job_writes_identical_csv_and_restores_wrappers(tmp_path):
    jobs = _smoke_jobs()
    plain = _run(jobs, tmp_path)
    before = _claw_bindings()
    tracer = Tracer()
    traced, layers = _run(jobs, tmp_path, tracer)
    assert traced == plain
    after = _claw_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # the wrappers were really in place: every layer recorded spans
    assert layers["viscous.heat_resample.calls"] > 0
    assert layers["entropy.residuals.calls"] > 0
    assert layers["wasserstein.w1_via_cdf.self_s"] > 0
    assert set(layers) == set(PER_LAYER) - {"trace.overhead_frac"}


@pytest.mark.parametrize("workload", bench_jobs.WORKLOADS)
def test_second_seed_gives_same_shapes_and_work_counts(workload, tmp_path):
    first = bench_jobs.job_list(workload, 1, smoke=True)
    second = bench_jobs.job_list(workload, 2, smoke=True)
    assert [j.slot for j in first] == [j.slot for j in second]
    counts = []
    for jobs in (first, second):
        _, layers = _run(jobs, tmp_path, Tracer())
        counts.append({k: layers[k] for k in ("scheme.steps", "viscous.heat_resample.calls")})
    assert counts[0] == counts[1]
    assert counts[0]["scheme.steps"] > 0
    if workload == "inviscid_sweep":
        assert counts[0]["viscous.heat_resample.calls"] == 0


def test_full_size_seeds_differ_only_in_data():
    for workload in bench_jobs.WORKLOADS:
        jobs = [bench_jobs.job_list(workload, seed) for seed in range(6)]
        assert len({tuple(j.slot for j in js) for js in jobs}) == 1
        assert len({tuple(j.text for j in js) for js in jobs}) > 1
        keys = {j.key for j in bench_jobs.pool(workload)}
        assert all(j.key in keys for js in jobs for j in js)


def test_every_output_is_checked_against_its_reference(tmp_path):
    refs = bench_check.load_reference()
    jobs = _smoke_jobs(seed=3)
    for job, text in zip(jobs, _run(jobs, tmp_path)):
        bench_check.check_output(job, text, refs)


def _perturb(text, column, delta):
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    j = lines[header].split(",").index(column)
    row = lines[-1].split(",")
    row[j] = repr(float(row[j]) + delta)
    lines[-1] = ",".join(row)
    return "\n".join(lines) + "\n"


def test_checks_catch_wrong_tables(tmp_path):
    refs = bench_check.load_reference()
    job = bench_jobs.job_list("inviscid_sweep", 1, smoke=True)[0]
    (text,) = _run([job], tmp_path)
    # far below any plausible bug, far above rounding
    with pytest.raises(bench_check.CheckError, match="projection"):
        bench_check.check_output(job, _perturb(text, "w2", 1e-9), refs)
    with pytest.raises(bench_check.CheckError, match="exceeds"):
        bench_check.check_output(job, _perturb(text, "ratio1", 1e-6), refs)
    with pytest.raises(bench_check.CheckError, match="no reference"):
        other = bench_jobs.Job(job.slot, job.text.replace("random(", "random(9"))
        bench_check.check_output(other, text, refs)


def _bench(args):
    cmd = [sys.executable, os.path.join(ROOT, "benchmarks", "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    args = ["--workload", "diagnostics_mix", "--seed", "5", "--seconds", "1", "--trace", trace]
    proc = _bench(args + ["--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert "# provenance" in proc.stdout


def test_command_fails_without_the_program(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark's own files
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "benchmarks"),
        tmp_path / "benchmarks",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    cmd = [sys.executable, "benchmarks/run.py", "--workload", "inviscid_sweep", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
