"""Benchmark worker: one client running ``claw run`` jobs in a closed loop.

Started by ``run.py`` in a fresh interpreter with single-threaded BLAS, as

    python3 benchmarks/bench_worker.py MANIFEST.json

where the manifest holds the job config texts, the run length and the trace
flag.  Each job is ``claw.cli.main(["run", cfg, "--set", "output=..."])``
done in-process, so config parsing, the experiment and CSV emission all
count.  Jobs run one at a time; a pass is the whole job list.  Outputs are
checked after each pass, outside the timed region.  The last line of
standard output is a JSON summary for ``run.py``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

import bench_check
import bench_jobs
from bench_trace import Tracer

# a run stops starting passes at this age even below the minimum pass
# count, so it ends within the benchmark's 180 s limit
HARD_STOP_S = 120.0


class Tally:
    """Attempts, failures and the worst contraction ratio per kind."""

    def __init__(self, references):
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.worst_ratio = {}
        self._verdicts = {}  # (job key, csv text) -> error or None

    def record(self, job, text, error):
        self.attempted += 1
        if error is None and text is not None:
            verdict = self._verdicts.get((job.key, text))
            if verdict is None:
                try:
                    worst = bench_check.check_output(job, text, self.references)
                    verdict = ("ok", worst)
                except bench_check.CheckError as exc:
                    verdict = ("fail", str(exc))
                self._verdicts[(job.key, text)] = verdict
            if verdict[0] == "fail":
                error = verdict[1]
            elif verdict[1] is not None:
                self.worst_ratio[job.kind] = max(self.worst_ratio.get(job.kind, 0.0), verdict[1])
        if error is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{job.slot}: {error}")


def prepare(jobs, workdir, tag):
    """Write each job's config text; return (config path, output path) pairs."""
    files = []
    for i, job in enumerate(jobs):
        cfg = os.path.join(workdir, f"{tag}-{i:03d}.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(job.text)
        files.append((cfg, os.path.join(workdir, f"{tag}-{i:03d}.csv")))
    return files


def run_pass(jobs, files, tracer=None):
    """Run every job once; returns (pass wall s, per-job s, per-job error)."""
    import claw.cli

    job_s, errors = [], []
    start = time.perf_counter()
    for i, (cfg, out) in enumerate(files):
        if tracer is not None:
            tracer.job = f"{tracer.pass_no}.{i}"
        t0 = time.perf_counter()
        try:
            code = claw.cli.main(["run", cfg, "--set", f"output={out}"])
            error = None if code == 0 else f"exit code {code}"
        except (Exception, SystemExit) as exc:  # a job that raises is a failed job
            error = f"raised {type(exc).__name__}: {exc}"
        job_s.append(time.perf_counter() - t0)
        errors.append(error)
    return time.perf_counter() - start, job_s, errors


def read_outputs(files, errors):
    texts = []
    for (_cfg, out), error in zip(files, errors):
        text = None
        if error is None:
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(out)
        texts.append(text)
    return texts


def measure(manifest):
    """Warm up, then run passes for the manifest's seconds."""
    jobs = [bench_jobs.Job(**j) for j in manifest["jobs"]]
    warmup = [bench_jobs.Job(**j) for j in manifest["warmup"]]
    workdir, seconds, trace = manifest["workdir"], manifest["seconds"], manifest["trace"]
    tally = Tally(bench_check.load_reference())

    # the warm-up pass loads lazy imports and library caches; its outputs
    # are checked like any other
    warm_files = prepare(warmup, workdir, "warm")
    _, _, errors = run_pass(warmup, warm_files)
    for job, text, error in zip(warmup, read_outputs(warm_files, errors), errors):
        tally.record(job, text, error)

    files = prepare(jobs, workdir, "job")
    tracer = Tracer() if trace else None
    untraced, traced = [], []
    min_passes = 4 if trace else 3
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced passes so that drift
        # on the machine hits both alike
        tracing = trace and len(traced) < len(untraced)
        if tracing:
            tracer.begin_pass()
            with tracer.installed():
                wall, job_s, errors = run_pass(jobs, files, tracer)
        else:
            wall, job_s, errors = run_pass(jobs, files)
        csv_bytes = sum(os.path.getsize(out) for (_cfg, out), e in zip(files, errors) if e is None)
        for job, text, error in zip(jobs, read_outputs(files, errors), errors):
            tally.record(job, text, error)
        record = {"wall_s": wall, "job_s": job_s}
        if tracing:
            record["layers"] = tracer.pass_metrics(wall, csv_bytes)
            traced.append(record)
        else:
            untraced.append(record)
        elapsed = time.perf_counter() - start
        done = untraced + traced
        if elapsed > HARD_STOP_S:
            break
        expected = statistics.median(p["wall_s"] for p in done)
        if len(done) >= min_passes and elapsed + expected > seconds:
            break

    result = {
        "untraced": untraced,
        "traced": traced,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "worst_ratio": tally.worst_ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if tracer is not None:
        tracer.dump(os.path.join(workdir, "trace.jsonl"))
    return result


def _versions():
    import numpy
    import scipy

    import claw

    return {"claw": claw.__version__, "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv):
    with open(argv[0], encoding="utf-8") as fh:
        manifest = json.load(fh)
    result = measure(manifest)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
