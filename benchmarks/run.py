"""Benchmark of ``claw run``, end to end and layer by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  The workloads are ``inviscid_sweep``,
``viscous_sweep`` and ``diagnostics_mix`` (see README.md).  The seed
generates the jobs' config texts.  One fresh worker process with
single-threaded BLAS runs the jobs one at a time for about S seconds and
checks every output.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s``,
``job_p50_s``, ``setup_s``, ``peak_rss_mb`` and ``pass_frac``.  With
``--trace 1`` the worker alternates untraced and traced passes and the
metrics are the per-layer ones.  Human-readable lines, with the machine and
provenance facts, come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller record goes to ``.bench_build/benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_jobs  # noqa: E402
from bench_trace import PER_LAYER  # noqa: E402

SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
UNITS = {
    "calls": "count",
    "self_s": "s",
    "steps": "count",
    "breakpoints": "count",
    "pieces": "count",
    "particles": "count",
    "span_over_sigma_max": "ratio",
    "levels": "count",
    "csv_bytes": "bytes",
    "overhead_frac": "fraction",
    "coverage_frac": "fraction",
}


def _fail(message):
    print(f"benchmark error: {message}", file=sys.stderr)
    return 2


def _run_child(cmd, env, cwd, timeout):
    """Run a child to completion, killing it on timeout.

    Returns (exit code or None on timeout, stdout, stderr)."""
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return None, out, err
    return proc.returncode, out, err


def _getconf(name):
    if shutil.which("getconf") is None:
        return None
    code, out, _ = _run_child(["getconf", name], None, None, 10)
    value = out.strip() if code == 0 else ""
    return int(value) if value.isdigit() else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")) or shutil.which("git") is None:
        return None
    code, out, _ = _run_child(["git", "rev-parse", "HEAD"], None, root, 10)
    return out.strip() if code == 0 else None


def _source_digest(root):
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "claw", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return digest.hexdigest()


def provenance(root, args, versions):
    try:
        ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):
        ram = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "ram_bytes": ram,
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "claw": versions.get("claw"),
        "blas_threads": THREAD_ENV,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def _job_times(result):
    return sorted(t for p in result["untraced"] for t in p["job_s"])


def end_to_end(result, setup_times):
    attempted = result["attempted"]
    return {
        "wall_s": (_median([p["wall_s"] for p in result["untraced"]]), "s"),
        # pooled over the run's passes: the median of every job's time
        "job_p50_s": (_median(_job_times(result)), "s"),
        "setup_s": (_median(setup_times), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "pass_frac": ((attempted - result["failed"]) / attempted, "fraction"),
    }


def per_layer(result):
    traced = result["traced"]
    out = {}
    for name in PER_LAYER:
        metric = name.rpartition(".")[2]
        if name == "trace.overhead_frac":
            untraced = _median([p["wall_s"] for p in result["untraced"]])
            value = _median([p["wall_s"] for p in traced]) / untraced - 1.0
        elif metric in ("self_s", "coverage_frac"):
            value = _median([p["layers"][name] for p in traced])
        else:
            # a count is the same in every pass; median_low keeps it whole
            value = statistics.median_low([p["layers"][name] for p in traced])
        out[name] = (value, UNITS[metric])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bench_jobs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny job sizes, for tests")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        return _fail("--seconds must be positive")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "claw", "__init__.py")):
        return _fail(f"no claw sources under {src}; run from the root of a checkout")

    jobs = bench_jobs.job_list(args.workload, args.seed, args.smoke)
    warmup = bench_jobs.job_list(args.workload, args.seed, smoke=True)
    base = os.path.join(root, ".bench_build", "benchmarks")
    workdir = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src, **THREAD_ENV)
    try:
        setup_times = []
        if not args.trace:
            cfgs = []
            for i, job in enumerate(jobs):
                cfgs.append(os.path.join(workdir, f"setup-{i:03d}.cfg"))
                with open(cfgs[-1], "w", encoding="utf-8") as fh:
                    fh.write(job.text)
            probe = [sys.executable, os.path.join(HERE, "bench_setup.py"), *cfgs]
            for _ in range(1 if args.smoke else SETUP_PROBES):
                code, out, err = _run_child(probe, env, root, 60)
                if code != 0:
                    return _fail(f"set-up probe failed: {err.strip()[-2000:]}")
                setup_times.append(float(out.strip().splitlines()[-1]))

        manifest = {
            "jobs": [{"slot": j.slot, "text": j.text} for j in jobs],
            "warmup": [{"slot": j.slot, "text": j.text} for j in warmup],
            "workdir": workdir,
            "seconds": args.seconds,
            "trace": bool(args.trace),
        }
        manifest_path = os.path.join(workdir, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        worker = [sys.executable, os.path.join(HERE, "bench_worker.py"), manifest_path]
        code, out, err = _run_child(worker, env, root, WORKER_TIMEOUT_S)
        if code != 0:
            return _fail(f"worker exited with {code}: {err.strip()[-2000:]}")
        result = json.loads(out.strip().splitlines()[-1])
        if args.trace:
            os.replace(
                os.path.join(workdir, "trace.jsonl"),
                os.path.join(base, f"{args.workload}.trace.jsonl"),
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer(result) if args.trace else end_to_end(result, setup_times)
    facts = provenance(root, args, result["versions"])
    attempted, failed = result["attempted"], result["failed"]
    print(f"# provenance {json.dumps(facts)}")
    print(f"# jobs per pass {len(jobs)}, untraced passes {len(result['untraced'])}, "
          f"traced passes {len(result['traced'])}")
    print(f"# attempted {attempted}, failed {failed}, fail_frac {failed / attempted:.6g}")
    times = _job_times(result)
    tail = ""
    # the highest of p90 and p99 that has at least ten samples beyond it
    for pct in (99, 90):
        if len(times) * (100 - pct) >= 1000:
            tail = f", p{pct} {times[len(times) * pct // 100]:.6g} s"
            break
    if times:
        print(f"# untraced job times: {len(times)} samples, p50 {_median(times):.6g} s{tail}")
    for kind, worst in sorted(result["worst_ratio"].items()):
        print(f"# worst_ratio {kind} {worst!r}")
    for message in result["failures"]:
        print(f"# FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(summary, provenance=facts, worst_ratio=result["worst_ratio"],
                  fail_frac=failed / attempted, failures=result["failures"],
                  passes={"untraced": result["untraced"], "traced": result["traced"]},
                  setup_times=setup_times, finished=time.strftime("%Y-%m-%dT%H:%M:%S"))
    results = os.path.join(base, "results")
    os.makedirs(results, exist_ok=True)
    tag = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
