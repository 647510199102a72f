"""Output checks for benchmark jobs, and the reference tables they compare with.

Every job's CSV must pass two checks:

1. The paper's invariant for its kind (``INVARIANTS`` below).
2. A match with the table recorded by ``python3 benchmarks/bench_check.py
   --record`` at the commit that introduced the benchmark.  A reference is
   stored as two projections of each column, the plain sum and a sum with
   fixed weights in [0.5, 1.5].  A table that matches the reference
   entrywise within the column's tolerance matches both projections within
   the summed tolerance; a wrong entry moves both.

Tolerances per column, and why:

* Inviscid tables match up to rounding: relative ``ROUNDING_RTOL`` = 1e-12.
  A W_p value is a sum of at most 2N = 2048 nonnegative terms and a p-th
  root; any reordering of that sum moves it by at most 2N * eps = 4.5e-13
  relative.  The same bound covers the moment sums and the CDF integrals.
* ``classical_constancy`` drifts are pure rounding noise around 0, so they
  match within the absolute criterion-2 gate ``DRIFT_ATOL`` = 1e-12.
* ``entropy_residual`` values are maxima of sums of O(1) terms that largely
  cancel, so they also get the absolute ``RESIDUAL_ATOL`` = 1e-12.
* Viscous tables match within ``heat_resample``'s certified tolerance times
  the step count.  Each resample puts every particle within
  ``HEAT_TOL`` = 1e-10 of the exact smoothed quantile, and the transport-
  collapse and heat steps are both nonexpansive in the sup norm of the
  positions, so two correct programs differ by at most 2 * K * HEAT_TOL per
  trajectory after K steps, and W_p of a pair by twice that.  The ratio
  columns divide this by W_p(0).
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

ROUNDING_RTOL = 1e-12
DRIFT_ATOL = 1e-12
RESIDUAL_ATOL = 1e-12
HEAT_TOL = 1e-10  # claw.viscous.DEFAULT_TOL at the reference commit

# contraction gates of acceptance criteria 1 and 9
INVISCID_GATE = 1e-10
VISCOUS_GATE = 1e-6
# rounding slack of the moment/tail bound comparison: both sides are sums
# of N terms in different orders
BOUND_RTOL = 1e-12


class CheckError(Exception):
    """A job's output failed a check."""


def parse_csv(text: str):
    """(config dict, columns, rows) of a ``claw run`` CSV."""
    config = {}
    lines = text.splitlines()
    body = []
    for line in lines:
        if line.startswith("# config "):
            key, _, value = line[len("# config ") :].partition(" = ")
            config[key] = value
        elif not line.startswith("#"):
            body.append(line)
    if not body:
        raise CheckError("no header row")
    columns = body[0].split(",")
    try:
        rows = [[float(v) for v in line.split(",")] for line in body[1:]]
    except ValueError as exc:
        raise CheckError(f"unparseable row: {exc}") from exc
    if any(len(r) != len(columns) for r in rows):
        raise CheckError("ragged table")
    return config, columns, rows


def _weights(n):
    return [1.0 + 0.5 * math.sin(i + 1.0) for i in range(n)]


def fingerprint(columns, rows) -> dict:
    w = _weights(len(rows))
    fp = {}
    for j, name in enumerate(columns):
        col = [r[j] for r in rows]
        fp[name] = [math.fsum(col), math.fsum(wi * v for wi, v in zip(w, col))]
    return {"rows": len(rows), "columns": fp}


def _steps(config) -> int:
    # steps per trajectory: up to the last sample time, plus the one-step
    # image the last state interpolates toward
    return int(math.floor(float(config["t_final"]) / float(config["h"]) + 1e-12)) + 1


def tolerances(kind, config, columns, rows):
    """Per-column (rtol, atol) for comparing with the reference."""
    out = {}
    for name in columns:
        rtol, atol = ROUNDING_RTOL, 0.0
        if kind == "classical_constancy" and name.startswith("drift"):
            atol = DRIFT_ATOL
        elif kind == "entropy_residual" and name == "residual":
            atol = RESIDUAL_ATOL
        elif kind == "viscous_contraction" and name != "t":
            w_atol = 4.0 * _steps(config) * HEAT_TOL
            if name.startswith("ratio"):
                w0 = rows[0][columns.index("w" + name[len("ratio") :])]
                atol = w_atol / w0 if w0 > 0 else math.inf
            else:
                atol = w_atol
        out[name] = (rtol, atol)
    return out


def compare(ref: dict, kind, config, columns, rows):
    if list(ref["columns"]) != columns:
        raise CheckError(f"columns {columns} differ from the reference {list(ref['columns'])}")
    if ref["rows"] != len(rows):
        raise CheckError(f"{len(rows)} rows, the reference has {ref['rows']}")
    w = _weights(len(rows))
    tols = tolerances(kind, config, columns, rows)
    got = fingerprint(columns, rows)["columns"]
    for j, name in enumerate(columns):
        rtol, atol = tols[name]
        allowed = [rtol * abs(r[j]) + atol for r in rows]
        bounds = [math.fsum(allowed), math.fsum(wi * a for wi, a in zip(w, allowed))]
        for proj, (g, e, b) in enumerate(zip(got[name], ref["columns"][name], bounds)):
            if not abs(g - e) <= b:
                raise CheckError(
                    f"column {name!r} projection {proj} is {g!r}, reference {e!r} "
                    f"(allowed {b:.3g})"
                )


def _ratios(columns, rows):
    return [r[j] for r in rows for j, c in enumerate(columns) if c.startswith("ratio")]


def _check_contraction(gate):
    def check(columns, rows):
        worst = max(_ratios(columns, rows))
        if not worst <= 1.0 + gate:
            raise CheckError(f"worst W_p(t)/W_p(0) = {worst!r} exceeds 1 + {gate:g}")
        return worst

    return check


def _check_moments(columns, rows):
    col = {c: j for j, c in enumerate(columns)}
    for r in rows:
        for value, bound in (("moment", "moment_bound"), ("tail", "tail_bound")):
            v, b = r[col[value]], r[col[bound]]
            if not v <= b + BOUND_RTOL * abs(b):
                raise CheckError(f"{value} {v!r} exceeds its bound {b!r} at t={r[col['t']]}")


def _check_drift(columns, rows):
    worst = max(r[j] for r in rows for j, c in enumerate(columns) if c.startswith("drift"))
    if not worst <= DRIFT_ATOL:
        raise CheckError(f"W_p drift {worst!r} exceeds {DRIFT_ATOL:g}")


def _check_w1_identity(columns, rows):
    if "w1_error" not in columns:
        return
    i, j = columns.index("l1_error"), columns.index("w1_error")
    for r in rows:
        if not abs(r[i] - r[j]) <= ROUNDING_RTOL * max(1.0, abs(r[i])):
            raise CheckError(f"L1 error {r[i]!r} and W1 error {r[j]!r} differ")


INVARIANTS = {
    "contraction_sweep": _check_contraction(INVISCID_GATE),
    "viscous_contraction": _check_contraction(VISCOUS_GATE),
    "moment_audit": _check_moments,
    "classical_constancy": _check_drift,
    "convergence_study": _check_w1_identity,
    "entropy_residual": lambda columns, rows: None,
}


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["tables"]


def check_output(job, text: str, references: dict):
    """Check one job's CSV; returns the worst contraction ratio or None.
    Raises CheckError on any miss."""
    config, columns, rows = parse_csv(text)
    if not rows:
        raise CheckError("empty table")
    kind = config.get("kind")
    if kind != job.kind:
        raise CheckError(f"table is of kind {kind!r}, expected {job.kind!r}")
    worst = INVARIANTS[kind](columns, rows)
    ref = references.get(job.key)
    if ref is None:
        raise CheckError(f"no reference table for job {job.key} ({job.slot})")
    compare(ref, kind, config, columns, rows)
    return worst


def _record(out_path):
    """Run every job any seed can produce and store its fingerprint."""
    import bench_jobs

    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    import claw.cli

    work = os.path.join(root, ".bench_build", "benchmarks", "record")
    os.makedirs(work, exist_ok=True)
    cfg_path = os.path.join(work, "job.cfg")
    csv_path = os.path.join(work, "job.csv")
    tables = {}
    for workload in bench_jobs.WORKLOADS:
        for smoke in (True, False):
            for job in bench_jobs.pool(workload, smoke):
                with open(cfg_path, "w", encoding="utf-8") as fh:
                    fh.write(job.text)
                if claw.cli.main(["run", cfg_path, "--set", f"output={csv_path}"]) != 0:
                    raise SystemExit(f"job {job.slot} failed:\n{job.text}")
                with open(csv_path, encoding="utf-8") as fh:
                    config, columns, rows = parse_csv(fh.read())
                INVARIANTS[job.kind](columns, rows)
                tables[job.key] = {"slot": job.slot, **fingerprint(columns, rows)}
                print(f"recorded {workload} {job.slot} {job.key}", flush=True)
    # one table per line, so a rerecord shows as a readable diff
    lines = [f"{json.dumps(key)}: {json.dumps(table)}" for key, table in tables.items()]
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"claw_version": {json.dumps(claw.__version__)}, "tables": {{\n')
        fh.write(",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 benchmarks/bench_check.py --record")
    _record(REFERENCE_PATH)
