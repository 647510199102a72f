"""Config-driven experiments and CSV emission.

Each experiment kind produces a rectangular ResultTable of floats plus
metadata (config echo, version, seed).  Identical configs give
byte-identical CSV output.  The ``seed`` key seeds nothing: it is only
echoed as ``# seed = ...``; random initial data take their seeds from
their ``random(k)`` presets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import ExperimentConfig, build_initial, parse_preset
from .entropy import entropy_residuals
from .measures import StepCdf, as_step_cdf, moment, tail_moment
from .scheme import (
    decompose_time,
    exact_rarefaction_cdf,
    exact_shock_cdf,
    sh_as_cdf,
    sh_trajectory,
)
from .viscous import viscous_trajectory
from .wasserstein import quantile_staircase, w1_via_cdf, wp_from_staircases, wp_trajectory

__all__ = ["ResultTable", "run_experiment", "emit_csv"]


@dataclass
class ResultTable:
    columns: list
    rows: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row of width {len(row)} does not match {len(self.columns)} columns"
                )
        shape = (len(self.rows), len(self.columns))
        finite = np.isfinite(np.array(self.rows, dtype=float).reshape(shape)).all(axis=1)
        if not finite.all():
            row = self.rows[int(np.argmin(finite))]
            raise ValueError(f"non-finite entry in row {[float(v) for v in row]}")

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])


def _metadata(cfg: ExperimentConfig) -> dict:
    meta = {"claw_version": __version__, "kind": cfg.kind, "seed": str(cfg.seed)}
    for key, value in cfg.raw.items():
        meta[f"config {key}"] = value
    return meta


def _pair_distances(cfg: ExperimentConfig):
    """Sample times and the (T, P) array of W_p, for each time and p,
    between the trajectories of the two initial data: viscous for
    ``viscous_contraction``, inviscid otherwise."""
    times = np.linspace(0.0, cfg.t_final, cfg.n_times)
    a0 = build_initial(cfg.initial_a, cfg.n_particles, "initial_a")
    b0 = build_initial(cfg.initial_b, cfg.n_particles, "initial_b")
    if cfg.kind == "viscous_contraction":
        sa, sb = (viscous_trajectory(x, cfg.flux, cfg.h, cfg.nu, times) for x in (a0, b0))
    else:
        sa, sb = (sh_trajectory(x, cfg.flux, cfg.h, times) for x in (a0, b0))
    return times, wp_trajectory(sa, sb, cfg.p_list)


def _contraction(cfg: ExperimentConfig) -> ResultTable:
    times, w = _pair_distances(cfg)
    ratio = np.divide(w, w[0], out=np.where(w == 0, 1.0, np.inf), where=w[0] > 0)
    pairs = np.stack([w, ratio], axis=2).reshape(times.size, -1)
    cols = ["t"] + [f"{name}{p:g}" for p in cfg.p_list for name in ("w", "ratio")]
    return ResultTable(cols, np.column_stack([times, pairs]).tolist(), _metadata(cfg))


def _classical_constancy(cfg: ExperimentConfig) -> ResultTable:
    times, w = _pair_distances(cfg)
    rows = np.column_stack([times, np.abs(w - w[0])]).tolist()
    cols = ["t"] + [f"drift{p:g}" for p in cfg.p_list]
    return ResultTable(cols, rows, _metadata(cfg))


def _oracle_cdf(cfg: ExperimentConfig, t: float):
    """Closed-form entropy solution for the supported flux/datum pairs."""
    name, args = parse_preset(cfg.initial_a, "initial_a")
    if name == "uniform" and args == (0.0, 1.0) and cfg.flux.name == "burgers":
        return exact_rarefaction_cdf(t)
    if name == "dirac":
        shock = exact_shock_cdf(cfg.flux, t)  # raises for non-admissible fluxes
        return StepCdf(shock.breakpoints + args[0], shock.values)
    preset = cfg.initial_a.get("preset", "random(7)")
    raise ValueError(
        f"no exact oracle for flux {cfg.flux.name!r} with initial datum {preset!r}"
    )


def _convergence_study(cfg: ExperimentConfig) -> ResultTable:
    oracle = _oracle_cdf(cfg, cfg.t_final)
    oracle_stair = quantile_staircase(oracle)
    a0 = build_initial(cfg.initial_a, cfg.n_particles, "initial_a")
    rows = []
    for h in cfg.h_list:
        state = sh_trajectory(a0, cfg.flux, h, [cfg.t_final])[0]
        cdf = as_step_cdf(sh_as_cdf(state))
        l1 = w1_via_cdf(cdf, oracle)
        ws = wp_from_staircases(quantile_staircase(cdf), oracle_stair, cfg.p_list)
        rows.append([h, float(cfg.n_particles), l1] + ws)
    cols = ["h", "n_particles", "l1_error"] + [f"w{p:g}_error" for p in cfg.p_list]
    return ResultTable(cols, rows, _metadata(cfg))


# numpy powers, so a moment or bound that overflows reads inf (or nan) and
# the table rejects it, where a Python float power would raise
@np.errstate(over="ignore", invalid="ignore")
def _moment_audit(cfg: ExperimentConfig) -> ResultTable:
    a0 = build_initial(cfg.initial_a, cfg.n_particles, "initial_a")
    m = cfg.flux.lipschitz_bound
    h = cfg.h
    n_steps = decompose_time(cfg.t_final, h)[0]
    times = h * np.arange(n_steps + 1)
    states = sh_trajectory(a0, cfg.flux, h, times)
    rows = []
    for p in np.array(cfg.p_list):
        prev_moment = prev_tail = None
        for t, state in zip(times, states):
            mom = moment(state.base, p)
            tail = tail_moment(state.base, p, cfg.r_tail)
            if prev_moment is None:
                mom_bound, tail_bound = mom, tail
            else:
                mom_bound = 2.0 ** (p - 1.0) * (prev_moment + (h * m) ** p)
                tail_bound = (1.0 + h * m / (cfg.r_tail - h * m)) ** p * prev_tail
            rows.append([t, p, mom, mom_bound, tail, tail_bound])
            prev_moment = mom
            prev_tail = tail_moment(state.base, p, cfg.r_tail - h * m)
    cols = ["t", "p", "moment", "moment_bound", "tail", "tail_bound"]
    return ResultTable(cols, rows, _metadata(cfg))


def _entropy_residual_table(cfg: ExperimentConfig) -> ResultTable:
    a0 = build_initial(cfg.initial_a, cfg.n_particles, "initial_a")
    times = np.linspace(0.0, cfg.t_final, cfg.n_times)
    states = sh_trajectory(a0, cfg.flux, cfg.h, times)
    pairs = [(t, sh_as_cdf(s)) for t, s in zip(times, states)]
    ks = np.linspace(0.0, 1.0, 11)
    residuals = entropy_residuals(pairs, cfg.flux, ks)
    rows = [[float(k), float(r)] for k, r in zip(ks, residuals)]
    return ResultTable(["k", "residual"], rows, _metadata(cfg))


_RUNNERS = {
    "contraction_sweep": _contraction,
    "viscous_contraction": _contraction,
    "classical_constancy": _classical_constancy,
    "convergence_study": _convergence_study,
    "moment_audit": _moment_audit,
    "entropy_residual": _entropy_residual_table,
}


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Run the configured experiment; deterministic given the config."""
    return _RUNNERS[cfg.kind](cfg)


def emit_csv(table: ResultTable, sink) -> None:
    """Write the table to a text sink: '#' metadata lines, a header row,
    then rows with 17-significant-digit values and plain newlines."""
    for key, value in table.metadata.items():
        sink.write(f"# {key} = {value}\n")
    sink.write(",".join(table.columns) + "\n")
    for row in table.rows:
        sink.write(",".join(f"{v:.17g}" for v in row) + "\n")
