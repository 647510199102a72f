"""Workload definitions: a workload seed becomes a list of ``claw run`` config texts.

A workload is a fixed list of job *slots*.  A slot fixes the shape of a job
(experiment kind, flux, particle count, step size, sample times, orders,
viscosity); only the initial data vary with the seed.  Each slot draws its
data from a small pool of recorded variants, so every job a seed can produce
has a reference table in ``reference.json`` (see ``bench_check.py``), and two
seeds always give the same job shapes and the same work counts.

``pool()`` lists every config a workload can produce; ``job_list()`` picks
one pass's jobs from it.  The ``smoke`` size keeps each slot's kind but uses
a short time axis, so a pass takes about a second.  Jobs with a contraction
gate keep N = 1024 even at smoke size: the gates of acceptance criteria 1
and 9 are stated at that N, and at N = 128 the viscous scheme's discrete
W_1 ratio reaches 1 + 1.9e-4 on some pairs.  The other kinds use N = 128.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

WORKLOADS = ("inviscid_sweep", "viscous_sweep", "diagnostics_mix")

# the five fluxes of acceptance criterion 1
SWEEP_FLUXES = ("burgers", "concave_quadratic", "cubic", "linear(1)", "linear(-1)")


@dataclass(frozen=True)
class Job:
    slot: str  # job shape; equal across seeds
    text: str  # the config text the program receives

    @property
    def key(self) -> str:
        """Reference-table key: digest of the config text."""
        return hashlib.sha256(self.text.encode()).hexdigest()[:20]

    @property
    def kind(self) -> str:
        return self.text.split("kind = ", 1)[1].split("\n", 1)[0]


@dataclass(frozen=True)
class Slot:
    name: str
    variants: tuple  # config texts; the seed picks one, or `picks` distinct ones
    picks: int = 1


def _config(kind, flux, n, h, t_final, n_times, p_list, extra="", a=None, b=None):
    lines = [
        f"kind = {kind}",
        f"n_particles = {n}",
        f"h = {h}",
        f"t_final = {t_final}",
        f"n_times = {n_times}",
        f"p_list = {p_list}",
    ]
    lines += [line for line in extra.split("\n") if line]
    lines += ["[flux]", f"name = {flux}"]
    for section, spec in (("initial_a", a), ("initial_b", b)):
        if spec is not None:
            lines.append(f"[{section}]")
            lines += [f"{k} = {v}" for k, v in spec.items()]
    return "\n".join(lines) + "\n"


def _random_pair(seed, **keys):
    return {"preset": f"random({seed})", **keys}, {"preset": f"random({seed + 1})", **keys}


def _sweep_variants(kind, flux, h, n, t_final, n_times, first_seed, count, nu=None):
    extra = f"nu = {nu}" if nu is not None else ""
    out = []
    for v in range(count):
        a, b = _random_pair(first_seed + 2 * v)
        out.append(_config(kind, flux, n, h, t_final, n_times, "1 2 3", extra, a, b))
    return tuple(out)


def _inviscid_slots(smoke):
    # N = 1024 and 64 sample times as in criterion 1; each (flux, h) cell
    # runs `picks` distinct random pairs out of a recorded pool of 8
    t_final, n_times, picks, fluxes, steps = (
        (0.5, 9, 1, ("burgers", "linear(-1)"), (0.1,))
        if smoke
        else (2.0, 64, 4, SWEEP_FLUXES, (0.1, 0.01))
    )
    slots = []
    for i, flux in enumerate(fluxes):
        for j, h in enumerate(steps):
            variants = _sweep_variants(
                "contraction_sweep", flux, h, 1024, t_final, n_times, 10000 + 100 * (2 * i + j), 8
            )
            slots.append(Slot(f"contraction_sweep {flux} h={h}", variants, picks))
    return slots


def _viscous_slots(smoke):
    # criterion 9's flux x h x nu grid, weighted toward the cheap h = 0.1
    t_final, n_times = (0.5, 9) if smoke else (2.0, 64)
    # cells: every (flux, nu) cell at h = 0.1 and two cells at h = 0.01;
    # the h = 0.01 jobs stop at t = 1 so that a pass stays near 5 s
    cells = [(flux, 0.1, nu, t_final) for flux in SWEEP_FLUXES for nu in (0.1, 1.0)]
    cells += [("burgers", 0.01, 0.1, t_final / 2), ("concave_quadratic", 0.01, 1.0, t_final / 2)]
    if smoke:
        cells = [("burgers", 0.1, 0.1, t_final), ("cubic", 0.1, 1.0, t_final)]
    slots = []
    for i, (flux, h, nu, t_end) in enumerate(cells):
        variants = _sweep_variants(
            "viscous_contraction", flux, h, 1024, t_end, n_times, 30000 + 100 * i, 4, nu
        )
        slots.append(Slot(f"viscous_contraction {flux} h={h} nu={nu}", variants))
    if not smoke:
        # put one h = 0.01 job mid-pass, so the h = 0.1 jobs, whose median
        # is job_p50_s, are spread through the pass
        slots.insert(5, slots.pop(10))
    return slots


def _wide_span_variants(half_span, t_final, n_times, first_seed):
    # two far-apart clusters: half the mass uniform on a short interval at
    # -half_span, half an atom at +half_span; nu = 0.01 and h = 0.1 give
    # sigma = 0.045, so span/sigma is about 4.5e3 (grid path) at half-span
    # 100 and 4.5e4 (past the grid cutoff, bisection) at half-span 1000
    keys = {"a": -half_span, "b": -half_span + 0.5, "atoms": half_span}
    out = []
    for v in range(4):
        a, b = _random_pair(first_seed + 2 * v, **keys)
        out.append(
            _config(
                "viscous_contraction", "burgers", 1024, 0.1, t_final, n_times, "1 2", "nu = 0.01",
                a, b,
            )
        )
    return tuple(out)


def _diagnostics_slots(smoke):
    n = 128 if smoke else 1024
    entropy = Slot(
        "entropy_residual burgers",
        tuple(
            _config(
                "entropy_residual", "burgers", n, 0.01, 1.0, 17 if smoke else 65, "1", "",
                {"preset": f"random({50000 + v})"},
            )
            for v in range(4)
        ),
    )
    moments = Slot(
        "moment_audit cubic",
        tuple(
            _config(
                "moment_audit", "cubic", n, 0.05, 2.0, 2, "1 2 3", "r_tail = 1.5",
                {"preset": f"random({51000 + v})"},
            )
            for v in range(4)
        ),
    )
    # the rarefaction oracle exists only for uniform(0, 1) data, so this
    # slot has a single variant
    rarefaction = Slot(
        "convergence_study burgers rarefaction",
        (
            _config(
                "convergence_study", "burgers", n, "0.2 0.1 0.05 0.025 0.0125", 1.0, 2, "1 2",
                "", {"preset": "uniform(0, 1)"},
            ),
        ),
    )
    shock = Slot(
        "convergence_study concave_quadratic shock",
        tuple(
            _config(
                "convergence_study", "concave_quadratic", n, "0.3 0.15 0.075 0.0375", 1.0, 2,
                "1 2", "", {"preset": f"dirac({x0})"},
            )
            for x0 in (-0.5, -0.25, 0.25, 0.5)
        ),
    )
    constancy = Slot(
        "classical_constancy burgers",
        tuple(
            _config(
                "classical_constancy", "burgers", n, 0.03125, 1.0, 64, "1 2 3", "",
                {"preset": "uniform(0, 1)"}, {"preset": f"uniform({c}, {1 + c})"},
            )
            for c in (0.25, 0.5, 0.75, 1, 1.5, 2)
        ),
    )
    if smoke:
        # one short grid-path wide-span job; a bisection-path job alone
        # takes seconds
        wide = Slot("viscous_contraction wide span 200", _wide_span_variants(100, 0.1, 2, 52000))
        return [entropy, moments, rarefaction, shock, constancy, wide]
    wide_200 = Slot("viscous_contraction wide span 200", _wide_span_variants(100, 0.2, 3, 52000))
    # one step per trajectory: each bisection-path resample takes ~0.6 s
    wide_2000 = Slot(
        "viscous_contraction wide span 2000", _wide_span_variants(1000, 0.1, 3, 53000)
    )
    # five classical_constancy jobs of ~40 ms sit in the middle of the
    # job-time distribution; spread through the pass, they sample the
    # machine at different moments, which steadies job_p50_s
    return [
        entropy, constancy, moments, constancy, rarefaction, constancy, shock, constancy,
        wide_200, constancy, wide_2000,
    ]


_SLOTS = {
    "inviscid_sweep": _inviscid_slots,
    "viscous_sweep": _viscous_slots,
    "diagnostics_mix": _diagnostics_slots,
}


def slots(workload: str, smoke: bool = False) -> list:
    if workload not in _SLOTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _SLOTS[workload](smoke)


def pool(workload: str, smoke: bool = False) -> list:
    """Every job the workload can produce, for recording references."""
    jobs = {text: Job(s.name, text) for s in slots(workload, smoke) for text in s.variants}
    return list(jobs.values())


def job_list(workload: str, seed: int, smoke: bool = False) -> list:
    """One pass of the workload: the seed picks each slot's variants."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = []
    for s in slots(workload, smoke):
        for text in rng.sample(s.variants, s.picks):
            jobs.append(Job(s.name, text))
    return jobs
