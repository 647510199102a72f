import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import claw.entropy
import claw.measures
from claw.config import build_initial
from claw.entropy import BumpFamily, entropy_residual, entropy_residuals
from claw.fluxes import make_builtin, make_tabulated
from claw.measures import (
    ParticleQuantiles,
    as_step_cdf,
    midpoint_nodes,
    particles_from_cdf,
    quantile_staircase,
)
from claw.scheme import classical_characteristics, exact_shock_cdf, sh_as_cdf, sh_trajectory

concave = make_builtin("concave_quadratic")
burgers = make_builtin("burgers")

N_STATE = 1024
N_TIMES = 129


def shock_states(t_final=1.0, n=N_STATE, n_times=N_TIMES):
    times = np.linspace(0.0, t_final, n_times)
    return [(t, particles_from_cdf(exact_shock_cdf(concave, t), n)) for t in times]


def rarefaction_states(t_final=1.0, n=N_STATE, n_times=N_TIMES):
    times = np.linspace(0.0, t_final, n_times)
    u0 = ParticleQuantiles(midpoint_nodes(n))
    return [(t, classical_characteristics(u0, burgers, t)) for t in times]


def reversed_shock_states(t_final=1.0, n=N_STATE, n_times=N_TIMES):
    fwd = shock_states(t_final, n, n_times)
    return [(t, state) for (t, _), (_, state) in zip(fwd, reversed(fwd))]


@pytest.fixture(scope="module")
def controls():
    return shock_states(), rarefaction_states(), reversed_shock_states()


def test_admissible_shock_passes_all_levels(controls):
    shock, _, _ = controls
    for k in np.linspace(0.0, 1.0, 11):
        assert entropy_residual(shock, concave, float(k)) <= 1e-3


def test_classical_rarefaction_passes_all_levels(controls):
    _, rare, _ = controls
    assert np.all(entropy_residuals(rare, burgers, np.linspace(0.0, 1.0, 11)) <= 1e-3)


def test_reversed_shock_rejected(controls):
    _, _, reversed_ = controls
    worst = np.max(entropy_residuals(reversed_, concave, np.linspace(0.0, 1.0, 11)))
    assert worst > 0.01


def test_interior_shock_bump_sees_strict_dissipation(controls):
    # a mid-level Kruzkov entropy dissipates at rate k(1-k) along the shock,
    # so some bump residual should be clearly negative
    shock, _, _ = controls
    assert entropy_residual(shock, concave, 0.5) < 1e-3


def test_too_few_snapshots_rejected(controls):
    shock, _, _ = controls
    with pytest.raises(ValueError, match="3 snapshots"):
        entropy_residual(shock[:2], concave, 0.5)


def test_nonuniform_times_rejected(controls):
    shock, _, _ = controls
    warped = [shock[0], shock[1], shock[4]]
    with pytest.raises(ValueError, match="uniformly spaced"):
        entropy_residual(warped, concave, 0.5)


def test_level_outside_unit_interval_rejected(controls):
    shock, _, _ = controls
    with pytest.raises(ValueError, match="entropy level"):
        entropy_residual(shock, concave, 1.5)


@pytest.mark.parametrize(
    "ks", [[0.5, 1.5], [-0.1], [float("nan")], [0.2, float("inf")], [[0.5]], 0.5]
)
def test_levels_checked_before_any_geometry(controls, monkeypatch, ks):
    def fail(state):
        raise AssertionError("staircases built before the levels were checked")

    monkeypatch.setattr(claw.measures, "quantile_staircase", fail)
    shock, _, _ = controls
    with pytest.raises(ValueError, match="entropy level"):
        entropy_residuals(shock, concave, ks)


def test_zero_width_x_range_rejected():
    # every snapshot one atom and no padding: the x-bumps had radius 0 and
    # the screen returned NaN with a RuntimeWarning
    states = [(t, ParticleQuantiles([0.0, 0.0])) for t in (0.0, 0.5, 1.0)]
    with pytest.raises(ValueError, match="x-range .* zero width"):
        entropy_residuals(states, burgers, [0.5], BumpFamily(pad_x=0.0))
    # padding widens the same atom into a range the bumps fit
    assert np.all(np.isfinite(entropy_residuals(states, burgers, [0.5], BumpFamily(pad_x=0.1))))


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_centers_t", 0),
        ("n_centers_x", 0),
        ("n_centers_x", 2.0),
        ("radii_x", ()),
        ("radii_x", (-0.4,)),
        ("radii_x", (0.2, 0.6)),
        ("radii_x", 0.4),
        ("radii_t", ()),
        ("radii_t", (0.0,)),
        ("radii_t", (float("nan"),)),
        ("pad_x", float("nan")),
        ("pad_x", -0.1),
        ("pad_x", None),
    ],
)
def test_bad_bump_family_rejected(field, value):
    with pytest.raises(ValueError, match=f"BumpFamily.{field}"):
        BumpFamily(**{field: value})


def test_custom_family_still_detects(controls):
    _, _, reversed_ = controls
    small = BumpFamily(n_centers_t=4, n_centers_x=6, radii_t=(0.5,), radii_x=(0.4,))
    worst = max(
        entropy_residual(reversed_, concave, float(k), grid=small)
        for k in np.linspace(0.0, 1.0, 11)
    )
    assert worst > 0.01


def screen_peak(n_times):
    """tracemalloc peak of screening n_times snapshots of an N = 1024
    Burgers trajectory at 11 levels."""
    a0 = build_initial({"preset": "random(50000)"}, 1024)
    times = np.linspace(0.0, 1.0, n_times)
    states = [(t, sh_as_cdf(s)) for t, s in zip(times, sh_trajectory(a0, burgers, 0.01, times))]
    tracemalloc.start()
    try:
        entropy_residuals(states, burgers, np.linspace(0.0, 1.0, 11))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_screen_memory_does_not_grow_with_bumps():
    # the benchmark's entropy job, 65 snapshots: 1.37 MB, bound 40% above.
    # Blocks padded to their widest staircase peaked at 1.51 MB,
    # (snapshots x pieces) arrays for every bump at 9.9 MB, and the stacked
    # per-bump geometry before them at 78 MB
    assert screen_peak(65) <= 1.9e6


def test_screen_memory_does_not_grow_with_snapshots():
    # only the integrals grow with the snapshots, 4.2 KB each (2 x 11
    # levels x 24 bumps x 8 bytes); a block and its staircases do not:
    # 2.19 MB at 257 snapshots, bound 30% above, where every staircase kept
    # to the end peaked at 10.58 MB and (snapshots x pieces) arrays at 39.1
    peak = screen_peak(257)
    assert peak <= 2.85e6
    # 0.81 MB more than at 65 snapshots; at most 6 KB per extra snapshot
    assert peak - screen_peak(65) <= 1.15e6


# Reference: the screen evaluated the direct way.  The antiderivative is in
# power form, every x-bump's piece weights are stacked, and each level is
# contracted against them in its own pass.

def reference_residuals(states, flux, ks, grid):
    edge = 1.0 - 1.0 + 0.6 - 1.0 / 7.0

    def bump(s):
        return np.maximum(1.0 - s * s, 0.0) ** 3

    def bump_deriv(s):
        return -6.0 * s * np.maximum(1.0 - s * s, 0.0) ** 2

    def antideriv(s):
        s = np.clip(s, -1.0, 1.0)
        return (s - s**3 + 0.6 * s**5 - s**7 / 7.0) + edge

    cdfs = [as_step_cdf(state) for _, state in states]
    width = max(c.breakpoints.size for c in cdfs)
    edges = np.empty((len(cdfs), width))
    levels = np.ones((len(cdfs), width + 1))
    for i, c in enumerate(cdfs):
        m = c.breakpoints.size
        edges[i, :m] = c.breakpoints
        edges[i, m:] = c.breakpoints[-1]
        levels[i, 0] = 0.0
        levels[i, 1 : m + 1] = c.values
    times = np.array([t for t, _ in states])
    x_min, x_max = edges.min() - grid.pad_x, edges.max() + grid.pad_x
    wt = np.full(times.size, times[1] - times[0])
    wt[[0, -1]] *= 0.5
    zero = np.zeros((times.size, 1))
    piece_w, psi_dw = [], []
    for rx_frac in grid.radii_x:
        rx = rx_frac * (x_max - x_min)
        for xc in np.linspace(x_min + rx, x_max - rx, grid.n_centers_x):
            s = (edges - xc) / rx
            full = np.full((times.size, 1), 2.0 * edge * rx)
            piece_w.append(np.diff(np.concatenate([zero, antideriv(s) * rx, full], axis=1)))
            psi_dw.append(np.diff(np.concatenate([zero, bump(s), zero], axis=1)))
    piece_w, psi_dw = np.stack(piece_w), np.stack(psi_dw)
    t_shapes = []
    for rt_frac in grid.radii_t:
        rt = rt_frac * (times[-1] - times[0])
        for tc in np.linspace(times[0], times[-1] - rt, grid.n_centers_t):
            arg = (times - tc) / rt
            t_shapes.append((bump(arg), bump_deriv(arg) / rt))
    out = []
    for k in ks:
        e_int = np.einsum("btp,tp->bt", piece_w, np.abs(levels - k))
        f_vals = np.sign(levels - k) * (flux.value(levels) - flux.value(float(k)))
        f_int = np.einsum("btp,tp->bt", psi_dw, f_vals)
        acc = [
            e_int @ (wt * dpsi) + f_int @ (wt * psi) + e_int[:, 0] * psi[0]
            for psi, dpsi in t_shapes
        ]
        out.append(-np.min(acc))
    return np.array(out)


# the tabulated flux has f(0) = 0.3, so at level 0 the L = 0 piece that the
# screen counts left of the split adds 0 only to rounding
FLUX_CHOICES = [
    *(make_builtin(name) for name in ("burgers", "concave_quadratic", "cubic", "linear")),
    make_tabulated([[0.0, 0.3], [0.5, 0.2], [1.0, 0.55]]),
]


@st.composite
def screened_trajectories(draw):
    """(states, flux) from the three controls or a scheme trajectory of
    random data, small enough for the stacked reference."""
    n = draw(st.integers(min_value=4, max_value=128))
    n_times = draw(st.integers(min_value=3, max_value=33))
    kind = draw(st.sampled_from(["scheme", "atoms", "shock", "rarefaction", "reversed"]))
    if kind == "shock":
        return shock_states(1.0, n, n_times), concave
    if kind == "rarefaction":
        return rarefaction_states(1.0, n, n_times), burgers
    if kind == "reversed":
        return reversed_shock_states(1.0, n, n_times), concave
    flux = draw(st.sampled_from(FLUX_CHOICES))
    if kind == "atoms":
        # a few dyadic sites: positions tie within and across base and next
        n = draw(st.integers(min_value=1, max_value=64))
        sites = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=3))
        picks = draw(st.lists(st.sampled_from(sites), min_size=n, max_size=n))
        a0 = ParticleQuantiles(np.sort(np.asarray(picks, dtype=float) / 4.0))
    else:
        a0 = build_initial({"preset": f"random({draw(st.integers(0, 10**6))})"}, n)
    h = draw(st.sampled_from([0.05, 0.1, 0.25]))
    times = np.linspace(0.0, draw(st.sampled_from([0.5, 1.0, 2.0])), n_times)
    return [(t, sh_as_cdf(s)) for t, s in zip(times, sh_trajectory(a0, flux, h, times))], flux


bump_families = st.just(BumpFamily()) | st.builds(
    BumpFamily,
    n_centers_t=st.integers(1, 6),
    n_centers_x=st.integers(1, 12),
    radii_t=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3).map(tuple),
    radii_x=st.lists(st.floats(0.05, 0.5), min_size=1, max_size=3).map(tuple),
    pad_x=st.floats(0.0, 1.0),
)


@settings(max_examples=60, deadline=None)
@given(screened_trajectories(), bump_families, st.data())
def test_residuals_match_direct_evaluation(trajectory, grid, data):
    states, flux = trajectory
    # levels 0 and 1, free levels, and levels tied with some state's CDF
    own = as_step_cdf(states[data.draw(st.integers(0, len(states) - 1))][1]).values
    ties = data.draw(st.lists(st.sampled_from(list(own)), max_size=4))
    free = data.draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    ks = [0.0, 1.0] + ties + free
    got = entropy_residuals(states, flux, ks, grid)
    assert got.shape == (len(ks),)
    assert np.all(np.abs(got - reference_residuals(states, flux, ks, grid)) <= 1e-13)
    # tied positions only add pieces of zero width: the screen of the
    # deduplicated CDFs is the same bits
    deduplicated = [(t, as_step_cdf(state)) for t, state in states]
    assert np.array_equal(got, entropy_residuals(deduplicated, flux, ks, grid))


def check_blocks(monkeypatch, n, ks, rows):
    """65 snapshots of n particles in blocks of ``rows`` rows (the last
    block short) against one block, the same bits, and against the
    reference.  Deduplicated StepCdfs between mixtures give staircases of
    different widths.  One-atom snapshots, first, last, in pairs and inside
    blocks, give rows of width 1, which every level k > 0 splits at their
    first and only edge."""
    a0 = build_initial({"preset": "random(4242)"}, n)
    times = np.linspace(0.0, 1.0, 65)
    mixtures = [sh_as_cdf(s) for s in sh_trajectory(a0, concave, 0.05, times)]
    states = [(t, as_step_cdf(m) if i % 3 else m) for i, (t, m) in enumerate(zip(times, mixtures))]
    for i in (0, 3, 8, 9, 30, 64):
        states[i] = (times[i], ParticleQuantiles(np.full(n, 0.125)))
    widths = [as_step_cdf(state).breakpoints.size for _, state in states]
    assert len(set(widths)) > 1
    grid = BumpFamily(pad_x=0.3)
    # a block holds _BLOCK_BYTES // (16 * 2n) rows: 2n bounds the width of
    # a mixture's staircase, both particle systems
    monkeypatch.setattr(claw.entropy, "_BLOCK_BYTES", 16 * 2 * n * 65)
    whole = entropy_residuals(states, concave, ks, grid)
    monkeypatch.setattr(claw.entropy, "_BLOCK_BYTES", 16 * 2 * n * rows)
    blocks = []
    geometry = claw.entropy._block_geometry

    def spy(stairs, *args):
        out = geometry(stairs, *args)
        blocks.append((len(stairs), out[0].size))
        return out

    monkeypatch.setattr(claw.entropy, "_block_geometry", spy)
    blocked = entropy_residuals(states, concave, ks, grid)
    # each block lays its rows' staircases end to end, unpadded
    block_widths = [widths[r0 : r0 + rows] for r0 in range(0, 65, rows)]
    assert blocks == [(len(w), sum(w)) for w in block_widths]
    assert np.array_equal(blocked, whole)
    assert np.all(np.abs(blocked - reference_residuals(states, concave, ks, grid)) <= 1e-13)


@pytest.mark.parametrize("rows", [1, 2, 7])
def test_blocks_of_snapshots_give_the_same_bits(monkeypatch, rows):
    check_blocks(monkeypatch, 48, np.linspace(0.0, 1.0, 11), rows)


@pytest.mark.parametrize("rows", [1, 2, 7])
def test_blocks_without_level_one_give_the_same_bits(monkeypatch, rows):
    # each row's last segment runs from its split at 0.45 to its last edge,
    # hundreds of edges, up to where the next row begins; with level 1 in
    # the set it has one or two
    check_blocks(monkeypatch, 256, np.array([0.05, 0.3, 0.45]), rows)
