"""Experiment configuration: line-oriented config files and initial data.

Grammar: ``key = value`` lines, ``#`` comments, and ``[flux]`` /
``[initial_a]`` / ``[initial_b]`` sections.  Unknown keys or sections are
errors.  Values are whitespace- or comma-separated where a list is
expected.

Initial-datum presets (the ``preset`` key of an initial section):

    dirac(x)            all mass at x
    uniform(a, b)       uniform law on [a, b]
    two_atom(x1, x2)    half the mass at each of two points
    random(seed)        sorted draws from the documented mixture: with
                        probability 1/2 a uniform draw on [a, b], otherwise
                        one of the ``atoms`` sites, all randomness from the
                        pinned 64-bit LCG seeded with ``seed``, a
                        decimal integer in [0, 2^64)

The random preset accepts optional ``a``, ``b`` (default -1, 1) and
``atoms`` (default "-0.5 0.5") keys in its section.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .fluxes import FluxModel, flux_from_file, make_builtin
from .lcg import lcg_floats
from .measures import ParticleQuantiles, midpoint_nodes

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "parse_preset",
    "build_initial",
    "KINDS",
]

KINDS = (
    "contraction_sweep",
    "convergence_study",
    "classical_constancy",
    "viscous_contraction",
    "moment_audit",
    "entropy_residual",
)

_TOP_KEYS = {
    "kind",
    "n_particles",
    "h",
    "t_final",
    "p_list",
    "n_times",
    "nu",
    "seed",
    "r_tail",
    "output",
}
_FLUX_KEYS = {"name", "file"}
_INITIAL_KEYS = {"preset", "a", "b", "atoms"}
_SECTIONS = {"flux": _FLUX_KEYS, "initial_a": _INITIAL_KEYS, "initial_b": _INITIAL_KEYS}

_PRESET_RE = re.compile(r"^\s*([a-z_0-9]+)\s*(?:\(\s*([^)]*)\s*\))?\s*$")


class ConfigError(ValueError):
    """Config syntax or validation failure; the CLI maps this to exit 1."""


@dataclass
class ExperimentConfig:
    kind: str
    flux: FluxModel
    n_particles: int = 1024
    h_list: tuple = (0.1,)
    t_final: float = 1.0
    p_list: tuple = (1.0, 2.0)
    n_times: int = 64
    nu: float = 0.1
    seed: int = 42
    r_tail: float = 2.0
    output: str | None = None
    initial_a: dict = field(default_factory=lambda: {"preset": "random(7)"})
    initial_b: dict = field(default_factory=lambda: {"preset": "random(8)"})
    raw: dict = field(default_factory=dict)

    @property
    def h(self) -> float:
        return self.h_list[0]


def _parse_lines(text: str):
    """Raw (section, key) -> value mapping with syntax checking."""
    out: dict[tuple[str | None, str], str] = {}
    section: str | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {line!r}")
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        allowed = _SECTIONS[section] if section else _TOP_KEYS
        if key not in allowed:
            where = f"section [{section}]" if section else "top level"
            raise ConfigError(f"line {lineno}: unknown key {key!r} in {where}")
        out[(section, key)] = value
    return out


def _floats(value: str, key: str):
    parts = [p for p in re.split(r"[,\s]+", value.strip()) if p]
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"field {key!r}: cannot parse {value!r} as numbers") from exc


def _one_float(value: str, key: str) -> float:
    vals = _floats(value, key)
    if len(vals) != 1:
        raise ConfigError(f"field {key!r}: expected a single number, got {value!r}")
    return vals[0]


def _one_int(value: str, key: str) -> int:
    x = _one_float(value, key)
    if x != int(x):
        raise ConfigError(f"field {key!r}: expected an integer, got {value!r}")
    return int(x)


def _build_flux(entries: dict) -> FluxModel:
    name = entries.get("name", "burgers")
    if name == "tabulated":
        if "file" not in entries:
            raise ConfigError("field 'flux.file': tabulated flux needs a file")
        try:
            return flux_from_file(entries["file"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"field 'flux.file': {exc}") from exc
    if "file" in entries:
        raise ConfigError("field 'flux.file': only valid with name = tabulated")
    try:
        return make_builtin(name)
    except ValueError as exc:
        raise ConfigError(f"field 'flux.name': {exc}") from exc


def parse_config(text: str, overrides=None) -> ExperimentConfig:
    """Parse and validate a config; ``overrides`` are CLI ``--set`` pairs
    of the form ("key", "value") or ("section.key", "value")."""
    entries = _parse_lines(text)
    for dotted, value in overrides or []:
        if "." in dotted:
            section, key = dotted.split(".", 1)
            if section not in _SECTIONS:
                raise ConfigError(f"override {dotted!r}: unknown section {section!r}")
            if key not in _SECTIONS[section]:
                raise ConfigError(f"override {dotted!r}: unknown key {key!r}")
            entries[(section, key)] = value
        else:
            if dotted not in _TOP_KEYS:
                raise ConfigError(f"override {dotted!r}: unknown key")
            entries[(None, dotted)] = value

    if (None, "kind") not in entries:
        raise ConfigError("field 'kind': required")
    kind = entries[(None, "kind")]
    if kind not in KINDS:
        raise ConfigError(f"field 'kind': unknown kind {kind!r}; choose from {KINDS}")

    flux = _build_flux({k: v for (sec, k), v in entries.items() if sec == "flux"})
    cfg = ExperimentConfig(kind=kind, flux=flux)
    cfg.raw = {
        (f"{sec}.{k}" if sec else k): v for (sec, k), v in sorted(entries.items(), key=str)
    }

    if (None, "n_particles") in entries:
        cfg.n_particles = _one_int(entries[(None, "n_particles")], "n_particles")
    if (None, "h") in entries:
        cfg.h_list = _floats(entries[(None, "h")], "h")
    if (None, "t_final") in entries:
        cfg.t_final = _one_float(entries[(None, "t_final")], "t_final")
    if (None, "p_list") in entries:
        cfg.p_list = _floats(entries[(None, "p_list")], "p_list")
    if (None, "n_times") in entries:
        cfg.n_times = _one_int(entries[(None, "n_times")], "n_times")
    if (None, "nu") in entries:
        cfg.nu = _one_float(entries[(None, "nu")], "nu")
    if (None, "seed") in entries:
        cfg.seed = _one_int(entries[(None, "seed")], "seed")
    if (None, "r_tail") in entries:
        cfg.r_tail = _one_float(entries[(None, "r_tail")], "r_tail")
    if (None, "output") in entries:
        cfg.output = entries[(None, "output")]
    for sec in ("initial_a", "initial_b"):
        picked = {k: v for (s, k), v in entries.items() if s == sec}
        if picked:
            setattr(cfg, sec, picked)

    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig):
    if cfg.n_particles < 1:
        raise ConfigError("field 'n_particles': must be at least 1")
    if not cfg.h_list:
        raise ConfigError("field 'h': needs at least one value")
    if any(h <= 0 for h in cfg.h_list):
        raise ConfigError("field 'h': step sizes must be positive")
    if len(cfg.h_list) > 1 and cfg.kind != "convergence_study":
        raise ConfigError(f"field 'h': a list is only valid for convergence_study, not {cfg.kind}")
    if cfg.t_final < 0:
        raise ConfigError("field 't_final': must be nonnegative")
    if not cfg.p_list or any(p < 1 for p in cfg.p_list):
        raise ConfigError("field 'p_list': needs orders p >= 1")
    if cfg.n_times < 2:
        raise ConfigError("field 'n_times': need at least 2 sample times")
    if cfg.nu < 0:
        raise ConfigError("field 'nu': must be nonnegative")
    if cfg.kind == "viscous_contraction" and cfg.nu <= 0:
        raise ConfigError("field 'nu': viscous_contraction needs nu > 0")
    if cfg.kind == "moment_audit":
        m = cfg.flux.lipschitz_bound
        if cfg.r_tail <= cfg.h * m:
            raise ConfigError(
                "field 'r_tail': must exceed h * lipschitz_bound "
                f"({cfg.h * m:g}) for the tail bound to apply"
            )
    # fail early on malformed initial data
    for sec in ("initial_a", "initial_b"):
        build_initial(getattr(cfg, sec), 4, field_name=sec)


def parse_preset(spec: dict, field_name: str = "initial") -> tuple[str, tuple]:
    """The preset name and its numeric arguments, e.g. ("uniform", (0.0, 1.0)).

    A random preset's seed is read as an exact integer in [0, 2^64), never
    through a double, so distinct seeds always give distinct generators.
    """
    preset = spec.get("preset", "random(7)")
    m = _PRESET_RE.match(preset)
    if not m:
        raise ConfigError(f"field '{field_name}.preset': cannot parse {preset!r}")
    name, argtext = m.group(1), m.group(2) or ""
    if name == "random":
        text = argtext.strip()
        if not re.fullmatch(r"[0-9]+", text) or int(text) >= 1 << 64:
            raise ConfigError(
                f"field '{field_name}.preset': random needs an integer seed in "
                f"[0, 2^64), got {text!r}"
            )
        return name, (int(text),)
    return name, _floats(argtext, f"{field_name}.preset") if argtext else ()


def build_initial(spec: dict, n: int, field_name: str = "initial") -> ParticleQuantiles:
    """Particle system of size n from an initial-datum spec dict."""
    name, args = parse_preset(spec, field_name)

    if name == "dirac":
        if len(args) != 1:
            raise ConfigError(f"field '{field_name}.preset': dirac takes one position")
        return ParticleQuantiles(np.full(n, args[0]))
    if name == "uniform":
        if len(args) != 2 or args[1] <= args[0]:
            raise ConfigError(f"field '{field_name}.preset': uniform needs a < b")
        a, b = args
        return ParticleQuantiles(a + (b - a) * midpoint_nodes(n))
    if name == "two_atom":
        if len(args) != 2:
            raise ConfigError(f"field '{field_name}.preset': two_atom needs two positions")
        x1, x2 = sorted(args)
        half = n // 2
        return ParticleQuantiles(np.concatenate([np.full(n - half, x1), np.full(half, x2)]))
    if name == "random":
        a = _one_float(spec.get("a", "-1"), f"{field_name}.a")
        b = _one_float(spec.get("b", "1"), f"{field_name}.b")
        if b <= a:
            raise ConfigError(f"field '{field_name}': needs a < b")
        atoms = _floats(spec.get("atoms", "-0.5 0.5"), f"{field_name}.atoms")
        if not atoms:
            raise ConfigError(f"field '{field_name}.atoms': needs at least one site")
        # draw 2i is the coin, draw 2i+1 the value on either branch, so these
        # are the IEEE operations of Lcg64.uniform and Lcg64.choice (the
        # index is never negative, so clipping is choice's min(idx, len - 1))
        u = lcg_floats(args[0], 2 * n)
        coin, val = u[0::2], u[1::2]
        picked = np.take(atoms, (val * len(atoms)).astype(np.intp), mode="clip")
        draws = np.where(coin < 0.5, a + (b - a) * val, picked)
        return ParticleQuantiles(np.sort(draws, kind="stable"))
    raise ConfigError(
        f"field '{field_name}.preset': unknown preset {name!r}; "
        "choose from dirac, uniform, two_atom, random"
    )
