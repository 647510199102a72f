"""Experiment configuration: line-oriented config files and initial data.

Grammar: ``key = value`` lines, ``#`` comments, and ``[flux]`` /
``[initial_a]`` / ``[initial_b]`` sections.  Unknown keys or sections are
errors.  Values are whitespace- or comma-separated where a list is
expected.  ``_TOP_KEYS`` is the one list of top-level keys, with the
``ExperimentConfig`` field and the reader of each; ``--set`` overrides pass
the key test of file lines.

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
``atoms`` (default "-0.5 0.5") keys in its section.  The top-level
``seed`` key seeds nothing: the CSV only echoes it, and random data take
their seeds from their presets.
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

_INITIAL_KEYS = {"preset", "a", "b", "atoms"}
_SECTIONS = {"flux": {"name", "file"}, "initial_a": _INITIAL_KEYS, "initial_b": _INITIAL_KEYS}
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


def _keys(section: str | None, where: str):
    """The keys allowed in ``section`` (None: the top level)."""
    if section is None:
        return _TOP_KEYS
    if section not in _SECTIONS:
        raise ConfigError(f"{where}: unknown section [{section}]")
    return _SECTIONS[section]


def _parse_lines(text: str, overrides=None):
    """Raw (section, key) -> value mapping with syntax checking.  Each
    override ("key" or "section.key", value) passes the key test of a file
    line and replaces it."""
    out: dict[tuple[str | None, str], str] = {}

    def put(where, section, key, value):
        if key not in _keys(section, where):
            place = f"section [{section}]" if section else "top level"
            raise ConfigError(f"{where}: unknown key {key!r} in {place}")
        out[(section, key)] = value

    section: str | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{where}: malformed section header {line!r}")
            section = line[1:-1].strip()
            _keys(section, where)
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        put(where, section, key, value)
    for dotted, value in overrides or []:
        where = f"override {dotted!r}"
        # the CSV echoes every value on one '#' line; a config-file line
        # can hold no line break, an override could
        for part in (dotted, value):
            if "".join(part.splitlines()) != part:
                raise ConfigError(f"{where}: {part!r} holds a line break")
        section, key = dotted.split(".", 1) if "." in dotted else (None, dotted)
        put(where, section, key, value)
    return out


def _floats(value: str, key: str):
    parts = [p for p in re.split(r"[,\s]+", value.strip()) if p]
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"field {key!r}: cannot parse {value!r} as numbers") from exc
    if not all(np.isfinite(vals)):
        raise ConfigError(f"field {key!r}: expected finite numbers, got {value!r}")
    return vals


def _one_float(value: str, key: str) -> float:
    vals = _floats(value, key)
    if len(vals) != 1:
        raise ConfigError(f"field {key!r}: expected a single number, got {value!r}")
    return vals[0]


def _one_int(value: str, key: str) -> int:
    """A decimal integer, read exactly rather than through a double."""
    text = value.strip()
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ConfigError(f"field {key!r}: expected an integer, got {value!r}")
    try:
        return int(text)
    except ValueError as exc:  # beyond Python's digit limit for int()
        raise ConfigError(f"field {key!r}: {exc}") from exc


def _kind(value: str, key: str) -> str:
    if value not in KINDS:
        raise ConfigError(f"field {key!r}: unknown kind {value!r}; choose from {KINDS}")
    return value


# top-level key -> (ExperimentConfig field, reader of the value text)
_TOP_KEYS = {
    "kind": ("kind", _kind),
    "n_particles": ("n_particles", _one_int),
    "h": ("h_list", _floats),
    "t_final": ("t_final", _one_float),
    "p_list": ("p_list", _floats),
    "n_times": ("n_times", _one_int),
    "nu": ("nu", _one_float),
    "seed": ("seed", _one_int),
    "r_tail": ("r_tail", _one_float),
    "output": ("output", lambda value, key: value),
}


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
    entries = _parse_lines(text, overrides)
    fields = {
        name: read(entries[(None, key)], key)
        for key, (name, read) in _TOP_KEYS.items()
        if (None, key) in entries
    }
    if "kind" not in fields:
        raise ConfigError("field 'kind': required")
    for sec in ("initial_a", "initial_b"):
        picked = {k: v for (s, k), v in entries.items() if s == sec}
        if picked:
            fields[sec] = picked
    flux = _build_flux({k: v for (sec, k), v in entries.items() if sec == "flux"})
    cfg = ExperimentConfig(flux=flux, **fields)
    cfg.raw = {
        (f"{sec}.{k}" if sec else k): v for (sec, k), v in sorted(entries.items(), key=str)
    }
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
    # the CSV columns spell each order as f"{p:g}" (w1, ratio1, drift1, ...)
    spelled = [f"{p:g}" for p in cfg.p_list]
    twice = sorted({s for s in spelled if spelled.count(s) > 1})
    if twice:
        raise ConfigError(
            f"field 'p_list': more than one order is written as {twice[0]!r}, "
            "so two CSV columns would have the same name"
        )
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
        parse_preset(getattr(cfg, sec), sec)


def parse_preset(spec: dict, field_name: str = "initial") -> tuple[str, tuple]:
    """The preset name and its checked arguments: ("dirac", (x,)),
    ("uniform", (a, b)) with a < b, ("two_atom", (x1, x2)) or ("random",
    (seed, a, b, atoms)) with a < b and a nonempty tuple of atoms.  Every
    check of an initial-datum spec is made here.  A random preset's seed is
    read as an exact integer in [0, 2^64), never through a double, so
    distinct seeds always give distinct generators.
    """
    preset = spec.get("preset", "random(7)")
    where = f"field '{field_name}.preset'"
    m = _PRESET_RE.match(preset)
    if not m:
        raise ConfigError(f"{where}: cannot parse {preset!r}")
    name, argtext = m.group(1), (m.group(2) or "").strip()
    if name == "random":
        if not re.fullmatch(r"[0-9]+", argtext) or int(argtext) >= 1 << 64:
            raise ConfigError(
                f"{where}: random needs an integer seed in [0, 2^64), got {argtext!r}"
            )
        a = _one_float(spec.get("a", "-1"), f"{field_name}.a")
        b = _one_float(spec.get("b", "1"), f"{field_name}.b")
        if b <= a:
            raise ConfigError(f"field '{field_name}': needs a < b")
        atoms = _floats(spec.get("atoms", "-0.5 0.5"), f"{field_name}.atoms")
        if not atoms:
            raise ConfigError(f"field '{field_name}.atoms': needs at least one site")
        return name, (int(argtext), a, b, atoms)
    args = _floats(argtext, f"{field_name}.preset") if argtext else ()
    if name == "dirac" and len(args) != 1:
        raise ConfigError(f"{where}: dirac takes one position")
    if name == "uniform" and (len(args) != 2 or args[1] <= args[0]):
        raise ConfigError(f"{where}: uniform needs a < b")
    if name == "two_atom" and len(args) != 2:
        raise ConfigError(f"{where}: two_atom needs two positions")
    if name not in ("dirac", "uniform", "two_atom"):
        raise ConfigError(
            f"{where}: unknown preset {name!r}; choose from dirac, uniform, two_atom, random"
        )
    return name, args


def build_initial(spec: dict, n: int, field_name: str = "initial") -> ParticleQuantiles:
    """Particle system of size n from an initial-datum spec dict."""
    name, args = parse_preset(spec, field_name)
    if name == "dirac":
        return ParticleQuantiles(np.full(n, args[0]))
    if name == "uniform":
        a, b = args
        return ParticleQuantiles(a + (b - a) * midpoint_nodes(n))
    if name == "two_atom":
        x1, x2 = sorted(args)
        half = n // 2
        return ParticleQuantiles(np.concatenate([np.full(n - half, x1), np.full(half, x2)]))
    seed, a, b, atoms = args
    # draw 2i is the coin, draw 2i+1 the value on either branch, so these
    # are the IEEE operations of Lcg64.uniform and Lcg64.choice (the
    # index is never negative, so clipping is choice's min(idx, len - 1))
    u = lcg_floats(seed, 2 * n)
    coin, val = u[0::2], u[1::2]
    picked = np.take(atoms, (val * len(atoms)).astype(np.intp), mode="clip")
    draws = np.where(coin < 0.5, a + (b - a) * val, picked)
    return ParticleQuantiles(np.sort(draws, kind="stable"))
