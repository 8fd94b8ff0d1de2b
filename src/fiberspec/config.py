"""JSON configuration loading and materialization.

A configuration declares the grids, one kernel, and named sections,
threshold fields, and partitions.  Expressions are parsed eagerly so
syntax problems surface with their offsets at load time; every error
raised while loading or materializing is wrapped in ConfigError.
"""

from __future__ import annotations

import json
import math
from functools import partial

from . import expr
from ._record import Record
from .calculus import DEFAULT_EPSILON, DEFAULT_TIE_TOL, ThresholdField
from .errors import ConfigError, FiberspecError
from .fiber import (
    DEFAULT_EIG_TOL,
    DEFAULT_RANK_TOL,
    FiberDecomposition,
    decompose_all_fibers,
)
from .grid import (
    OmegaGrid,
    SQuadrature,
    Section,
    build_omega_grid,
    build_s_quadrature,
    sample_field,
    sample_section,
)
from .kernel import KernelSpec, SeparableKernel, sample_kernel
from .spectrum import Partition

DEFAULT_OMEGA_N = 64
DEFAULT_S_N = 64
DEFAULT_S_RULE = "gauss_legendre"
DEFAULT_MEMBER_TOL = 1e-8

# The config entries that load_config's keywords and the CLI's flags of the
# same names override: keyword -> (object, entry, type), where the object
# None is the config root and the type parses the flag.
OVERRIDES = {
    "rank_tol": ("tolerances", "rank_tol", float),
    "tie_tol": ("tolerances", "tie_tol", float),
    "member_tol": ("tolerances", "member_tol", float),
    "epsilon": (None, "epsilon", float),
    "quad_n": ("s_quadrature", "n", int),
    "omega_n": ("omega_grid", "n", int),
}


class Tolerances(Record):
    """The config's tolerances; __slots__ names the keys a config may set."""

    __slots__ = ("rank_tol", "tie_tol", "eig_tol", "member_tol")

    def __init__(
        self,
        rank_tol: float = DEFAULT_RANK_TOL,
        tie_tol: float = DEFAULT_TIE_TOL,
        # stopping tolerance of verify's Jacobi oracle; decompose uses LAPACK
        eig_tol: float = DEFAULT_EIG_TOL,
        member_tol: float = DEFAULT_MEMBER_TOL,
    ):
        super().__init__(rank_tol, tie_tol, eig_tol, member_tol)


class Config(Record):
    __slots__ = (
        "ogrid",
        "squad",
        "kernel",
        "sections",
        "thresholds",
        "partitions",
        "tolerances",
        "epsilon",
    )

    def __init__(
        self,
        ogrid: OmegaGrid,
        squad: SQuadrature,
        kernel: KernelSpec,
        sections: dict,
        thresholds: dict,
        partitions: dict,  # name -> tuple of (label, lo, hi)
        tolerances: Tolerances | None = None,  # None: a fresh Tolerances()
        epsilon: float = DEFAULT_EPSILON,
    ):
        if tolerances is None:
            tolerances = Tolerances()
        super().__init__(
            ogrid, squad, kernel, sections, thresholds, partitions, tolerances, epsilon
        )


def _expect(condition, message):
    if not condition:
        raise ConfigError(message)


def _parse_named(raw, where, variables=None):
    """Parse one expression; variables, when given, bounds its free ones."""
    _expect(isinstance(raw, str), f"{where} must be an expression string")
    try:
        e = expr.parse(raw)
    except FiberspecError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if variables is not None:
        extra = expr.free_variables(e) - variables
        _expect(
            not extra,
            f"{where} may only depend on {sorted(variables)}, found {sorted(extra)}",
        )
    return e


def _real(raw, where):
    # a bool is an int, and a JSON string is no number
    number = isinstance(raw, (int, float)) and not isinstance(raw, bool)
    _expect(number, f"{where} must be a real number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:
        raise ConfigError(f"{where} is beyond the float range") from None


def _positive(raw, where):
    value = _real(raw, where)
    _expect(
        value > 0.0 and math.isfinite(value),
        f"{where} must be positive and finite, got {value!r}",
    )
    return value


def _object(raw, key):
    """The object under key, an empty one when the key is absent."""
    value = raw.setdefault(key, {})
    _expect(isinstance(value, dict), f"{key} must be an object")
    return value


def _count(table, key, default):
    n = table.get("n", default)
    _expect(type(n) is int, f"{key}.n must be an integer")  # bool is refused
    return n


def _expressions(raw, key, variables):
    """Parse the named expressions under key over the given variables."""
    return {
        str(name): _parse_named(text, f"{key}[{name}]", variables)
        for name, text in _object(raw, key).items()
    }


def _build_kernel(raw, ogrid, squad):
    _expect(isinstance(raw, dict), "kernel must be an object")
    kind = raw.get("type")
    if kind == "separable":
        terms_raw = raw.get("terms")
        _expect(
            isinstance(terms_raw, list) and terms_raw,
            "separable kernel needs a non-empty terms list",
        )
        terms = []
        for idx, term in enumerate(terms_raw):
            _expect(
                isinstance(term, dict) and "curve" in term and "basis" in term,
                f"kernel term {idx} must declare curve and basis",
            )
            curve = _parse_named(term["curve"], f"kernel terms[{idx}].curve")
            basis = _parse_named(term["basis"], f"kernel terms[{idx}].basis")
            terms.append((curve, basis))
        try:
            return SeparableKernel(tuple(terms))
        except FiberspecError as exc:
            raise ConfigError(f"kernel: {exc}") from exc
    if kind == "sampled":
        e = _parse_named(raw.get("expression"), "kernel expression")
        try:
            return sample_kernel(e, ogrid, squad)
        except FiberspecError as exc:
            raise ConfigError(f"kernel: {exc}") from exc
    raise ConfigError(f"kernel type must be separable or sampled, got {kind!r}")


def load_config(path, **overrides) -> Config:
    """Load and materialize a configuration file.

    Each keyword of OVERRIDES that is not None replaces its file entry; the
    keywords mirror the command line flags.  An override replaces the file
    value before anything is checked, so an invalid file value it replaces
    is ignored.  Any other keyword is a TypeError.
    """
    for name in overrides:
        if name not in OVERRIDES:
            raise TypeError(
                f"load_config() got an unexpected keyword argument {name!r}"
            )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    _expect(isinstance(raw, dict), "config root must be an object")
    for name, value in overrides.items():
        key, entry, _ = OVERRIDES[name]
        if value is not None:
            (raw if key is None else _object(raw, key))[entry] = value

    grid_raw = _object(raw, "omega_grid")
    n_omega = _count(grid_raw, "omega_grid", DEFAULT_OMEGA_N)
    squad_raw = _object(raw, "s_quadrature")
    rule = squad_raw.get("rule", DEFAULT_S_RULE)
    n_s = _count(squad_raw, "s_quadrature", DEFAULT_S_N)

    try:
        ogrid = build_omega_grid(n_omega)
        squad = build_s_quadrature(rule, n_s)
    except FiberspecError as exc:
        raise ConfigError(f"grids: {exc}") from exc

    _expect("kernel" in raw, "config must declare a kernel")
    kspec = _build_kernel(raw["kernel"], ogrid, squad)

    sections = _expressions(raw, "sections", {"omega", "t"})
    thresholds = _expressions(raw, "thresholds", {"omega"})

    partitions = {}
    for name, entries in _object(raw, "partitions").items():
        _expect(
            isinstance(entries, list) and entries,
            f"partitions[{name}] must be a non-empty list",
        )
        rows = []
        for idx, entry in enumerate(entries):
            where = f"partitions[{name}][{idx}]"
            _expect(
                isinstance(entry, dict)
                and "label" in entry
                and "omega_range" in entry,
                f"{where} must declare label and omega_range",
            )
            label = entry["label"]
            _expect(
                isinstance(label, int) and not isinstance(label, bool) and label >= 0,
                f"{where}.label must be a non-negative integer",
            )
            _expect(label < 2**63, f"{where}.label must be below 2^63")
            rng = entry["omega_range"]
            _expect(
                isinstance(rng, list) and len(rng) == 2,
                f"{where}.omega_range must be [lo, hi]",
            )
            lo = _real(rng[0], f"{where}.omega_range[0]")
            hi = _real(rng[1], f"{where}.omega_range[1]")
            _expect(lo < hi, f"{where}.omega_range must have lo < hi")
            rows.append((label, lo, hi))
        partitions[str(name)] = tuple(rows)

    tol_raw = _object(raw, "tolerances")
    for key in tol_raw:
        _expect(key in Tolerances.__slots__, f"unknown tolerance {key!r}")
    # an absent key keeps the default of Tolerances.__init__
    tolerances = Tolerances(
        **{
            name: _positive(tol_raw[name], name)
            for name in Tolerances.__slots__
            if name in tol_raw
        }
    )

    return Config(
        ogrid=ogrid,
        squad=squad,
        kernel=kspec,
        sections=sections,
        thresholds=thresholds,
        partitions=partitions,
        tolerances=tolerances,
        epsilon=_positive(raw.get("epsilon", DEFAULT_EPSILON), "epsilon"),
    )


def _by_name(kind: str, table: dict, name: str, build):
    """build(entry) for the named entry of a config table.  An unknown name,
    or an entry that fails to build, is a ConfigError that names it."""
    if name not in table:
        raise ConfigError(f"unknown {kind} {name!r}")
    try:
        return build(table[name])
    except FiberspecError as exc:
        raise ConfigError(f"{kind}s[{name}]: {exc}") from exc


def section_by_name(cfg: Config, name: str) -> Section:
    build = partial(sample_section, ogrid=cfg.ogrid, squad=cfg.squad)
    return _by_name("section", cfg.sections, name, build)


def threshold_by_name(cfg: Config, name: str) -> ThresholdField:
    build = partial(sample_field, grid=cfg.ogrid)
    field_ = _by_name("threshold", cfg.thresholds, name, build)
    return ThresholdField(field_, cfg.tolerances.tie_tol)


def partition_by_name(cfg: Config, name: str) -> Partition:
    build = partial(Partition.from_ranges, cfg.ogrid)
    return _by_name("partition", cfg.partitions, name, build)


def decompose(cfg: Config) -> FiberDecomposition:
    return decompose_all_fibers(
        cfg.kernel,
        cfg.ogrid,
        cfg.squad,
        rank_tol=cfg.tolerances.rank_tol,
    )
