"""Parametric data-generating mechanisms for the simulation scenarios.

Four distribution families (normal, t with 3 df, log-normal, chi-squared
with 1 df), each calibrated so every variable has mean 0 or 1 and variance
one under the null.  Deviations alter location, scale, correlation or tail
weight.

Tables decide each part of a scenario: `_STEPS` how a grouping spreads the
deviation over the k samples, `_DEVIATIONS` each deviation's base level,
the draw keyword that takes the level and its valid range, `_FAMILIES`
each family's draw and deviations, `_WEIGHTS` the group sizes, and `GRIDS`
the desk and full factorial designs.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .core import DataMatrix, MultiSample

DGPS = ("normal", "t3", "lognormal", "chisq1")
DEVIATIONS = ("null", "shift", "scale", "correlation", "kurtosis",
              "normal_vs_t", "skew_kurtosis")
GROUPINGS_K4 = ("3+1", "2+2", "2+1+1", "1+1+1+1")
BALANCES = ("balanced", "unbalanced")

# Number of deviation steps each sample takes from the base level.
_STEPS = {"1+1": (0, 1), "3+1": (0, 0, 0, 1), "2+2": (0, 0, 1, 1),
          "2+1+1": (0, 0, 1, 2), "1+1+1+1": (0, 1, 2, 3)}

# Group sizes as shares of N.
_WEIGHTS = {(2, "balanced"): (0.5, 0.5), (2, "unbalanced"): (0.2, 0.8),
            (4, "balanced"): (0.25, 0.25, 0.25, 0.25),
            (4, "unbalanced"): (0.1, 0.2, 0.3, 0.4)}

# Magnitudes per deviation, with N and p, of the full factorial design and
# of its thinned desk-scale version.  A '_k4' entry replaces the plain one
# for k=4; a '_step' entry holds the per-group steps of the stepwise
# groupings '2+1+1' and '1+1+1+1'.
GRIDS = {
    "full": dict(
        shift=(0.1, 0.25, 0.5, 0.75, 1.0, 1.5),
        scale=(1 / 10, 1 / 3, 1 / 2, 2 / 3, 4 / 5, 5 / 4, 3 / 2, 2.0, 3.0,
               10.0),
        correlation=(0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8),
        correlation_k4=(0.05, 0.1, 0.2, 0.3),
        normal_vs_t=(30.0, 20.0, 10.0, 5.0, 3.0),
        kurtosis=(3.05, 3.1, 3.2, 3.3, 3.4),           # deviating df
        kurtosis_step=(0.05, 0.1, 0.2, 0.3, 0.4),      # df increment
        skew_kurtosis=(1.1, 1.5, 2.0, 3.0, 4.0, 5.0),
        skew_kurtosis_step=(0.1, 0.5, 1.0, 2.0, 3.0, 4.0),
        n_k2=(50, 100, 200, 500, 1000), n_k4=(100, 200, 400),
        p=(2, 10, 50)),
    "desk": dict(
        shift=(0.25, 0.75, 1.5), scale=(1 / 3, 2 / 3, 3 / 2, 3.0),
        correlation=(0.1, 0.3, 0.6), correlation_k4=(0.1, 0.3),
        normal_vs_t=(20.0, 5.0, 3.0), kurtosis=(3.1, 3.3),
        kurtosis_step=(0.1, 0.3), skew_kurtosis=(1.5, 3.0, 5.0),
        skew_kurtosis_step=(0.5, 2.0, 4.0), n_k2=(50, 100, 200),
        n_k4=(100, 200), p=(2, 10)),
}

# The study cases: (k, groupings).
_CASES = {"two_sample": (2, ("1+1",)), "four_sample": (4, GROUPINGS_K4)}

# Most entries one array of a scenario may hold: the N x p draw, the p x p
# correlation factor and, where statistics run, the N x N distance matrix.
MAX_ENTRIES = 2 ** 31

# Log-normal null parameters solved from mean-1 / variance-1 constraints:
# exp(mu + s2/2) = 1 and (exp(s2) - 1) exp(2 mu + s2) = 1.
_LN_SIGMA2 = math.log(2.0)
_LN_MU = -math.log(2.0) / 2.0


class ConfigError(ValueError):
    """Invalid scenario configuration."""


# JSON types accepted for each ScenarioSpec field annotation.
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


def shift_offset(p: int, delta: float) -> float:
    """Per-component mean shift keeping the mean-vector distance at delta."""
    return delta / math.sqrt(p)


def scale_factor(p: int, s: float) -> float:
    """Per-component scale keeping the level-set volume ratio at s."""
    return s ** (1.0 / p)


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the simulation design."""

    dgp: str
    deviation: str
    magnitude: float
    n_total: int
    p: int
    balance: str
    k: int = 2
    grouping: str = "1+1"
    # kept in the dump format; no statistic reads a target, so it is false
    with_target: bool = False

    def __post_init__(self):
        for f in fields(self):
            if f.type in ("int", "float"):
                try:
                    float(getattr(self, f.name))
                except OverflowError:
                    raise ConfigError(f"scenario {f.name!r} is beyond the "
                                      "float range") from None
        if self.with_target:
            raise ConfigError("scenario 'with_target' must be false: no "
                              "statistic reads a target")
        if self.dgp not in DGPS:
            raise ConfigError(f"unknown dgp {self.dgp!r}")
        if self.deviation not in DEVIATIONS:
            raise ConfigError(f"unknown deviation {self.deviation!r}")
        if self.balance not in BALANCES:
            raise ConfigError(f"unknown balance {self.balance!r}")
        if self.k not in (2, 4):
            raise ConfigError("k must be 2 or 4")
        if len(_STEPS.get(self.grouping, ())) != self.k:
            raise ConfigError(
                f"grouping {self.grouping!r} does not split {self.k} samples")
        if self.deviation != "null":
            if self.deviation not in _FAMILIES[self.dgp].deviations:
                raise ConfigError(
                    f"deviation {self.deviation!r} undefined for {self.dgp}")
            if self.deviation == "normal_vs_t" and self.k != 2:
                raise ConfigError("normal_vs_t is a two-sample deviation")
        for name in ("n_total", "p"):
            if getattr(self, name) < 1:
                raise ConfigError(f"scenario {name!r} must be at least 1, "
                                  f"got {getattr(self, name)!r}")
        sample_sizes(self)
        if self.n_total * self.p > MAX_ENTRIES:
            raise ConfigError(f"scenario 'n_total' x 'p' = {self.n_total} x "
                              f"{self.p} draws more than {MAX_ENTRIES} "
                              "entries")
        if self.deviation == "correlation" and self.p ** 2 > MAX_ENTRIES:
            raise ConfigError(f"scenario 'p' {self.p} needs a p x p "
                              "correlation factor of more than "
                              f"{MAX_ENTRIES} entries")
        if not math.isfinite(self.magnitude):
            raise ConfigError(f"scenario 'magnitude' must be finite, "
                              f"got {self.magnitude!r}")
        if self.deviation in _DEVIATIONS:
            dev = _DEVIATIONS[self.deviation]
            low, high = dev.bounds(self.p)
            for level in deviation_levels(self):
                # the base level is valid even where it is a limit, as
                # normal_vs_t's infinite df is
                if level != dev.base and not low < level < high:
                    raise ConfigError(
                        f"scenario 'magnitude' {self.magnitude!r} gives "
                        f"{self.deviation} level {level!r}, outside "
                        f"({low:g}, {high:g}) at p={self.p}")
                if self.deviation == "correlation" and level != dev.base:
                    try:
                        _correlation_factor(self.p, level)
                    except np.linalg.LinAlgError:
                        raise ConfigError(
                            f"scenario 'magnitude' {self.magnitude!r} gives "
                            f"correlation {level!r}, whose equicorrelation "
                            f"matrix at p={self.p} has no Cholesky "
                            "factor") from None

    @property
    def scenario_id(self) -> str:
        parts = [f"k{self.k}", self.dgp, self.deviation]
        if self.deviation != "null":
            parts.append(f"m{self.magnitude:g}")
        parts += [f"N{self.n_total}", f"p{self.p}", self.balance]
        if self.k == 4:
            parts.append(self.grouping.replace("+", ""))
        return "-".join(parts)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        if not isinstance(d, dict):
            raise ConfigError(f"scenario must be an object, got {d!r}")
        names = [f.name for f in fields(cls)]
        for key in d:
            if key not in names:
                raise ConfigError(f"unknown scenario key {key!r}")
        for f in fields(cls):
            if f.name in d:
                value = d[f.name]
                # bool is an int subclass: true/false pass only as "bool"
                if (not isinstance(value, _FIELD_TYPES[f.type])
                        or (isinstance(value, bool) and f.type != "bool")):
                    raise ConfigError(f"scenario {f.name!r} must be "
                                      f"{f.type}, got {value!r}")
            elif f.default is MISSING:
                raise ConfigError(f"scenario has no {f.name!r} entry")
        return cls(**d)


def sample_sizes(spec: ScenarioSpec) -> tuple[int, ...]:
    """Group sizes implied by (N, k, balance); rejects non-integral splits."""
    sizes = []
    for w in _WEIGHTS[spec.k, spec.balance]:
        ni = w * spec.n_total
        if abs(ni - round(ni)) > 1e-9:
            raise ConfigError(f"scenario 'n_total' {spec.n_total} has the "
                              f"non-integral group size {w} * "
                              f"{spec.n_total}")
        sizes.append(int(round(ni)))
    return tuple(sizes)


class _Deviation(NamedTuple):
    base: float    # level of a sample that does not deviate
    keyword: str   # argument of the family's draw that takes the level
    bounds: Callable[[int], tuple[float, float]]  # open valid range, given p


_DEVIATIONS = {
    "shift": _Deviation(0.0, "shift", lambda p: (-math.inf, math.inf)),
    "scale": _Deviation(1.0, "scale", lambda p: (0.0, math.inf)),
    # the equicorrelation matrix is positive definite on this range
    "correlation": _Deviation(0.0, "rho",
                              lambda p: (-1.0 / max(p - 1, 1), 1.0)),
    "kurtosis": _Deviation(3.0, "df", lambda p: (2.0, math.inf)),
    # infinite df draws the normal sample the t sample is compared with
    "normal_vs_t": _Deviation(math.inf, "df", lambda p: (2.0, math.inf)),
    "skew_kurtosis": _Deviation(1.0, "df", lambda p: (0.0, math.inf)),
}


def deviation_levels(spec: ScenarioSpec) -> tuple[float, ...]:
    """The deviating parameter value for each of the k samples.

    For shift the level is delta, for scale the factor s, for correlation
    rho, and for kurtosis, normal_vs_t and skew-kurtosis the df of the t or
    chi-squared distribution.  In a two-level grouping the magnitude is the
    deviating level; in '2+1+1' and '1+1+1+1' it is a step, which scale
    multiplies and the other deviations add."""
    if spec.deviation not in _DEVIATIONS:
        raise ConfigError(f"no deviation levels for {spec.deviation!r}")
    base = _DEVIATIONS[spec.deviation].base
    m = spec.magnitude
    steps = _STEPS[spec.grouping]
    if max(steps) == 1:
        return tuple(m if j else base for j in steps)
    if spec.deviation != "scale":
        return tuple(base + j * m for j in steps)
    try:
        return tuple(m ** j for j in steps)  # base 1
    except OverflowError:
        raise ConfigError(f"scenario 'magnitude' {m!r} overflows the "
                          f"{spec.grouping} scale steps") from None


def _correlation_factor(p: int, rho: float) -> np.ndarray:
    """Cholesky factor of the p x p equicorrelation matrix; raises
    `LinAlgError` where it is not numerically positive definite."""
    return np.linalg.cholesky(rho * np.ones((p, p)) + (1 - rho) * np.eye(p))


def _draw_t(rng, n, p, df=math.inf, shift=0.0, scale=1.0, rho=0.0):
    """Multivariate t via normal over sqrt(chi2/df); infinite df is normal.

    The dispersion is (df-2)/df * I so every component has variance one;
    the scale factor multiplies the variables themselves."""
    z = rng.standard_normal((n, p))
    if rho != 0.0:
        z = z @ _correlation_factor(p, rho).T
    if df != math.inf:
        z = z * math.sqrt((df - 2.0) / df)
        u = rng.chisquare(df, size=n)
        z = z / np.sqrt(u / df)[:, None]
    if scale != 1.0:
        z = z * scale_factor(p, scale)
    if shift != 0.0:
        z = z + shift_offset(p, shift)
    return z


def _draw_lognormal(rng, n, p, shift=0.0, scale=1.0):
    z = rng.standard_normal((n, p))
    x = np.exp(_LN_MU + math.sqrt(_LN_SIGMA2) * z)
    if scale != 1.0:
        # Scaling after generation also moves the mean; kept as stated.
        x = x * scale_factor(p, scale)
    if shift != 0.0:
        x = x + shift_offset(p, shift)
    return x


def _draw_chisq(rng, n, p, df):
    x = rng.chisquare(df, size=(n, p))
    return (x - df) / math.sqrt(2.0 * df)


class _Family(NamedTuple):
    draw: Callable       # draw(rng, n, p, **null_args, keyword=level)
    null_args: dict
    deviations: tuple    # the deviations defined for it


_FAMILIES = {
    "normal": _Family(_draw_t, {},
                      ("correlation", "normal_vs_t", "scale", "shift")),
    "t3": _Family(_draw_t, {"df": 3.0},
                  ("correlation", "kurtosis", "scale", "shift")),
    "lognormal": _Family(_draw_lognormal, {}, ("scale", "shift")),
    "chisq1": _Family(_draw_chisq, {"df": 1.0}, ("skew_kurtosis",)),
}


def _draw_sample(rng, spec: ScenarioSpec, n: int, level) -> np.ndarray:
    """Draw n observations of the scenario's family at a deviation level."""
    draw, args, _ = _FAMILIES[spec.dgp]
    if spec.deviation in _DEVIATIONS:
        args = {**args, _DEVIATIONS[spec.deviation].keyword: level}
    return draw(rng, n, spec.p, **args)


def sample_scenario(spec: ScenarioSpec, rng) -> MultiSample:
    """Draw one repetition of the scenario. rng is a numpy Generator."""
    if spec.deviation in _DEVIATIONS:
        levels = deviation_levels(spec)
    else:
        levels = (None,) * spec.k
    mats = [_draw_sample(rng, spec, n, level)
            for n, level in zip(sample_sizes(spec), levels)]
    return MultiSample(tuple(DataMatrix(x) for x in mats))


def rng_for(master_seed: int, scenario_index: int, rep: int):
    """Deterministic per-(scenario, repetition) stream; order-independent."""
    ss = np.random.SeedSequence(master_seed,
                                spawn_key=(scenario_index, rep))
    return np.random.default_rng(ss)


def _magnitudes(grid: dict, deviation: str, grouping: str) -> tuple:
    """A grid's magnitudes for a deviation under a grouping: its '_step'
    entry for a stepwise grouping, else its '_k4' entry for k=4, else the
    plain entry."""
    steps = _STEPS[grouping]
    keys = [f"{deviation}_k{len(steps)}", deviation]
    if max(steps) > 1:
        keys.insert(0, f"{deviation}_step")
    return next(grid[key] for key in keys if key in grid)


def scenario_grid(case: str, full: bool = False) -> list[ScenarioSpec]:
    """Full factorial scenario list for one of the two study cases.

    case is 'two_sample' or 'four_sample'."""
    if case not in _CASES:
        raise ConfigError(f"unknown case {case!r}")
    k, groupings = _CASES[case]
    grid = GRIDS["full" if full else "desk"]
    specs: list[ScenarioSpec] = []
    for dgp in DGPS:
        # normal_vs_t compares two samples only
        devs = [dev for dev in _FAMILIES[dgp].deviations
                if k == 2 or dev != "normal_vs_t"]
        for p in grid["p"]:
            for n in grid[f"n_k{k}"]:
                for bal in BALANCES:
                    cell = dict(n_total=n, p=p, balance=bal, k=k)
                    specs.append(ScenarioSpec(dgp, "null", 0.0,
                                              grouping=groupings[0], **cell))
                    specs += [ScenarioSpec(dgp, dev, float(m), grouping=g,
                                           **cell)
                              for g in groupings for dev in devs
                              for m in _magnitudes(grid, dev, g)]
    return specs
