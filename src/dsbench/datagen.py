"""Parametric data-generating mechanisms for the simulation scenarios.

Four distribution families (normal, t with 3 df, log-normal, chi-squared
with 1 df), each calibrated so every variable has mean 0 or 1 and variance
one under the null.  Deviations alter location, scale, correlation, tail
weight, or the outcome-generating model for the optional binary target.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np
from scipy.special import expit

from .core import DataMatrix, MultiSample

DGPS = ("normal", "t3", "lognormal", "chisq1")
DEVIATIONS = (
    "null", "shift", "scale", "correlation", "kurtosis", "normal_vs_t",
    "skew_kurtosis", "ogm_sign", "ogm_size", "ogm_different",
)
GROUPINGS_K4 = ("3+1", "2+2", "2+1+1", "1+1+1+1")

# Deviation grids for the full factorial design.
SHIFT_GRID = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5)
SCALE_GRID = (1 / 10, 1 / 3, 1 / 2, 2 / 3, 4 / 5, 5 / 4, 3 / 2, 2.0, 3.0, 10.0)
CORR_GRID_K2 = (0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8)
CORR_GRID_K4 = (0.05, 0.1, 0.2, 0.3)
NORMAL_VS_T_GRID = (30.0, 20.0, 10.0, 5.0, 3.0)
KURTOSIS_GRID = (3.05, 3.1, 3.2, 3.3, 3.4)       # deviating df
KURTOSIS_STEP_GRID = (0.05, 0.1, 0.2, 0.3, 0.4)  # df increment per group
SKEWKURT_GRID = (1.1, 1.5, 2.0, 3.0, 4.0, 5.0)
SKEWKURT_STEP_GRID = (0.1, 0.5, 1.0, 2.0, 3.0, 4.0)

N_GRID_K2 = (50, 100, 200, 500, 1000)
N_GRID_K4 = (100, 200, 400)
P_GRID = (2, 10, 50)
BALANCES = ("balanced", "unbalanced")

# Thinned grids for desk-scale runs.
DESK_SHIFT_GRID = (0.25, 0.75, 1.5)
DESK_SCALE_GRID = (1 / 3, 2 / 3, 3 / 2, 3.0)
DESK_CORR_GRID_K2 = (0.1, 0.3, 0.6)
DESK_CORR_GRID_K4 = (0.1, 0.3)
DESK_NORMAL_VS_T_GRID = (20.0, 5.0, 3.0)
DESK_KURTOSIS_GRID = (3.1, 3.3)
DESK_KURTOSIS_STEP_GRID = (0.1, 0.3)
DESK_SKEWKURT_GRID = (1.5, 3.0, 5.0)
DESK_SKEWKURT_STEP_GRID = (0.5, 2.0, 4.0)
DESK_N_GRID_K2 = (50, 100, 200)
DESK_N_GRID_K4 = (100, 200)
DESK_P_GRID = (2, 10)

# Log-normal null parameters solved from mean-1 / variance-1 constraints:
# exp(mu + s2/2) = 1 and (exp(s2) - 1) exp(2 mu + s2) = 1.
_LN_SIGMA2 = math.log(2.0)
_LN_MU = -math.log(2.0) / 2.0

_VALID_PAIRS = {
    "normal": {"null", "shift", "scale", "correlation", "normal_vs_t"},
    "lognormal": {"null", "shift", "scale"},
    "t3": {"null", "shift", "scale", "correlation", "kurtosis"},
    "chisq1": {"null", "skew_kurtosis"},
}
_OGM_DEVIATIONS = ("ogm_sign", "ogm_size", "ogm_different")


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
class OgmSpec:
    """Logistic outcome-generating model: eta = -1/2 + x beta."""

    p: int
    variant: str = "null"  # null | sign | size | different

    def __post_init__(self):
        if self.p % 2 != 0:
            raise ConfigError("outcome model needs an even variable count")
        if self.variant not in ("null", "sign", "size", "different"):
            raise ConfigError(f"unknown OGM variant {self.variant!r}")

    @property
    def intercept(self) -> float:
        return -0.5

    @property
    def beta(self) -> np.ndarray:
        half = self.p // 2
        base = 0.5 * np.concatenate([np.ones(half), -np.ones(half)])
        if self.variant == "null":
            return base
        if self.variant == "sign":
            return -base
        if self.variant == "size":
            return base / 2.0
        # "different": sign-flipped and four times steeper, a hyperplane
        # unrelated to the null model.
        return -4.0 * base


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
    with_target: bool = False

    def __post_init__(self):
        if self.dgp not in DGPS:
            raise ConfigError(f"unknown dgp {self.dgp!r}")
        if self.deviation not in DEVIATIONS:
            raise ConfigError(f"unknown deviation {self.deviation!r}")
        if self.balance not in BALANCES:
            raise ConfigError(f"unknown balance {self.balance!r}")
        if self.k == 2:
            if self.grouping != "1+1":
                raise ConfigError("k=2 requires grouping '1+1'")
        elif self.k == 4:
            if self.grouping not in GROUPINGS_K4:
                raise ConfigError(f"bad k=4 grouping {self.grouping!r}")
        else:
            raise ConfigError("k must be 2 or 4")
        if self.deviation in _OGM_DEVIATIONS:
            if not self.with_target or self.k != 2:
                raise ConfigError(
                    "outcome-model deviations need with_target and k=2")
        elif self.deviation != "null":
            if self.deviation not in _VALID_PAIRS[self.dgp]:
                raise ConfigError(
                    f"deviation {self.deviation!r} undefined for {self.dgp}")
            if self.deviation == "normal_vs_t" and self.k != 2:
                raise ConfigError("normal_vs_t is a two-sample deviation")
        if self.with_target and self.p % 2 != 0:
            raise ConfigError("target scenarios need even p")

    @property
    def scenario_id(self) -> str:
        parts = [f"k{self.k}", self.dgp, self.deviation]
        if self.deviation != "null" and self.deviation not in _OGM_DEVIATIONS:
            parts.append(f"m{self.magnitude:g}")
        parts += [f"N{self.n_total}", f"p{self.p}", self.balance]
        if self.k == 4:
            parts.append(self.grouping.replace("+", ""))
        if self.with_target:
            parts.append("tgt")
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
    n = spec.n_total
    if spec.k == 2:
        pi = 0.5 if spec.balance == "balanced" else 0.2
        n1 = pi * n
        if abs(n1 - round(n1)) > 1e-9:
            raise ConfigError(f"non-integral split {pi} * {n}")
        n1 = int(round(n1))
        return (n1, n - n1)
    if spec.balance == "balanced":
        weights = (0.25, 0.25, 0.25, 0.25)
    else:
        weights = (0.1, 0.2, 0.3, 0.4)
    sizes = []
    for w in weights:
        ni = w * n
        if abs(ni - round(ni)) > 1e-9:
            raise ConfigError(f"non-integral split {w} * {n}")
        sizes.append(int(round(ni)))
    return tuple(sizes)


def _deviation_levels(spec: ScenarioSpec) -> tuple[float, ...]:
    """The deviating parameter value for each of the k samples.

    For shift the level is delta, for scale the factor s, for correlation
    rho, for kurtosis / skew-kurtosis the df of the t / chi-squared
    distribution, and for normal_vs_t the df of the deviating sample."""
    dev = spec.deviation
    if dev == "normal_vs_t":
        return (0.0, spec.magnitude)  # first level unused (normal sample)
    if dev == "shift":
        base = 0.0
    elif dev == "scale":
        base = 1.0
    elif dev == "correlation":
        base = 0.0
    elif dev == "kurtosis":
        base = 3.0
    elif dev == "skew_kurtosis":
        base = 1.0
    else:
        raise ConfigError(f"no deviation levels for {dev!r}")
    m = spec.magnitude
    if spec.k == 2:
        return (base, m)
    if spec.grouping == "3+1":
        return (base, base, base, m)
    if spec.grouping == "2+2":
        return (base, base, m, m)
    raise AssertionError("stepwise groupings are handled separately")


def _levels_stepwise(spec: ScenarioSpec) -> tuple[float, ...]:
    """Per-sample levels for the '2+1+1' and '1+1+1+1' groupings."""
    dev = spec.deviation
    m = spec.magnitude
    if dev == "shift":
        base, combine = 0.0, lambda b, s: b + s
    elif dev == "scale":
        base, combine = 1.0, lambda b, s: b * s
    elif dev == "correlation":
        base, combine = 0.0, lambda b, s: b + s
    elif dev == "kurtosis":
        base, combine = 3.0, lambda b, s: b + s
    elif dev == "skew_kurtosis":
        base, combine = 1.0, lambda b, s: b + s
    else:
        raise ConfigError(f"no stepwise levels for {dev!r}")
    if spec.grouping == "2+1+1":
        if dev == "scale":
            return (base, base, m, m * m)
        return (base, base, combine(base, m), combine(base, 2 * m))
    # 1+1+1+1: level of sample j is the (j-1)-fold step
    if dev == "scale":
        return tuple(m ** j for j in range(4))
    return tuple(combine(base, j * m) for j in range(4))


def deviation_levels(spec: ScenarioSpec) -> tuple[float, ...]:
    if spec.k == 2 or spec.grouping in ("3+1", "2+2"):
        return _deviation_levels(spec)
    return _levels_stepwise(spec)


def _equicorrelation(p: int, rho: float) -> np.ndarray:
    return rho * np.ones((p, p)) + (1 - rho) * np.eye(p)


def _draw_normal(rng, n, p, shift=0.0, scale=1.0, rho=0.0):
    z = rng.standard_normal((n, p))
    if rho != 0.0:
        chol = np.linalg.cholesky(_equicorrelation(p, rho))
        z = z @ chol.T
    if scale != 1.0:
        z = z * scale_factor(p, scale)
    if shift != 0.0:
        z = z + shift_offset(p, shift)
    return z


def _draw_t(rng, n, p, df, shift=0.0, scale=1.0, rho=0.0, var_one=True):
    """Multivariate t via normal over sqrt(chi2/df).

    With var_one the dispersion is (df-2)/df * I so every component has
    variance one; the scale factor multiplies the variables themselves."""
    disp_factor = (df - 2.0) / df if var_one else 1.0
    z = rng.standard_normal((n, p))
    if rho != 0.0:
        chol = np.linalg.cholesky(_equicorrelation(p, rho))
        z = z @ chol.T
    z = z * math.sqrt(disp_factor)
    u = rng.chisquare(df, size=n)
    x = z / np.sqrt(u / df)[:, None]
    if scale != 1.0:
        x = x * scale_factor(p, scale)
    if shift != 0.0:
        x = x + shift_offset(p, shift)
    return x


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


def _draw_sample(rng, spec: ScenarioSpec, j: int, level: float) -> np.ndarray:
    """Draw sample j (0-based) of the scenario at the given deviation level."""
    n = sample_sizes(spec)[j]
    p = spec.p
    dev = spec.deviation
    if dev == "normal_vs_t":
        if j == 0:
            return _draw_normal(rng, n, p)
        return _draw_t(rng, n, p, df=level)
    if spec.dgp == "normal":
        if dev in ("null",) or dev in _OGM_DEVIATIONS:
            return _draw_normal(rng, n, p)
        if dev == "shift":
            return _draw_normal(rng, n, p, shift=level)
        if dev == "scale":
            return _draw_normal(rng, n, p, scale=level)
        if dev == "correlation":
            return _draw_normal(rng, n, p, rho=level)
    elif spec.dgp == "t3":
        if dev in ("null",) or dev in _OGM_DEVIATIONS:
            return _draw_t(rng, n, p, df=3.0)
        if dev == "shift":
            return _draw_t(rng, n, p, df=3.0, shift=level)
        if dev == "scale":
            return _draw_t(rng, n, p, df=3.0, scale=level)
        if dev == "correlation":
            return _draw_t(rng, n, p, df=3.0, rho=level)
        if dev == "kurtosis":
            return _draw_t(rng, n, p, df=level)
    elif spec.dgp == "lognormal":
        if dev in ("null",) or dev in _OGM_DEVIATIONS:
            return _draw_lognormal(rng, n, p)
        if dev == "shift":
            return _draw_lognormal(rng, n, p, shift=level)
        if dev == "scale":
            return _draw_lognormal(rng, n, p, scale=level)
    elif spec.dgp == "chisq1":
        if dev in ("null",) or dev in _OGM_DEVIATIONS:
            return _draw_chisq(rng, n, p, df=1.0)
        if dev == "skew_kurtosis":
            return _draw_chisq(rng, n, p, df=level)
    raise ConfigError(f"cannot draw {spec.dgp} with deviation {dev}")


def gen_target(x: np.ndarray, ogm: OgmSpec, rng) -> np.ndarray:
    """Binary labels from the logistic outcome model."""
    eta = ogm.intercept + x @ ogm.beta
    prob = expit(eta)
    return (rng.random(x.shape[0]) < prob).astype(np.int64)


def sample_scenario(spec: ScenarioSpec, rng) -> MultiSample:
    """Draw one repetition of the scenario. rng is a numpy Generator."""
    if spec.deviation == "null" or spec.deviation in _OGM_DEVIATIONS:
        levels = tuple(0.0 for _ in range(spec.k))
    else:
        levels = deviation_levels(spec)
    mats = [_draw_sample(rng, spec, j, levels[j]) for j in range(spec.k)]
    target = None
    if spec.with_target:
        variant_by_dev = {"ogm_sign": "sign", "ogm_size": "size",
                          "ogm_different": "different"}
        dev_variant = variant_by_dev.get(spec.deviation, "null")
        labels = []
        for j, x in enumerate(mats):
            variant = dev_variant if j == spec.k - 1 else "null"
            labels.append(gen_target(x, OgmSpec(spec.p, variant), rng))
        target = np.concatenate(labels)
    return MultiSample(tuple(DataMatrix(x) for x in mats), target=target)


def rng_for(master_seed: int, scenario_index: int, rep: int):
    """Deterministic per-(scenario, repetition) stream; order-independent."""
    ss = np.random.SeedSequence(master_seed,
                                spawn_key=(scenario_index, rep))
    return np.random.default_rng(ss)


def _grids(full: bool):
    if full:
        return dict(
            shift=SHIFT_GRID, scale=SCALE_GRID, corr_k2=CORR_GRID_K2,
            corr_k4=CORR_GRID_K4, normal_vs_t=NORMAL_VS_T_GRID,
            kurtosis=KURTOSIS_GRID, kurtosis_step=KURTOSIS_STEP_GRID,
            skewkurt=SKEWKURT_GRID, skewkurt_step=SKEWKURT_STEP_GRID,
            n_k2=N_GRID_K2, n_k4=N_GRID_K4, p=P_GRID)
    return dict(
        shift=DESK_SHIFT_GRID, scale=DESK_SCALE_GRID,
        corr_k2=DESK_CORR_GRID_K2, corr_k4=DESK_CORR_GRID_K4,
        normal_vs_t=DESK_NORMAL_VS_T_GRID, kurtosis=DESK_KURTOSIS_GRID,
        kurtosis_step=DESK_KURTOSIS_STEP_GRID, skewkurt=DESK_SKEWKURT_GRID,
        skewkurt_step=DESK_SKEWKURT_STEP_GRID, n_k2=DESK_N_GRID_K2,
        n_k4=DESK_N_GRID_K4, p=DESK_P_GRID)


def _magnitude_grid(g, dgp, deviation, k, grouping):
    if deviation == "shift":
        return g["shift"]
    if deviation == "scale":
        return g["scale"]
    if deviation == "correlation":
        return g["corr_k2"] if k == 2 else g["corr_k4"]
    if deviation == "normal_vs_t":
        return g["normal_vs_t"]
    if deviation == "kurtosis":
        if k == 4 and grouping in ("2+1+1", "1+1+1+1"):
            return g["kurtosis_step"]
        return g["kurtosis"]
    if deviation == "skew_kurtosis":
        if k == 4 and grouping in ("2+1+1", "1+1+1+1"):
            return g["skewkurt_step"]
        return g["skewkurt"]
    raise ConfigError(deviation)


def scenario_grid(case: str, full: bool = False) -> list[ScenarioSpec]:
    """Full factorial scenario list for one of the three study cases.

    case is one of 'two_sample', 'two_sample_target', 'four_sample'."""
    g = _grids(full)
    specs: list[ScenarioSpec] = []
    if case == "two_sample":
        for dgp in DGPS:
            devs = sorted(_VALID_PAIRS[dgp] - {"null"})
            for p in g["p"]:
                for n in g["n_k2"]:
                    for bal in BALANCES:
                        specs.append(ScenarioSpec(dgp, "null", 0.0, n, p, bal))
                        for dev in devs:
                            for m in _magnitude_grid(g, dgp, dev, 2, "1+1"):
                                specs.append(ScenarioSpec(
                                    dgp, dev, float(m), n, p, bal))
    elif case == "two_sample_target":
        for dgp in DGPS:
            devs = sorted(_VALID_PAIRS[dgp] - {"null"})
            for p in g["p"]:
                if p % 2 != 0:
                    continue
                for n in g["n_k2"]:
                    for bal in BALANCES:
                        specs.append(ScenarioSpec(
                            dgp, "null", 0.0, n, p, bal, with_target=True))
                        for dev in devs:
                            for m in _magnitude_grid(g, dgp, dev, 2, "1+1"):
                                specs.append(ScenarioSpec(
                                    dgp, dev, float(m), n, p, bal,
                                    with_target=True))
                        for dev in _OGM_DEVIATIONS:
                            specs.append(ScenarioSpec(
                                dgp, dev, 0.0, n, p, bal, with_target=True))
    elif case == "four_sample":
        for dgp in DGPS:
            devs = sorted((_VALID_PAIRS[dgp] - {"null", "normal_vs_t"}))
            for p in g["p"]:
                for n in g["n_k4"]:
                    for bal in BALANCES:
                        specs.append(ScenarioSpec(
                            dgp, "null", 0.0, n, p, bal, k=4, grouping="3+1"))
                        for grouping in GROUPINGS_K4:
                            for dev in devs:
                                for m in _magnitude_grid(g, dgp, dev, 4,
                                                         grouping):
                                    specs.append(ScenarioSpec(
                                        dgp, dev, float(m), n, p, bal, k=4,
                                        grouping=grouping))
    else:
        raise ConfigError(f"unknown case {case!r}")
    return specs
