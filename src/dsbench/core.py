"""Shared data model: samples, pooling, distances, statistic values."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import pdist, squareform

DISSIMILARITY = "dissimilarity"
SIMILARITY = "similarity"


class DimensionError(ValueError):
    """Raised when sample dimensions are inconsistent."""


class UnsupportedConfigError(ValueError):
    """Raised when a method cannot handle the given configuration.

    The harness records these as missing values instead of aborting."""


@dataclass(frozen=True)
class DataMatrix:
    """One sample: n observations of p numeric variables."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionError(f"expected 2-d array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError(f"empty data matrix: shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("data matrix contains non-finite entries")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MultiSample:
    """Ordered collection of k samples over a shared variable space."""

    samples: tuple[DataMatrix, ...]

    def __post_init__(self):
        samples = tuple(self.samples)
        if len(samples) < 2:
            raise DimensionError("need at least two samples")
        p = samples[0].p
        for s in samples[1:]:
            if s.p != p:
                raise DimensionError(
                    f"variable counts differ: {s.p} != {p}")
        object.__setattr__(self, "samples", samples)

    @property
    def k(self) -> int:
        return len(self.samples)

    @property
    def p(self) -> int:
        return self.samples[0].p

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(s.n for s in self.samples)

    @property
    def total_n(self) -> int:
        return sum(s.n for s in self.samples)


@dataclass(frozen=True)
class StatValue:
    """A computed statistic with its extremeness direction.

    value is NaN iff error is set.  flags carries non-fatal diagnostics
    (e.g. a pseudo-inverse was needed)."""

    method_id: str
    value: float
    direction: str
    error: str | None = None
    flags: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.direction not in (DISSIMILARITY, SIMILARITY):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.error is None and not np.isfinite(self.value):
            raise ValueError(
                f"{self.method_id}: non-finite value without error flag")

    @property
    def ok(self) -> bool:
        return self.error is None


def pool(ms: MultiSample) -> tuple[DataMatrix, np.ndarray]:
    """Concatenate samples in order; labels take values 1..k."""
    values = np.concatenate([s.values for s in ms.samples], axis=0)
    labels = np.concatenate(
        [np.full(s.n, i + 1, dtype=np.int64) for i, s in enumerate(ms.samples)])
    return DataMatrix(values), labels


def stable_argsort(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """``np.argsort(a, axis, kind="stable")`` for NaN-free `a`, from the
    faster default sort: each run of equal keys then gets its indices put
    in ascending order."""
    a = np.asarray(a).swapaxes(axis, -1)
    idx = np.argsort(a, axis=-1)
    keys = np.take_along_axis(a, idx, axis=-1)
    tied = np.empty(idx.shape, dtype=bool)  # equal to the key before it
    tied[..., :1] = False
    np.equal(keys[..., 1:], keys[..., :-1], out=tied[..., 1:])
    del keys
    tied = tied.reshape(-1)
    in_run = tied.copy()  # a line's first key is never tied, so no run
    in_run[:-1] |= tied[1:]  # crosses into the next line
    pos = np.flatnonzero(in_run)
    opens = ~tied[pos]
    start = pos[opens][np.cumsum(opens) - 1]
    # runs hold consecutive positions, so one sort of (run start, index)
    # orders every run at once
    m = idx.shape[-1]
    flat = idx.reshape(-1)
    key = start * m + flat[pos]
    key.sort()
    flat[pos] = key % m
    return flat.reshape(idx.shape).swapaxes(axis, -1)


def distance_matrix(x: DataMatrix | np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, exactly symmetric with zero diagonal."""
    values = x.values if isinstance(x, DataMatrix) else np.asarray(x, float)
    return squareform(pdist(values))
