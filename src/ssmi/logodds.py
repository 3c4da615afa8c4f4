"""Categorical belief arithmetic over K+1 classes in log-odds form.

A cell belief is a vector ``h`` of length K+1 with ``h[k] = ln(p_k / p_0)``,
where class 0 is free space and acts as the pivot, so ``h[0] == 0`` always.
Every operation here is a pure function on immutable arrays.

The cell update ``clamp(posterior_update(h, l, h0))`` is written out in two
forms that must agree bit for bit: on numpy rows, in rounds of one indexed
write over distinct cells in ``GridMap.insert_scan``, and on Python floats,
one element at a time, in ``octree.element_update``. A4 (octree equals grid
after the same beams) and the float-vs-numpy hypothesis test in
``tests/test_octree.py`` pin them together; the grid's form is also checked
against a per-cell loop over the functions here in ``tests/test_grid.py``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePivot, InvalidClass

__all__ = [
    "MAX_CLASSES",
    "CellRelation",
    "SensorParams",
    "softmax_pmf",
    "logodds_from_pmf",
    "inverse_observation",
    "posterior_update",
    "clamp",
    "entropy",
    "f_logratio",
    "f_logratio_rows",
    "logsumexp",
    "uniform_prior",
]


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray | float:
    """Stable log-sum-exp with max subtraction.

    Returns -inf for an all-(-inf) input instead of NaN, which the octree
    needs for empty "others" lumps.
    """
    a = np.asarray(a, dtype=np.float64)
    amax = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(amax), amax, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=axis)) + np.squeeze(shift, axis=axis)
    if out.ndim == 0:
        return float(out)
    return out


def uniform_prior(num_classes: int) -> np.ndarray:
    """All-zero log-odds vector: the uniform PMF over K+1 classes."""
    return np.zeros(num_classes + 1, dtype=np.float64)


class CellRelation(enum.Enum):
    """How a cell relates to one beam: contains the endpoint, traversed, or missed."""

    OCCUPIED = "occupied"
    FREE = "free"
    UNOBSERVED = "unobserved"


# K at most 255: the sensor's (K+1) x (K+1) float64 model stack then stays
# at 512 KiB, and class ids fit the world grid's int16 and the map files'
# 16-bit class fields with room to spare. Configs and map files above it
# are rejected.
MAX_CLASSES = 255


@dataclass(frozen=True)
class SensorParams:
    """Inverse observation model parameters.

    ``phi_plus + E[y+1] @ psi_plus`` is the log-odds assigned to the cell
    containing a beam endpoint labeled class y; ``phi_minus`` is assigned to
    every traversed cell before it. ``clamp_lo``/``clamp_hi`` bound stored
    log-odds so beliefs saturate, and ``alpha`` is the probability fraction
    split off the octree "others" lump when an untracked class is hit.
    ``models`` is the kernels' read-only (K+1, K+1) stack of them: row 0 is
    ``phi_minus``, row y is ``hit_logodds(y)``.
    """

    phi_plus: np.ndarray
    phi_minus: np.ndarray
    psi_plus: np.ndarray
    clamp_lo: np.ndarray
    clamp_hi: np.ndarray
    alpha: float = 0.5

    def __post_init__(self):
        for name in ("phi_plus", "phi_minus", "psi_plus", "clamp_lo", "clamp_hi"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n = self.phi_plus.shape[0]
        if any(getattr(self, v).shape != (n,) for v in ("phi_minus", "psi_plus", "clamp_lo", "clamp_hi")):
            raise ValueError("parameter vectors must share length K+1")
        if n < 2:
            raise ValueError("need at least one occupied class")
        for v in ("phi_plus", "phi_minus", "psi_plus"):
            if getattr(self, v)[0] != 0.0:
                raise ValueError(f"{v}[0] must be 0 (free-class pivot)")
            if not np.all(np.isfinite(getattr(self, v))):
                raise ValueError(f"{v} must be finite")
        if self.clamp_lo[0] != 0.0 or self.clamp_hi[0] != 0.0:
            raise ValueError("clamp bounds for the pivot element must be 0")
        if not np.all(self.clamp_lo[1:] < self.clamp_hi[1:]):
            raise ValueError("clamp_lo must be < clamp_hi elementwise")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        models = np.vstack([self.phi_minus, np.tile(self.phi_plus, (n - 1, 1))])
        models[np.arange(1, n), np.arange(1, n)] += self.psi_plus[1:]
        models.flags.writeable = False
        object.__setattr__(self, "models", models)

    @property
    def num_classes(self) -> int:
        return self.phi_plus.shape[0] - 1

    @classmethod
    def default(
        cls,
        num_classes: int,
        true_positive_rate: float = 0.65,
        free_odds: float = -1.39,
        hit_odds: float = 0.41,
        clamp_limit: float = 6.0,
        alpha: float = 0.5,
    ) -> "SensorParams":
        """Class-uniform profile.

        ``psi_plus`` is solved so the hit-model PMF assigns probability
        ``true_positive_rate`` to the observed class:

            sigma(phi_plus + E[y+1] psi_plus)[y] == true_positive_rate
        """
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if not 0.0 < true_positive_rate < 1.0:
            raise ValueError("true_positive_rate must be in (0, 1)")
        k = num_classes
        a = hit_odds
        boost = (
            math.log(true_positive_rate * (1.0 + (k - 1) * math.exp(a)) / (1.0 - true_positive_rate))
            - a
        )
        occ = np.ones(k, dtype=np.float64)
        zero = np.zeros(1, dtype=np.float64)
        return cls(
            phi_plus=np.concatenate([zero, a * occ]),
            phi_minus=np.concatenate([zero, free_odds * occ]),
            psi_plus=np.concatenate([zero, boost * occ]),
            clamp_lo=np.concatenate([zero, -clamp_limit * occ]),
            clamp_hi=np.concatenate([zero, clamp_limit * occ]),
            alpha=alpha,
        )

    def hit_logodds(self, y: int) -> np.ndarray:
        """Inverse-model log-odds for a hit labeled class ``y``."""
        if not 1 <= y <= self.num_classes:
            raise InvalidClass(f"hit class must be in 1..{self.num_classes}, got {y}")
        l = self.phi_plus.copy()
        l[y] += self.psi_plus[y]
        return l


def softmax_pmf(h: np.ndarray) -> np.ndarray:
    """Recover the categorical PMF from log-odds; stable for |h| up to ~700."""
    h = np.asarray(h, dtype=np.float64)
    z = h - np.max(h, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def logodds_from_pmf(p: np.ndarray) -> np.ndarray:
    """Log-odds against the free class: result[k] = ln(p[k] / p[0]).

    Raises DegeneratePivot when p[0] == 0, since the pivot ratio is undefined.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.any(p[..., 0] <= 0.0):
        raise DegeneratePivot("free-class probability must be positive")
    with np.errstate(divide="ignore"):
        return np.log(p) - np.log(p[..., :1])


def inverse_observation(
    rel: CellRelation, y: int | None, prior: np.ndarray, params: SensorParams
) -> np.ndarray:
    """Per-cell inverse observation log-odds for one beam.

    Occupied cells get the hit model for class y, traversed cells get
    ``phi_minus``, and cells the beam missed keep their prior (a no-op
    under the posterior update).
    """
    if rel is CellRelation.OCCUPIED:
        if y is None or y == 0:
            raise InvalidClass("a hit cell cannot carry the free class")
        return params.hit_logodds(y)
    if rel is CellRelation.FREE:
        return params.phi_minus.copy()
    return np.asarray(prior, dtype=np.float64).copy()


def posterior_update(h: np.ndarray, l: np.ndarray, h0: np.ndarray) -> np.ndarray:
    """Bayesian log-odds update: h + (l - h0). Additive, so order-free."""
    h = np.asarray(h, dtype=np.float64)
    l = np.asarray(l, dtype=np.float64)
    h0 = np.asarray(h0, dtype=np.float64)
    if not (h.shape == l.shape == h0.shape):
        raise ValueError("log-odds vectors must share length K+1")
    return h + (l - h0)


def clamp(h: np.ndarray, params: SensorParams) -> np.ndarray:
    """Elementwise saturation to [clamp_lo, clamp_hi]; idempotent."""
    return np.minimum(np.maximum(h, params.clamp_lo), params.clamp_hi)


def entropy(h: np.ndarray) -> float:
    """Shannon entropy in nats of one cell's PMF, or the total over a stack
    of cells (..., K+1), with 0 ln 0 taken as 0."""
    h = np.asarray(h, dtype=np.float64)
    logp = h - np.expand_dims(logsumexp(h), -1)
    p = np.exp(logp)
    with np.errstate(invalid="ignore"):
        terms = np.where(p > 0.0, p * logp, 0.0)
    return float(-np.sum(terms))


def f_logratio(phi: np.ndarray, h: np.ndarray) -> float:
    """Expected log-ratio between the updated and current cell PMFs.

        f(phi, h) = ln(1'exp(h) / 1'exp(phi+h)) + phi' sigma(phi+h)

    which equals KL(sigma(phi+h) || sigma(h)), hence is >= 0. This is the
    kernel of every beam information formula.
    """
    phi = np.asarray(phi, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    shifted = phi + h
    return float(logsumexp(h) - logsumexp(shifted) + phi @ softmax_pmf(shifted))


def f_logratio_rows(phi: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Row-wise f_logratio for (N, K+1) stacks. The reference for the beam
    kernels' fused row terms (``mi._row_terms``), which give these values
    bit for bit while sharing one log-sum-exp of ``h`` and one softmax pass
    over the free and hit models."""
    phi = np.asarray(phi, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    phi, h = np.broadcast_arrays(phi, h)
    shifted = phi + h
    z1 = logsumexp(h, axis=-1)
    z2 = logsumexp(shifted, axis=-1)
    return z1 - z2 + np.sum(phi * softmax_pmf(shifted), axis=-1)
