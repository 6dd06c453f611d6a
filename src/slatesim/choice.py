"""Regularized choice solvers over a display set: softmax, simplex projection, Gumbel sampling."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

# probabilities are clamped here before any downstream log
PROB_FLOOR = 1e-300


class Regularizer(Enum):
    """Omega in the user's choice rule  max over the simplex of <phi, r> - Omega(phi) / eta.

    Every method works on the last axis, so a (..., slots) array is solved row by row."""

    SHANNON_ENTROPY = "entropy"
    L2 = "l2"

    def probs(self, r: np.ndarray, eta: float) -> np.ndarray:
        """The maximizing phi: softmax(eta r), or the projection of eta r / 2 (may be sparse)."""
        if self is Regularizer.SHANNON_ENTROPY:
            return softmax(eta * r)
        return project_to_simplex(0.5 * eta * r)

    def inner_max(self, r: np.ndarray, eta: float) -> np.ndarray:
        """The maximum itself: logsumexp(eta r) / eta, or the objective at the projection."""
        if self is Regularizer.SHANNON_ENTROPY:
            return logsumexp(eta * r) / eta
        phi = self.probs(r, eta)
        return np.sum(phi * r, axis=-1) - self.omega(phi) / eta

    def omega(self, phi: np.ndarray) -> np.ndarray:
        """sum phi log phi (0 log 0 = 0) for entropy, sum phi^2 for L2."""
        if self is Regularizer.SHANNON_ENTROPY:
            return np.sum(np.where(phi > 0, phi * np.log(np.clip(phi, PROB_FLOOR, None)), 0.0), axis=-1)
        return np.sum(phi * phi, axis=-1)

    def omega_grad(self, phi: np.ndarray) -> np.ndarray:
        """d Omega / d phi: log phi + 1 for entropy, 2 phi for L2."""
        if self is Regularizer.SHANNON_ENTROPY:
            return np.log(np.clip(phi, PROB_FLOOR, None)) + 1.0
        return 2.0 * phi


@dataclass(frozen=True)
class ChoiceConfig:
    """Exploration strength eta (> 0) and the regularizer shaping the choice rule."""

    eta: float = 1.0
    regularizer: Regularizer = Regularizer.SHANNON_ENTROPY

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")


def _check_rewards(rewards: np.ndarray) -> np.ndarray:
    """Rewards as a float (rows, slots) array, non-empty and finite."""
    arr = np.asarray(rewards, dtype=float)
    if arr.ndim != 2 or arr.size < 1:
        raise ValueError("rewards must be a non-empty (rows, slots) array")
    if not np.isfinite(arr).all():
        raise ValueError("rewards contain NaN or Inf")
    return arr


def softmax(logits: np.ndarray) -> np.ndarray:
    """Overflow-safe softmax over the last axis (max subtraction)."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def logsumexp(logits: np.ndarray) -> np.ndarray:
    """Overflow-safe log-sum-exp over the last axis."""
    zmax = logits.max(axis=-1)
    return zmax + np.log(np.sum(np.exp(logits - zmax[..., None]), axis=-1))


def project_to_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row (last axis) onto the probability simplex.

    Sort and threshold, O(n log n): the support is every index up to the last
    rho with u_rho - css_rho / rho > 0. A row is taken relative to its maximum,
    which leaves its projection unchanged and keeps the sums exact at any scale."""
    y = np.asarray(y, dtype=float)
    y = y - y.max(axis=-1, keepdims=True)
    u = np.sort(y, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    idx = np.arange(1, y.shape[-1] + 1)
    positive = (u - css / idx > 0)[..., ::-1]
    rho = y.shape[-1] - 1 - np.argmax(positive, axis=-1)[..., None]
    tau = np.take_along_axis(css, rho, axis=-1) / (rho + 1.0)
    return np.maximum(y - tau, 0.0)


def _gumbel_argmax(logits: np.ndarray, u: np.ndarray) -> np.ndarray:
    """argmax over the last axis of logits + g, with g = -log(-log(u)) standard Gumbel."""
    # np.clip(u, 1e-300, 1 - 1e-16) without its Python wrapper, which costs more than both ufuncs
    noise = -np.log(-np.log(np.minimum(np.maximum(u, 1e-300), 1.0 - 1e-16)))
    return np.argmax(logits + noise, axis=-1)


def sample_choice(rewards, config: ChoiceConfig, rng: Sequence[np.random.Generator]) -> np.ndarray:
    """Draw one choice index per row from the regularized choice distribution.

    (B, slots) rewards and a sequence of B generators give B indices, and each
    row draws exactly what it would draw alone (B=1)."""
    r = _check_rewards(rewards)
    if config.regularizer is Regularizer.SHANNON_ENTROPY:
        u = np.array([g.random(r.shape[1]) for g in rng])
        return _gumbel_argmax(config.eta * r, u)
    # projected distribution can be sparse; inverse-CDF sample it directly:
    # the index is the number of CDF entries <= u (searchsorted, side="right")
    cdf = np.cumsum(config.regularizer.probs(r, config.eta), axis=1)
    u = np.array([g.random() for g in rng])
    return np.minimum(np.sum(cdf <= u[:, None], axis=1), r.shape[1] - 1)
