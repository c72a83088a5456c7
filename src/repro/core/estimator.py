"""Rank / CDF / quantile estimation over a weighted coreset of levels.

Both the REQ sketch and the KLL baseline expose their state as a list of
``(weight, sorted_values)`` pairs — items at level h count with weight
2^h (Algorithm 2, Estimate-Rank).  The estimators here are vectorized
over query arrays via ``numpy.searchsorted``.

Rank convention: R(y) = |{x_i : x_i <= y}| (paper §1), i.e. inclusive
rank, estimated with ``searchsorted(..., side="right")``.

NaN is not ordered against the stream, so a NaN query point or quantile
fraction raises ``ValueError`` instead of returning a plausible answer.
"""
from __future__ import annotations

from typing import List, Protocol, Sequence, Tuple

import numpy as np


class WeightedLevels(Protocol):
    """Anything that can present itself as weighted sorted level arrays."""

    def level_arrays(self) -> List[Tuple[int, np.ndarray]]: ...


def estimate_ranks(sketch: WeightedLevels, queries: Sequence[float]) -> np.ndarray:
    """Estimated inclusive ranks R-hat(y) for each query y (int64 array)."""
    qs = np.asarray(queries, dtype=np.float64).ravel()
    if np.isnan(qs).any():
        raise ValueError("NaN query points have no rank")
    out = np.zeros(qs.shape, dtype=np.int64)
    for weight, arr in sketch.level_arrays():
        if arr.size:
            out += weight * np.searchsorted(arr, qs, side="right")
    return out


def estimate_rank(sketch: WeightedLevels, y: float) -> int:
    return int(estimate_ranks(sketch, [y])[0])


def total_weight(sketch: WeightedLevels) -> int:
    """Sum of item weights — the sketch's notion of the stream length."""
    return int(sum(w * arr.size for w, arr in sketch.level_arrays()))


def weighted_coreset(sketch: WeightedLevels) -> Tuple[np.ndarray, np.ndarray]:
    """All stored items merged into one sorted array plus parallel weights."""
    levels = [(w, a) for w, a in sketch.level_arrays() if a.size]
    if not levels:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
    values = np.concatenate([a for _, a in levels])
    weights = np.concatenate(
        [np.full(a.size, w, dtype=np.int64) for w, a in levels]
    )
    order = np.argsort(values, kind="stable")
    return values[order], weights[order]


def estimate_cdf(sketch: WeightedLevels, queries: Sequence[float]) -> np.ndarray:
    """Estimated CDF value R-hat(y)/W at each query, W = total weight."""
    w = total_weight(sketch)
    if w == 0:
        raise ValueError("empty sketch has no CDF")
    return estimate_ranks(sketch, queries) / float(w)

def estimate_quantiles(sketch: WeightedLevels, phis: Sequence[float]) -> np.ndarray:
    """For each phi in [0, 1], the smallest stored item whose estimated
    normalized rank is >= phi (the classic mergeable-summary quantile query)."""
    ph = np.asarray(phis, dtype=np.float64).ravel()
    if not np.all((ph >= 0) & (ph <= 1)):  # also rejects NaN
        raise ValueError("quantile fractions must lie in [0, 1]")
    values, weights = weighted_coreset(sketch)
    if values.size == 0:
        raise ValueError("empty sketch has no quantiles")
    cum = np.cumsum(weights)
    targets = np.clip(np.ceil(ph * cum[-1]), 1, cum[-1])
    idx = np.searchsorted(cum, targets, side="left")
    return values[idx]


def estimate_quantile(sketch: WeightedLevels, phi: float) -> float:
    return float(estimate_quantiles(sketch, [phi])[0])
