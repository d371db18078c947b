"""Generalized randomized response (GRR) primitives and bounded-range checks.

A mechanism is eps-bounded-range (BR) when, for each pair of neighboring
inputs, every outcome's log-likelihood ratio lies in an interval
``[t - eps, t]`` for a single offset ``t in [0, eps]``.  The two-outcome
worst case is the GRR mechanism: on input 0 it outputs 0 with probability
``q = (1 - e^(t-eps)) / (1 - e^(-eps))`` and on input 1 it outputs 0 with
probability ``p = (e^(-t) - e^(-eps)) / (1 - e^(-eps))``, so that
``q = e^t * p`` and ``1 - q = e^(t-eps) * (1 - p)``.

Also provides exponential-mechanism scoring utilities (sensitivity- and
range-normalized variants) and the counting-query mechanism whose
per-outcome log-ratios land exactly on the two interval endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

PROB_SUM_TOL = 1e-12
BR_SLACK = 1e-9  # absolute slack on log-ratio comparisons


def q_of_t(eps, t):
    """Probability that GRR(0) = 0.  Accepts scalars or arrays."""
    return np.expm1(np.asarray(t, dtype=float) - eps) / np.expm1(-eps)


def p_of_t(eps, t):
    """Probability that GRR(1) = 0.  Accepts scalars or arrays."""
    t = np.asarray(t, dtype=float)
    return np.exp(-t) * (np.expm1(t - eps) / np.expm1(-eps))


def one_minus_p(eps, t):
    """1 - p computed without cancellation for small t."""
    return np.expm1(-np.asarray(t, dtype=float)) / np.expm1(-eps)


def one_minus_q(eps, t):
    """1 - q computed without cancellation for t near eps."""
    t = np.asarray(t, dtype=float)
    return np.exp(t - eps) * (np.expm1(-t) / np.expm1(-eps))


def grr_probs(eps: float, t: float) -> tuple[float, float]:
    """Return ``(p, q)`` for the GRR mechanism with parameters ``(eps, t)``.

    ``eps`` must be finite and positive (an eps of zero would make the
    defining ratio 0/0; such a mechanism is data independent and is skipped
    by the composition layers instead).  ``t`` must lie in ``[0, eps]``.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if not 0.0 <= t <= eps:
        raise ValueError(f"t must lie in [0, eps={eps}], got {t}")
    q = float(q_of_t(eps, t))
    p = math.exp(-t) * q
    return p, q


@dataclass(frozen=True)
class FiniteMechanismPair:
    """Output distributions of one mechanism on two neighboring datasets."""

    probs_x: np.ndarray
    probs_x_prime: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.probs_x, dtype=float)
        pxp = np.asarray(self.probs_x_prime, dtype=float)
        object.__setattr__(self, "probs_x", px)
        object.__setattr__(self, "probs_x_prime", pxp)
        if px.ndim != 1 or px.shape != pxp.shape:
            raise ValueError("probability vectors must be 1-D with matching shapes")
        for name, v in (("probs_x", px), ("probs_x_prime", pxp)):
            if (v < 0).any():
                raise ValueError(f"{name} has negative entries")
            if abs(v.sum() - 1.0) > PROB_SUM_TOL:
                raise ValueError(f"{name} sums to {v.sum()}, not 1")


def br_witness(pair: FiniteMechanismPair, eps: float) -> Optional[float]:
    """Smallest ``t in [0, eps]`` such that all log-ratios lie in [t - eps, t].

    Returns None when the pair is not eps-BR, including the case where an
    outcome has positive mass under exactly one of the two distributions
    (infinite log-ratio).  Outcomes with zero mass under both are ignored.
    Comparisons carry an absolute slack so mechanisms assembled from
    floating-point arithmetic still verify.
    """
    if not eps >= 0.0:   # nan too
        raise ValueError(f"eps must be nonnegative, got {eps}")
    px = pair.probs_x
    pxp = pair.probs_x_prime
    sup_x = px > 0.0
    sup_xp = pxp > 0.0
    if (sup_x != sup_xp).any():
        return None
    both = sup_x & sup_xp
    if not both.any():
        return None
    ratios = np.log(px[both]) - np.log(pxp[both])
    lo = max(float(ratios.max()), 0.0)
    hi = min(float(ratios.min()) + eps, eps)
    if lo > hi + BR_SLACK:
        return None
    return min(lo, eps)


# ---------------------------------------------------------------------------
# Quality scores and the exponential mechanism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QualityScoreTable:
    """A finite quality-score matrix with explicit neighbor pairs.

    ``scores[x, y]`` is the score of outcome ``y`` on dataset ``x``;
    ``neighbors`` lists the dataset-index pairs considered adjacent.
    """

    scores: np.ndarray
    neighbors: Sequence[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "scores", s)
        nb = [(int(a), int(b)) for a, b in self.neighbors]
        object.__setattr__(self, "neighbors", nb)
        if s.ndim != 2 or s.shape[1] < 1:
            raise ValueError("scores must be a 2-D matrix with at least one outcome")
        n = s.shape[0]
        for a, b in nb:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"neighbor pair ({a}, {b}) out of range for {n} datasets")


def quality_sensitivity(table: QualityScoreTable) -> float:
    """Max over outcomes and neighbor pairs of |u(x, y) - u(x', y)|."""
    if not table.neighbors:
        raise ValueError("need at least one neighbor pair")
    best = 0.0
    for a, b in table.neighbors:
        diff = table.scores[a] - table.scores[b]
        best = max(best, float(np.abs(diff).max()))
    return best


def quality_range(table: QualityScoreTable) -> float:
    """Max over neighbor pairs of the spread of per-outcome score differences.

    Unlike the sensitivity, this ignores data-only shifts: adding any
    function of the dataset alone to the score leaves it unchanged.
    """
    if not table.neighbors:
        raise ValueError("need at least one neighbor pair")
    best = 0.0
    for a, b in table.neighbors:
        diff = table.scores[a] - table.scores[b]
        best = max(best, float(diff.max() - diff.min()))
    return best


class ExpMechResult(NamedTuple):
    probs: np.ndarray
    degenerate: bool  # True when the normalizer was 0 and uniform was returned


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    w = np.exp(z)
    return w / w.sum()


def exp_mech_probs(table: QualityScoreTable, eps: float, dataset: int,
                   normalizer: str = "range") -> ExpMechResult:
    """Selection probabilities of the exponential mechanism on one dataset.

    ``normalizer`` chooses the scaling of the score: ``"sensitivity"`` uses
    twice the sensitivity (the classical calibration), ``"range"`` uses the
    range (gives an eps-BR mechanism with no factor of two).  A zero
    normalizer means the score cannot distinguish neighboring datasets, so
    the uniform distribution is returned with ``degenerate=True`` instead of
    dividing by zero.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    u = table.scores[dataset]
    if normalizer == "sensitivity":
        norm = 2.0 * quality_sensitivity(table)
    elif normalizer == "range":
        norm = quality_range(table)
    else:
        raise ValueError(f"unknown normalizer {normalizer!r}")
    if norm <= 0.0:
        m = u.shape[0]
        return ExpMechResult(np.full(m, 1.0 / m), True)
    return ExpMechResult(_softmax(eps * u / norm), False)


# ---------------------------------------------------------------------------
# Counting-query mechanism
# ---------------------------------------------------------------------------


def _validate_bits(data) -> np.ndarray:
    m = np.asarray(data, dtype=float)
    if m.ndim != 2 or m.shape[1] < 1:
        raise ValueError("bit matrix must be 2-D with at least one column")
    if not np.isin(m, (0.0, 1.0)).all():
        raise ValueError("bit matrix entries must be 0 or 1")
    return m


def _logsumexp(v: np.ndarray) -> float:
    m = float(v.max())
    return m + math.log(np.exp(v - m).sum())


def counting_query_mech(data, eps: float) -> np.ndarray:
    """Outcome distribution when selecting a column with weight exp(eps * column sum).

    The column-sum score is monotone with sensitivity 1 under row
    addition/removal, so no factor of two is applied.
    """
    m = _validate_bits(data)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return _softmax(eps * m.sum(axis=0))


def cq_t_value(data, data_prime, eps: float) -> float:
    """Log-ratio of normalizing sums for two neighboring bit matrices.

    The matrices must differ by exactly one row.  The returned ``t`` lies in
    ``[0, eps]`` and satisfies: for every column ``j``, the log-ratio of the
    smaller matrix's selection probability to the larger matrix's is either
    ``t - eps`` or ``t``.
    """
    a = _validate_bits(data)
    b = _validate_bits(data_prime)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column counts differ: {a.shape[1]} vs {b.shape[1]}")
    if abs(a.shape[0] - b.shape[0]) != 1:
        raise ValueError("matrices must differ by exactly one row")
    big, small = (a, b) if a.shape[0] > b.shape[0] else (b, a)
    return (_logsumexp(eps * big.sum(axis=0))
            - _logsumexp(eps * small.sum(axis=0)))
