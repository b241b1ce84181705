"""Closed-form predictions: initial return variance and the span-counting variance bounds.

The bounds come from a birth chain for the dimension d spanned by random
binary strategy vectors: a new vector escapes the current span with
probability 1 - 2**(d - D). Counting a full degree of freedom per escape gives
the lower variance limit (transition at alpha = 1), counting half a degree the
upper limit (transition at alpha = 1/2, where positive weights first span the
space), and a mixing rule in between gives the heuristic curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError

LN10 = math.log(10.0)

INCREMENT_MODES = ("full", "half", "interpolated")

#: largest supported strategy-space dimension for the exact recursion
MAX_DIMENSION = 1 << 14


@dataclass(frozen=True)
class VarianceBounds:
    """Predicted log-return variance bracket at one alpha = D / N_s."""

    alpha: float
    lower: float
    heuristic: float
    upper: float


def var_r0(n_speculators: int) -> float:
    """Variance of the very first log return, 8 / (N_s ln(10)^2)."""
    if n_speculators < 1:
        raise ConfigError(f"n_speculators must be >= 1, got {n_speculators}")
    return 8.0 / (n_speculators * LN10 * LN10)


def _line_aligned(n: int) -> np.ndarray:
    """Zeroed float64 array starting on a 64-byte cache-line boundary.

    The recursion below runs up to 1.6x slower on arrays that start off a
    line boundary, and where the allocator places them depends on everything
    the process allocated before.
    """
    buf = np.zeros(n + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + n]


def dim_distribution(
    dimension: int, n_vectors: int, increment: str = "full"
) -> tuple[np.ndarray, np.ndarray]:
    """Distribution of the dimension spanned after adding ``n_vectors`` random vectors.

    The first vector spans d = 1 (a zero vector has negligible probability in
    the large-D regime); every further vector raises d by the increment with
    probability 1 - 2**(d - D), capped at D. Increments: ``full`` adds 1,
    ``half`` adds 1/2, ``interpolated`` adds the expected mix
    p1 * 1 + (1 - p1) * 1/2 with p1 = min(1, N / (2 D)).

    Returns ``(dims, probs)`` with probs summing to 1.
    """
    if not 1 <= dimension <= MAX_DIMENSION:
        raise ConfigError(f"dimension must be in [1, {MAX_DIMENSION}], got {dimension}")
    if n_vectors < 1:
        raise ConfigError(f"n_vectors must be >= 1, got {n_vectors}")
    if increment not in INCREMENT_MODES:
        raise ConfigError(f"increment must be one of {INCREMENT_MODES}, got {increment!r}")

    if increment == "full":
        step = 1.0
    elif increment == "half":
        step = 0.5
    else:
        p1 = min(1.0, (n_vectors + 1) / (2.0 * dimension))
        step = p1 + (1.0 - p1) * 0.5

    dims = np.minimum(1.0 + step * np.arange(n_vectors), float(dimension))
    probs, escape, moved = (_line_aligned(n_vectors) for _ in range(3))
    probs[0] = 1.0
    np.maximum(0.0, 1.0 - np.exp2(dims - dimension), out=escape)
    for _ in range(n_vectors - 1):
        np.multiply(probs, escape, out=moved)
        probs -= moved
        probs[1:] += moved[:-1]
    # mass cannot pass the first cell capped at D; drop the unreachable zeros
    top = int(np.nonzero(probs)[0][-1])
    return dims[: top + 1], probs[: top + 1]


def p_cant_cancel(dimension: int, n_speculators: int, increment: str = "full") -> float:
    """Probability that one agent's impact survives cancellation in a random state.

    Weighted over the span distribution of the other N_s - 1 agents: the agent
    escapes their span with probability 1 - 2**(d - D) and is then uncanceled
    in a fraction 1 - d/D of the states. A lone agent uses the d = 1 recursion
    base, giving approximately 1 - 1/D.
    """
    if n_speculators < 1:
        raise ConfigError(f"n_speculators must be >= 1, got {n_speculators}")
    dims, probs = dim_distribution(dimension, max(1, n_speculators - 1), increment)
    weights = (1.0 - np.exp2(dims - dimension)) * (1.0 - dims / dimension)
    return float(np.dot(probs, weights))


def variance_curve(dimension: int, alphas: Sequence[float]) -> list[VarianceBounds]:
    """Lower/heuristic/upper Var(r) predictions at each alpha, with N_s = D / alpha."""
    out = []
    for alpha in alphas:
        if not (0 < alpha < math.inf):
            raise ConfigError(f"alpha must be positive and finite, got {alpha}")
        n_spec = max(1, round(dimension / alpha))
        v0 = var_r0(n_spec)
        lower = v0 * p_cant_cancel(dimension, n_spec, "full")
        heuristic = v0 * p_cant_cancel(dimension, n_spec, "interpolated")
        upper = v0 * p_cant_cancel(dimension, n_spec, "half")
        out.append(VarianceBounds(alpha=float(alpha), lower=lower, heuristic=heuristic, upper=upper))
    return out
