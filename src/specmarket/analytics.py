"""Closed-form predictions: initial return variance and the span-counting variance bounds.

The bounds come from a birth chain for the dimension d spanned by random
binary strategy vectors: a new vector escapes the current span with
probability 1 - 2**(d - D). Counting a full degree of freedom per escape gives
the lower variance limit (transition at alpha = 1), counting half a degree the
upper limit (transition at alpha = 1/2, where positive weights first span the
space), and a mixing rule in between gives the heuristic curve.

How the chain keeps the bits of a full-array update on a window of cells is in
``dim_distribution``, and how one walk of it serves many counts in ``_walk``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import _kernel
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
        raise ConfigError("n_speculators", f" must be >= 1, got {n_speculators}")
    return 8.0 / (n_speculators * LN10 * LN10)


def dim_distribution(
    dimension: int, n_vectors: int, increment: str = "full"
) -> tuple[np.ndarray, np.ndarray]:
    """Distribution of the dimension spanned after adding ``n_vectors`` random vectors.

    The first vector spans d = 1 (a zero vector has negligible probability in
    the large-D regime); every further vector raises d by the increment with
    probability 1 - 2**(d - D), capped at D. Increments: ``full`` adds 1,
    ``half`` adds 1/2, ``interpolated`` adds the expected mix
    p1 * 1 + (1 - p1) * 1/2 with p1 = min(1, N / (2 D)).

    Each step of the chain is the same three float64 operations per cell
    (moved = p * escape, p -= moved, p[i+1] += moved[i]), applied only to the
    cells that can hold mass; on every other cell they would add or subtract
    exact zeros. Three facts bound that window without changing a bit:

    - escape rounds to exactly 1.0 while d < D - 53 or so, and there each step
      moves the whole unit of mass one cell up, so the chain starts with all
      of it at ``start``, the first cell whose escape is below 1;
    - after k steps the mass lies in cells start .. k, and never past ``cap``,
      the first cell with escape 0 (d = D);
    - a step in which every moved amount is an exact zero (mass at the cap,
      or subnormal leftovers whose product with escape underflows) changes
      nothing, and neither does any later step, so the loop stops there.

    The cost is O(n_vectors * W) for a window of W = 54 / increment cells or
    so, not O(n_vectors**2). No step reads past the cap, whose index is at
    most ceil((D - 1) / step) in exact arithmetic, so the arrays hold
    ceil((D - 1) / step) + 2 cells (one spare for a quotient rounded down),
    or n_vectors if that is fewer: O(D / step) cells, with n_vectors only the
    number of steps. The loop is ``specmarket_dim_chain`` of the C kernel, or
    ``_chain`` in numpy where the kernel cannot be built. Returns
    ``(dims, probs)`` with probs summing to 1.
    """
    _check(dimension, n_vectors, increment)
    (_, dims, probs, top), = _walk(dimension, _step(dimension, n_vectors, increment), [n_vectors])
    return dims[: top + 1].copy(), probs[: top + 1].copy()


def _check_dimension(dimension: int) -> None:
    if not 1 <= dimension <= MAX_DIMENSION:
        raise ConfigError("dimension", f" must be in [1, {MAX_DIMENSION}], got {dimension}")


def _check(dimension: int, n_vectors: int, increment: str) -> None:
    _check_dimension(dimension)
    if not 1 <= n_vectors < 1 << 63:
        raise ConfigError("n_vectors", f" must be in [1, 2**63), got {n_vectors}")
    if increment not in INCREMENT_MODES:
        raise ConfigError("increment", f" must be one of {INCREMENT_MODES}, got {increment!r}")


def _step(dimension: int, n_vectors: int, increment: str) -> float:
    """The chain's increment per escape; ``interpolated`` is exactly 1.0 once n_vectors + 1 >= 2 D."""
    if increment == "full":
        return 1.0
    if increment == "half":
        return 0.5
    p1 = min(1.0, (n_vectors + 1) / (2.0 * dimension))
    return p1 + (1.0 - p1) * 0.5


def _walk(dimension: int, step: float,
          counts: Sequence[int]) -> Iterator[tuple[int, np.ndarray, np.ndarray, int]]:
    """Yield ``dim_distribution`` at each of ``counts`` for one step, from one walk of the chain.

    The distribution for n vectors is the chain's state after n - 1 - start
    steps, so the walk takes each step once, in order of n, and is read as it
    passes each n: cut at its last nonzero cell, as a separate run would be.
    For n - 1 < start the reading is the point mass at cell n - 1, which is
    what a separate run gives, because below ``start`` every step is a sure
    move. Once a step moves nothing, every later reading is that fixed point.

    Each reading is ``(n, dims, probs, top)``, once per distinct n in
    increasing order, with the distribution in ``dims[:top + 1]`` and
    ``probs[:top + 1]``. They are live: ``dims`` is the same array in every
    reading, and the walk goes on to update ``probs`` when the next reading is
    asked for, so a caller that keeps a reading copies it. A caller that reads
    many counts of one step, as ``variance_curve`` does, runs no step twice.
    """
    size = min(max(counts), math.ceil((dimension - 1) / step) + 2)
    dims = np.minimum(1.0 + step * np.arange(size), float(dimension))
    escape = np.maximum(0.0, 1.0 - np.exp2(dims - dimension))
    last = size - 1
    start = _first(escape < 1.0, last)
    cap = _first(escape == 0.0, last)
    probs = np.zeros(size)
    probs[start] = 1.0
    moved = np.empty(size)  # the chain's scratch
    lib = _kernel.library()
    taken = fixed = 0
    for n in sorted(set(counts)):
        steps = n - 1 - start
        if steps < 0:
            point = np.zeros(n)
            point[-1] = 1.0
            yield n, dims, point, n - 1
            continue
        if steps > taken and not fixed:
            if lib:
                fixed = lib.specmarket_dim_chain(escape.ctypes.data, start, cap, taken + 1, steps,
                                                 probs.ctypes.data, moved.ctypes.data)
            else:
                fixed = _chain(escape, start, cap, taken + 1, steps, probs, moved)
            taken = steps
        yield n, dims, probs, int(np.flatnonzero(probs)[-1])


def _chain(escape: np.ndarray, start: int, cap: int, first: int, last: int,
           probs: np.ndarray, moved: np.ndarray) -> int:
    """Steps ``first`` .. ``last`` of the chain on ``probs`` in numpy, as ``specmarket_dim_chain``.

    ``moved`` is scratch of at least ``cap + 1`` cells. Returns the step that
    moved nothing, after which the chain stops, or 0.
    """
    for s in range(first, last + 1):
        window = slice(start, min(start + s, cap) + 1)
        p, m = probs[window], moved[window]
        np.multiply(p, escape[window], out=m)
        if not np.count_nonzero(m):
            return s
        p -= m
        p[1:] += m[:-1]
    return 0


def _first(mask: np.ndarray, default: int) -> int:
    """Index of the first true cell of ``mask``, or ``default`` if there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else default


def p_cant_cancel(dimension: int, n_speculators: int, increment: str = "full") -> float:
    """Probability that one agent's impact survives cancellation in a random state.

    Weighted over the span distribution of the other N_s - 1 agents: the agent
    escapes their span with probability 1 - 2**(d - D) and is then uncanceled
    in a fraction 1 - d/D of the states. A lone agent uses the d = 1 recursion
    base, giving approximately 1 - 1/D.
    """
    return _cant_cancel(dimension, [(n_speculators, increment)])[0]


def _cant_cancel(dimension: int, cases: Sequence[tuple[int, str]]) -> list[float]:
    """``p_cant_cancel`` at each ``(n_speculators, increment)`` of ``cases``, one walk per distinct step."""
    counts: dict[float, list[int]] = {}
    keys = []
    for n_speculators, increment in cases:
        if n_speculators < 1:
            raise ConfigError("n_speculators", f" must be >= 1, got {n_speculators}")
        n_vectors = max(1, n_speculators - 1)
        _check(dimension, n_vectors, increment)
        step = _step(dimension, n_vectors, increment)
        counts.setdefault(step, []).append(n_vectors)
        keys.append((step, n_vectors))
    cancels = {}
    for step, ns in counts.items():
        weights = None
        for n, dims, probs, top in _walk(dimension, step, ns):
            if weights is None:  # escape times uncanceled, (1 - 2**(d - D)) * (1 - d / D)
                weights = (1.0 - np.exp2(dims - dimension)) * (1.0 - dims / dimension)
            cancels[step, n] = float(np.dot(probs[: top + 1], weights[: top + 1]))
    return [cancels[key] for key in keys]


def speculators_at(dimension: int, alpha: float) -> int:
    """The market size N_s = D / alpha, rounded and at least 1, of one bounds row.

    Raises ``ConfigError`` naming alpha where D / alpha is not below 2**63.
    """
    if not (0 < alpha < math.inf):
        raise ConfigError("alpha", f" must be positive and finite, got {alpha}")
    n_spec = dimension / alpha
    if not n_spec < 2.0**63:
        raise ConfigError("alpha", f" = {alpha} gives N_s = D / alpha = {n_spec} at D = {dimension}, "
                          f"which does not fit a 64-bit integer; alpha must exceed D / 2**63")
    return max(1, round(n_spec))


def variance_curve(dimension: int, alphas: Sequence[float]) -> list[VarianceBounds]:
    """Lower/heuristic/upper Var(r) predictions at each alpha, with N_s = D / alpha.

    The 3 * len(alphas) span distributions come from one walk of the chain per
    distinct step (``full``, ``half``, and ``interpolated`` where N_s < 2 D;
    ``interpolated`` steps by exactly 1 elsewhere), read at each N_s - 1.
    """
    _check_dimension(dimension)  # before speculators_at, which names alpha
    sizes = [speculators_at(dimension, alpha) for alpha in alphas]
    cancels = _cant_cancel(dimension, [(n_spec, increment) for n_spec in sizes
                                       for increment in ("full", "interpolated", "half")])
    out = []
    for i, (alpha, n_spec) in enumerate(zip(alphas, sizes)):
        v0 = var_r0(n_spec)
        lower, heuristic, upper = (v0 * p for p in cancels[3 * i: 3 * i + 3])
        out.append(VarianceBounds(alpha=float(alpha), lower=lower, heuristic=heuristic, upper=upper))
    return out
