"""Estimators for the stylized-fact analyses: tails, clustering, inequality, surprise.

All functions are pure: they read their inputs and return fresh values, so they
are safe to call concurrently. Return series are expected in base-10 logs, the
convention used everywhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateInputError, SampleSizeError
from .market import SimulationRecord

#: above this many eligible cutoffs the KS scan switches to a log-spaced subset
DEFAULT_MAX_CUTOFFS = 20_000


@dataclass(frozen=True)
class TailFit:
    """Hill fit of a magnitude sample: P(|x| > x) ~ (x / cutoff)**-exponent."""

    exponent: float
    cutoff: float
    ks_distance: float
    n_tail: int


@dataclass(frozen=True)
class CcdfCurve:
    """Rank-ordered complementary CDF: k-th largest value paired with k/n."""

    values: np.ndarray         # non-increasing
    probabilities: np.ndarray  # strictly increasing to 1


@dataclass(frozen=True)
class SurpriseSummary:
    taus: np.ndarray            # tau of each step whose information state recurred
    magnitudes: np.ndarray      # |r| realized at that step, parallel to taus
    bin_centers: np.ndarray     # geometric centers of surviving log-spaced tau bins
    bin_means: np.ndarray       # mean |r| per bin
    bin_counts: np.ndarray
    log_correlation: float      # Pearson correlation of log tau with log |r|; NaN if undefined
    tau_tail: Optional[TailFit]  # None with too few recurrences, or all of one tau, to fit


def post_transient(returns: np.ndarray) -> np.ndarray:
    """The analysis window of a model run: the final half of the return series."""
    return returns[len(returns) // 2:]


def normalize_by_std(x: Sequence[float]) -> np.ndarray:
    """Divide by the sample standard deviation so the output has std 1."""
    a = np.asarray(x, dtype=float)
    if a.size < 2:
        raise SampleSizeError(f"need at least 2 values to normalize, got {a.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        std = float(a.std())
    if not math.isfinite(std):
        raise DegenerateInputError(f"cannot normalize: the standard deviation is {std!r}; "
                                   "the sequence holds non-finite values or overflows when squared")
    if std == 0.0:
        raise DegenerateInputError("cannot normalize a zero-variance sequence")
    return a / std


def ccdf_rank_ordered(magnitudes: Sequence[float]) -> CcdfCurve:
    """CCDF by rank ordering: the k-th largest magnitude gets probability k/n."""
    a = np.asarray(magnitudes, dtype=float)
    if a.size == 0:
        raise SampleSizeError("cannot rank-order an empty sample")
    if np.any(a < 0):
        raise ValueError("magnitudes must be nonnegative")
    values = np.sort(a)[::-1]
    probabilities = np.arange(1, a.size + 1) / a.size
    return CcdfCurve(values=values, probabilities=probabilities)


def hill_fit_ks(
    magnitudes: Sequence[float],
    min_tail: int = 10,
    max_cutoffs: int = DEFAULT_MAX_CUTOFFS,
) -> TailFit:
    """Hill tail fit with the cutoff that minimizes the Kolmogorov-Smirnov distance.

    Every order statistic leaving at least ``min_tail`` tail points is a cutoff
    candidate; for each, the Hill estimate is the inverse mean of
    ``ln(x_i / x_min)`` over the tail and the KS distance compares the rank
    CCDF of the tail against ``(x / x_min)**-xi``. Ties in KS go to the larger
    tail. Samples with more candidates than ``max_cutoffs`` are scanned on a
    log-spaced subset of tail sizes: ``max_cutoffs`` geometric steps from
    ``min_tail`` to the sample size, rounded, each size once.
    A tail of one value, or with a Hill mean within ``n_tail`` ulps of its
    logs, is no candidate; with none left it raises ``DegenerateInputError``.

    The scan prunes in passes over more and more sampled ranks per tail (see
    ``_KS_SAMPLES``). Each pass takes a lower bound on every candidate's KS
    distance (see ``_ks_lower_bound``), evaluates the full KS distance of the
    candidate with the smallest bound (the bound with every rank sampled), and
    drops the candidates whose bound exceeds the smallest full distance seen so
    far. A dropped candidate's distance is larger than the winner's, so the
    result, the survivor with the smallest full distance, equals the full scan's.
    """
    x = np.asarray(magnitudes, dtype=float)
    n_bad = int(np.count_nonzero(~np.isfinite(x)))
    if n_bad:
        raise ValueError(f"magnitudes must be finite, got {n_bad} non-finite values")
    x = x[x > 0]
    if x.size < 100:
        raise SampleSizeError(f"hill_fit_ks needs >= 100 positive values, got {x.size}")
    if min_tail < 2:
        raise ValueError("min_tail must be >= 2")
    x = np.sort(x)[::-1]
    logx = np.log(x)
    n = x.size

    tails = np.arange(min_tail, n + 1)
    if tails.size > max_cutoffs:
        # the rounded grid is nondecreasing, so dropping repeats leaves each size once
        tails = np.rint(np.geomspace(min_tail, n, max_cutoffs)).astype(np.int64)
        tails = tails[np.diff(tails, prepend=0) != 0]
    csum = np.cumsum(logx)
    hill_means = csum[tails - 1] / tails - logx[tails - 1]
    # the mean of a tail of identical values, or of values a few ulps apart, is
    # cumsum rounding noise; the latter's exponent would be near 2**52
    floor = tails * np.finfo(float).eps * np.fmax(np.abs(logx[0]), np.abs(logx[tails - 1]))
    eligible = (x[0] > x[tails - 1]) & (hill_means > floor)
    tails, xis = tails[eligible], 1.0 / hill_means[eligible]
    if tails.size == 0:
        raise DegenerateInputError("all cutoff candidates have an empty or unresolved log-spacing")

    full = {}  # full KS distance by tail size, each evaluated once

    def distance(i):
        """The full KS distance of candidate ``i``: every rank of its tail sampled."""
        k = int(tails[i])
        if k not in full:
            full[k] = _ks_lower_bound(logx, tails[i:i + 1], xis[i:i + 1], n)[0]
        return full[k]

    threshold = math.inf  # smallest full KS distance evaluated so far
    for samples in _KS_SAMPLES:
        if tails.size <= 1:
            break
        lower = _ks_lower_bound(logx, tails, xis, samples)
        threshold = min(threshold, distance(int(np.argmin(lower))))
        # NaN bounds compare false, so they prune nothing
        keep = ~(lower > threshold + _KS_TOLERANCE)
        tails, xis = tails[keep], xis[keep]

    ks = np.array([distance(i) for i in range(tails.size)])
    best = tails.size - 1 - int(np.argmin(ks[::-1]))  # the last minimum: ties go to the larger tail
    n_tail = int(tails[best])
    return TailFit(exponent=float(xis[best]), cutoff=float(x[n_tail - 1]),
                   ks_distance=float(ks[best]), n_tail=n_tail)


#: sampled ranks per candidate in the successive pruning passes of hill_fit_ks
_KS_SAMPLES = (16, 64, 256, 1024, 4096, 8192)
#: slack on the pruning threshold; it absorbs rounding between the sampled and
#: the full distance and lies far above float64 resolution, so it only ever
#: keeps extra candidates
_KS_TOLERANCE = 1e-12
#: elements per block of a pruning pass, which caps its memory
_KS_BLOCK = 1 << 15


def _ks_lower_bound(logx, tails, xis, samples):
    """Lower bound on the KS distance of each candidate tail size.

    With ``logx`` sorted descending, the bound is the largest gap between the
    rank CCDF ``i / k`` and the model ``exp(-xi (log x_i - log x_k))`` on
    ``samples + 1`` ranks spread from 1 to ``k``. Tails of at most
    ``samples + 1`` points have every rank sampled, so the bound is the
    distance itself.
    """
    samples = min(samples, int(tails.max()) - 1)
    steps = np.arange(samples + 1)
    lower = np.empty(tails.size)
    rows = max(1, _KS_BLOCK // steps.size)
    for start in range(0, tails.size, rows):
        block = slice(start, start + rows)
        k = tails[block, None]
        # in place, with the same bits: a tail of 1e5 ranks makes 800 kB temporaries
        index = steps * (k - 1)
        index //= samples  # rank - 1
        model = logx[index]
        model -= logx[k - 1]
        model *= -xis[block, None]
        index += 1
        gap = index / k
        gap -= np.exp(model, out=model)
        lower[block] = np.abs(gap, out=gap).max(axis=1)
    return lower


def autocorr_abs(returns: Sequence[float], max_lag: int) -> np.ndarray:
    """Sample autocorrelation of return magnitudes at lags 0..max_lag.

    Biased (1/n) normalization; the lag-0 value 1 is prepended by convention.
    """
    r = np.abs(np.asarray(returns, dtype=float))
    n = r.size
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if n <= max_lag + 1:
        raise SampleSizeError(f"need more than max_lag + 1 = {max_lag + 1} values, got {n}")
    centered = r - r.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        raise DegenerateInputError("magnitude series has zero variance")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for lag in range(1, max_lag + 1):
        out[lag] = float(np.dot(centered[:-lag], centered[lag:])) / denom
    return out


def kurtosis(x: Sequence[float]) -> float:
    """Non-excess kurtosis m4 / m2**2 (3 for a normal distribution)."""
    a = np.asarray(x, dtype=float)
    if a.size < 4:
        raise SampleSizeError(f"kurtosis needs at least 4 values, got {a.size}")
    centered = a - a.mean()
    m2 = float(np.mean(centered * centered))
    if m2 == 0.0:
        raise DegenerateInputError("kurtosis of a constant sequence is undefined")
    m4 = float(np.mean(centered ** 4))
    return m4 / (m2 * m2)


def reduction_ratio(returns: Sequence[float]) -> float:
    """Mean |r| of the first 10 returns over the mean |r| of the :func:`post_transient` window.

    A zero window mean yields +inf so fully quieted markets stay representable.
    """
    a = np.abs(np.asarray(returns, dtype=float))
    window = post_transient(a)
    if 10 + window.size > a.size:
        raise SampleSizeError(f"reduction needs 10 returns before the final half, got {a.size} returns")
    window_mean = float(window.mean())
    if window_mean == 0.0:
        return math.inf
    return float(a[:10].mean()) / window_mean


def gini(values: Sequence[float]) -> float:
    """Gini index of a nonnegative sample, in [0, 1)."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise SampleSizeError("gini of an empty sample is undefined")
    if np.any(v < 0):
        raise ValueError("gini requires nonnegative values")
    total = float(v.sum())
    if total == 0.0:
        raise DegenerateInputError("gini of an all-zero sample is undefined")
    v = np.sort(v)
    n = v.size
    ranks = np.arange(1, n + 1, dtype=float)
    return float(2.0 * np.dot(ranks, v) / (n * total) - (n + 1.0) / n)


def income_factor(mean_capitals: Sequence[float]) -> float:
    """Least-squares slope of squared mean capital versus time over the final half, t >= T // 2."""
    c = np.asarray(mean_capitals, dtype=float)
    t0 = c.size // 2
    if c.size - t0 < 10:
        raise SampleSizeError(f"need at least 10 points in the final half, got {c.size - t0}")
    t = np.arange(t0, c.size, dtype=float)
    y = c[t0:] ** 2
    dt = t - t.mean()
    dy = y - y.mean()
    return float(np.dot(dt, dy) / np.dot(dt, dt))


def surprise_stats(
    record: SimulationRecord,
    bins_per_decade: int = 10,
    min_bin_count: int = 20,
) -> SurpriseSummary:
    """Relate return magnitudes to the age tau of their information states.

    Pairs each step's tau with the magnitude of the return realized at that
    step, then reports (i) mean |r| in log-spaced tau bins (bins with fewer
    than ``min_bin_count`` samples are dropped), (ii) the Pearson correlation
    of log tau with log |r|, and (iii) the Hill fit of the tau tail, None
    under 100 recurrences or where every tail candidate holds a single tau
    value. The Hill exponent is the CCDF exponent; the density P(tau) falls off one
    power faster.
    """
    taus = record.taus
    ok = taus > 0
    ok[0] = False  # no return is defined at the first step
    if not ok.any():
        raise DegenerateInputError("record contains no recurrent information states")
    tau = taus[ok]
    mags = np.abs(record.returns[np.flatnonzero(ok) - 1])

    # conditional means on a 10^(1/bins_per_decade) ladder starting at tau = 1
    n_edges = int(math.ceil(math.log10(tau.max()) * bins_per_decade)) + 2
    edges = 10.0 ** (np.arange(n_edges) / bins_per_decade)
    idx = np.digitize(tau, edges) - 1
    counts = np.bincount(idx, minlength=n_edges - 1)[: n_edges - 1]
    sums = np.bincount(idx, weights=mags, minlength=n_edges - 1)[: n_edges - 1]
    keep = counts >= min_bin_count
    centers = np.sqrt(edges[:-1] * edges[1:])[keep]
    means = sums[keep] / counts[keep]

    positive = mags > 0
    log_corr = _log_correlation(tau[positive], mags[positive])

    try:
        tau_tail = hill_fit_ks(tau) if tau.size >= 100 else None
    except DegenerateInputError:  # every recurrence has the same tau
        tau_tail = None
    return SurpriseSummary(
        taus=tau,
        magnitudes=mags,
        bin_centers=centers,
        bin_means=means,
        bin_counts=counts[keep],
        log_correlation=log_corr,
        tau_tail=tau_tail,
    )


def _log_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of log10 a with log10 b; NaN unless both sides vary."""
    log_a, log_b = np.log10(a), np.log10(b)
    if log_a.size < 2 or np.ptp(log_a) == 0 or np.ptp(log_b) == 0:
        return math.nan
    return float(np.corrcoef(log_a, log_b)[0, 1])
