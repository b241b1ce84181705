import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specmarket import run
from specmarket.errors import DegenerateInputError, SampleSizeError
from specmarket.io import parse_market_config, post_transient, write_run_artifact
from specmarket.market import SimulationRecord
from specmarket.stats import (
    DEFAULT_MAX_CUTOFFS,
    TailFit,
    autocorr_abs,
    ccdf_rank_ordered,
    gini,
    hill_fit_ks,
    income_factor,
    kurtosis,
    normalize_by_std,
    reduction_ratio,
    surprise_stats,
)


class TestNormalize:
    def test_alternating(self):
        out = normalize_by_std([1.0, -1.0, 1.0, -1.0])
        assert out.tolist() == [1.0, -1.0, 1.0, -1.0]

    def test_unit_std(self):
        out = normalize_by_std(np.random.default_rng(1).normal(3.0, 0.2, size=1000))
        assert abs(out.std() - 1.0) < 1e-12

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInputError, match="zero-variance"):
            normalize_by_std([2.0, 2.0, 2.0])

    @pytest.mark.parametrize("values, std", [
        ([0.01, -0.02, 1e300, 0.03], "inf"),  # finite, but the squares overflow
        ([0.01, np.inf, 0.03], "nan"),
        ([0.01, np.nan, 0.03], "nan"),
    ])
    def test_non_finite_std_has_its_own_message(self, values, std):
        with pytest.raises(DegenerateInputError, match=rf"standard deviation is {std};") as caught:
            normalize_by_std(values)
        assert "zero-variance" not in str(caught.value)

    def test_idempotent(self):
        x = np.random.default_rng(2).normal(size=500) * 17.0
        once = normalize_by_std(x)
        np.testing.assert_allclose(normalize_by_std(once), once, rtol=1e-12)


class TestCcdf:
    def test_small_example(self):
        curve = ccdf_rank_ordered([3.0, 1.0, 2.0])
        assert curve.values.tolist() == [3.0, 2.0, 1.0]
        np.testing.assert_allclose(curve.probabilities, [1 / 3, 2 / 3, 1.0])

    def test_singleton(self):
        curve = ccdf_rank_ordered([5.0])
        assert curve.values.tolist() == [5.0]
        assert curve.probabilities.tolist() == [1.0]

    def test_probabilities_exact_ranks(self):
        curve = ccdf_rank_ordered(np.random.default_rng(3).random(100))
        assert curve.probabilities[-1] == 1.0
        np.testing.assert_array_equal(curve.probabilities, np.arange(1, 101) / 100)

    def test_pareto_loglog_slope(self):
        x = np.random.default_rng(4).pareto(3.0, size=100_000) + 1.0
        curve = ccdf_rank_ordered(x)
        top = slice(0, 10_000)
        slope = np.polyfit(np.log10(curve.values[top]),
                           np.log10(curve.probabilities[top]), 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.2)


class TestHillFit:
    def test_recovers_pareto_exponent(self):
        x = np.random.default_rng(42).pareto(2.5, size=100_000) + 1.0
        fit = hill_fit_ks(x)
        assert fit.exponent == pytest.approx(2.5, abs=0.1)

    def test_exponential_flagged(self):
        rng = np.random.default_rng(42)
        pareto_fit = hill_fit_ks(rng.pareto(2.5, size=100_000) + 1.0)
        exp_fit = hill_fit_ks(rng.exponential(size=100_000))
        assert exp_fit.ks_distance > pareto_fit.ks_distance
        assert exp_fit.n_tail < pareto_fit.n_tail

    def test_scale_equivariance(self):
        x = np.random.default_rng(9).pareto(2.5, size=5000) + 1.0
        base, scaled = hill_fit_ks(x), hill_fit_ks(4.0 * x)
        assert scaled.exponent == pytest.approx(base.exponent, rel=1e-12)
        assert scaled.cutoff == 4.0 * base.cutoff
        assert scaled.n_tail == base.n_tail

    def test_needs_enough_points(self):
        with pytest.raises(SampleSizeError):
            hill_fit_ks(np.ones(50))

    def test_tail_floor_respected(self):
        fit = hill_fit_ks(np.random.default_rng(10).pareto(2.0, size=500) + 1.0)
        assert fit.n_tail >= 10

    def test_constant_sample_refused(self):
        """Every tail of identical values is degenerate, whatever cumsum's rounding leaves,
        and so is one whose log spacings are float64 rounding: three values one ulp
        above 147 copies of 7.0 would fit an exponent of 2**52."""
        one_ulp = np.r_[np.full(3, np.nextafter(7.0, 8.0)), np.full(147, 7.0)]
        for x in (np.full(150, 2.0), one_ulp):
            for fit in (hill_fit_ks, reference_hill_fit_ks):
                with pytest.raises(DegenerateInputError):
                    fit(x)

    @pytest.mark.parametrize("x, exponent, n_tail, ks", [
        (np.r_[np.full(75, 3.0), np.full(75, 2.0)], 4.209157909122442, 128, 0.40625),
        (np.r_[np.full(30, 5.0), np.full(120, 2.0)], 1.8916848910913011, 52, 0.40384615384615385),
    ], ids=["even", "uneven"])
    def test_two_level_sample_keeps_its_fit(self, x, exponent, n_tail, ks):
        """Tails cut at the top level are refused; the fit across both levels stands."""
        assert hill_fit_ks(x) == TailFit(exponent=exponent, cutoff=2.0, ks_distance=ks, n_tail=n_tail)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_values_refused_with_count(self, bad):
        x = np.random.default_rng(11).pareto(2.5, size=1000) + 1.0
        x[[3, 500, 999]] = bad
        with pytest.raises(ValueError, match="3 non-finite"):
            hill_fit_ks(x)


def reference_hill_fit_ks(magnitudes, min_tail=10, max_cutoffs=DEFAULT_MAX_CUTOFFS):
    """The full KS scan: every candidate's KS distance is evaluated over its whole tail."""
    x = np.asarray(magnitudes, dtype=float)
    x = x[x > 0]
    if x.size < 100:
        raise SampleSizeError(f"hill_fit_ks needs >= 100 positive values, got {x.size}")
    if min_tail < 2:
        raise ValueError("min_tail must be >= 2")
    x = np.sort(x)[::-1]
    logx = np.log(x)
    n = x.size

    tails = np.arange(min_tail, n + 1)
    if max_cutoffs is not None and tails.size > max_cutoffs:
        grid = np.geomspace(min_tail, n, max_cutoffs)
        tails = np.unique(np.rint(grid).astype(np.int64))
    csum = np.cumsum(logx)
    hill_means = csum[tails - 1] / tails - logx[tails - 1]

    ranks = np.arange(1, n + 1, dtype=float)
    eps = np.finfo(float).eps
    best = None  # (ks, n_tail, xi)
    for k, mean_log in zip(tails, hill_means):
        # a tail of identical values, or a mean below float64 resolution, is degenerate
        if not (x[0] > x[k - 1] and mean_log > k * eps * max(abs(logx[0]), abs(logx[k - 1]))):
            continue
        xi = 1.0 / mean_log
        model = np.exp(-xi * (logx[:k] - logx[k - 1]))
        ks = float(np.abs(ranks[:k] / k - model).max())
        if best is None or ks <= best[0]:
            best = (ks, int(k), xi)
    if best is None:
        raise DegenerateInputError("all cutoff candidates have an empty or unresolved log-spacing")
    ks, n_tail, xi = best
    return TailFit(exponent=xi, cutoff=float(x[n_tail - 1]), ks_distance=ks, n_tail=n_tail)


def generated_sample(kind, n, shape, seed):
    rng = np.random.default_rng(seed)
    if kind == "pareto":
        return rng.pareto(shape, size=n) + 1.0
    if kind == "lognormal":
        return rng.lognormal(sigma=shape, size=n)
    if kind == "exponential":
        return rng.exponential(scale=shape, size=n)
    # integer-valued like tau: heavy ties, and tails of identical values
    return np.floor(rng.pareto(shape, size=n) + 1.0)


@st.composite
def hill_cases(draw):
    max_cutoffs = draw(st.one_of(st.none(), st.integers(5, 3000)))
    # log-uniform n; the reference scan is quadratic in n without a cutoff grid
    log_n = draw(st.floats(2.0, math.log10(3000 if max_cutoffs is None else 50_000)))
    return dict(
        kind=draw(st.sampled_from(["pareto", "lognormal", "exponential", "integer"])),
        n=round(10 ** log_n),
        shape=draw(st.floats(0.3, 4.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
        min_tail=draw(st.integers(2, 50)),
        max_cutoffs=max_cutoffs,
    )


def assert_same_fit(x, min_tail, max_cutoffs):
    """``max_cutoffs=None`` is the reference's full scan; the fit's default grid
    covers every cutoff of the samples drawn with it (at most 3,000 values)."""
    fit_cutoffs = DEFAULT_MAX_CUTOFFS if max_cutoffs is None else max_cutoffs
    try:
        expected = reference_hill_fit_ks(x, min_tail, max_cutoffs)
    except DegenerateInputError:
        with pytest.raises(DegenerateInputError):
            hill_fit_ks(x, min_tail, fit_cutoffs)
        return
    assert hill_fit_ks(x, min_tail, fit_cutoffs) == expected


class TestHillFitOracle:
    """The pruned scan returns exactly the full scan's fit."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(hill_cases())
    def test_equals_full_scan(self, case):
        x = generated_sample(case["kind"], case["n"], case["shape"], case["seed"])
        assert_same_fit(x, case["min_tail"], case["max_cutoffs"])

    @pytest.mark.parametrize("kind,n", [("pareto", 100_000), ("integer", 20_000),
                                        ("lognormal", 20_000), ("exponential", 20_000)])
    def test_equals_full_scan_at_default_grid(self, kind, n):
        assert_same_fit(generated_sample(kind, n, 2.0, 11), 10, DEFAULT_MAX_CUTOFFS)

    def test_equals_full_scan_on_market_ini(self):
        """The two fits that ``simulate configs/market.ini`` writes: window and tau sample."""
        config = parse_market_config(Path(__file__).parents[1] / "configs" / "market.ini")
        record = run(config)
        window = np.abs(normalize_by_std(post_transient(record.returns)))
        taus = post_transient(record.taus)[1:]
        for x in (window, taus[taus > 0]):
            assert_same_fit(x, 10, DEFAULT_MAX_CUTOFFS)

    def test_simulate_summary_holds_the_full_scan_fits(self, tmp_path):
        """``summary.json`` of ``configs/market.ini`` (seed 5) reports the full scan's two fits."""
        config = parse_market_config(Path(__file__).parents[1] / "configs" / "market.ini")
        assert config.seed == 5
        record = run(config)
        summary = json.loads(write_run_artifact(tmp_path, config, record)["summary"].read_text())
        window = np.abs(normalize_by_std(post_transient(record.returns)))
        taus = record.taus[len(record.prices) // 2 + 1:]  # surprise_stats' sample
        tail, tau_tail = (reference_hill_fit_ks(x) for x in (window, taus[taus > 0]))
        assert summary["analysis"]["tail"] == {"exponent": tail.exponent, "cutoff": tail.cutoff,
                                               "ks_distance": tail.ks_distance, "n_tail": tail.n_tail}
        surprise = summary["surprise"]
        assert (surprise["tau_ccdf_exponent"], surprise["tau_ks_distance"], surprise["tau_n_tail"]) \
            == (tau_tail.exponent, tau_tail.ks_distance, tau_tail.n_tail)


class TestAutocorr:
    def test_lag_zero_prepended(self):
        ac = autocorr_abs(np.random.default_rng(0).normal(size=100), max_lag=5)
        assert ac[0] == 1.0
        assert len(ac) == 6

    def test_white_noise_band(self):
        n = 100_000
        ac = autocorr_abs(np.random.default_rng(8).normal(size=n), max_lag=20)
        assert np.abs(ac[1:]).max() < 3 / math.sqrt(n)

    def test_range_and_shuffle_control(self, heavy_tail_benchmark_returns):
        post = heavy_tail_benchmark_returns[-30_000:]
        ac = autocorr_abs(post, max_lag=100)
        assert np.all(ac >= -1.0) and np.all(ac <= 1.0)
        shuffled = post.copy()
        np.random.default_rng(7).shuffle(shuffled)
        ac_shuffled = autocorr_abs(shuffled, max_lag=100)
        band = 3 / math.sqrt(post.size)
        assert np.abs(ac_shuffled[[10, 50, 100]]).max() < band

    def test_needs_enough_data(self):
        with pytest.raises(SampleSizeError):
            autocorr_abs([1.0, 2.0, 3.0], max_lag=5)


class TestKurtosis:
    def test_alternating_is_one(self):
        assert kurtosis([1.0, -1.0] * 10) == 1.0

    def test_normal_reference(self):
        x = np.random.default_rng(12).normal(size=1_000_000)
        assert kurtosis(x) == pytest.approx(3.0, abs=0.05)

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInputError):
            kurtosis([1.0] * 10)

    def test_affine_invariance(self):
        x = np.random.default_rng(13).exponential(size=5000)
        assert kurtosis(-2.5 * x + 7.0) == pytest.approx(kurtosis(x), rel=1e-9)


class TestReduction:
    def test_identical_halves(self):
        assert reduction_ratio([1.0, 2.0, 1.0, 2.0], 2, 2) == 1.0

    def test_hundredfold(self):
        mags = [0.2] * 10 + [0.002] * 10
        assert reduction_ratio(mags, 10, 10) == pytest.approx(100.0)

    def test_zero_tail_gives_inf(self):
        assert reduction_ratio([1.0, 0.0], 1, 1) == math.inf

    def test_window_overflow(self):
        with pytest.raises(SampleSizeError):
            reduction_ratio([1.0, 2.0], 2, 2)


class TestGini:
    def test_equal_is_zero(self):
        assert gini([3.0] * 7) == pytest.approx(0.0, abs=1e-12)

    def test_pair(self):
        assert gini([1.0, 3.0]) == pytest.approx(0.25)

    def test_winner_takes_all(self):
        values = [0.0] * 99 + [10.0]
        assert gini(values) == pytest.approx(0.99)

    def test_scale_and_permutation_invariance(self):
        rng = np.random.default_rng(14)
        x = rng.exponential(size=200)
        g = gini(x)
        assert gini(5.0 * x) == pytest.approx(g, rel=1e-12)
        assert gini(rng.permutation(x)) == pytest.approx(g, rel=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            gini([0.0, 0.0])


class TestIncomeFactor:
    def test_exact_on_affine_squares(self):
        t = np.arange(10_000)
        capitals = np.sqrt(4.0 + 0.001 * t)
        assert abs(income_factor(capitals, 0) - 0.001) < 1e-12

    def test_constant_capitals(self):
        assert income_factor(np.full(100, 2.0), 50) == 0.0

    def test_needs_points(self):
        with pytest.raises(SampleSizeError):
            income_factor(np.arange(12, dtype=float), 5)


def _record_from(mus, returns):
    mus = np.asarray(mus)
    taus = np.zeros(mus.size, dtype=np.int64)
    last = {}
    for t, mu in enumerate(mus):
        if mu in last:
            taus[t] = t - last[mu]
        last[mu] = t
    prices = np.concatenate([[1.0], 10.0 ** np.cumsum(returns)])
    return SimulationRecord(
        prices=prices, returns=np.asarray(returns, dtype=float), mus=mus, taus=taus,
        mean_spec_capital=np.ones(mus.size), final_spec_capitals=np.ones(4),
    )


class TestSurprise:
    def test_pairing_and_bins(self):
        # state 0 recurs with gaps 2 and 3; magnitudes are taken at the recurrence step
        mus = [0, 1, 0, 2, 3, 0]
        returns = [0.1, -0.2, 0.3, -0.4, 0.5]
        record = _record_from(mus, returns)
        summary = surprise_stats(record, min_bin_count=1)
        assert summary.taus.tolist() == [2, 3]
        assert summary.magnitudes.tolist() == [0.2, 0.5]

    @pytest.mark.parametrize("mus, returns", [
        (np.arange(400) % 2, np.random.default_rng(3).normal(scale=1e-3, size=399)),
        (np.random.default_rng(4).integers(0, 8, size=400), np.full(399, 1e-3)),
    ], ids=["constant_taus", "constant_magnitudes"])
    def test_zero_variance_side_gives_nan_without_warning(self, mus, returns):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = surprise_stats(_record_from(mus, returns))
        assert math.isnan(summary.log_correlation)

    def test_single_tau_has_no_tail_fit(self):
        """All 399 recurring taus are 2: the surprise block stands without a tau tail."""
        summary = surprise_stats(_record_from(np.arange(400) % 2, np.full(399, 1e-3)))
        assert summary.taus.size == 398
        assert summary.tau_tail is None

    def test_requires_recurrence(self):
        record = _record_from([0, 1, 2, 3], [0.1, 0.2, 0.3])
        with pytest.raises(DegenerateInputError):
            surprise_stats(record)

    def test_uniform_recurrence_rejects_power_law(self):
        rng = np.random.default_rng(15)
        n = 200_000
        mus = rng.integers(0, 32, size=n)
        returns = rng.normal(scale=1e-3, size=n - 1)
        summary = surprise_stats(_record_from(mus, returns))
        # geometric-like tau: no power-law tail is accepted
        assert summary.tau_tail.ks_distance > 0.02
        assert summary.tau_tail.n_tail < 0.05 * summary.taus.size
