"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Everything is seeded, so the reported numbers are reproducible bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from specmarket import (
    Endogenous,
    Exogenous,
    MarketConfig,
    clear_price,
    exponential_weights,
    form_orders,
    new_market,
    run,
    settle,
    step,
    uniform_weights,
)
from specmarket.analytics import dim_distribution, var_r0, variance_curve
from specmarket.io import write_run_artifact
from specmarket.market import SimulationRecord
from specmarket.stats import autocorr_abs, gini, hill_fit_ks, kurtosis, surprise_stats
from specmarket.sweep import alpha_scan, run_many

#: variances below this are numerically indistinguishable from a fully
#: relaxed market in float64; used when comparing against analytic bounds
#: that decay to ~2**-D
VAR_FLOOR = 1e-10


def report(number, ok, detail):
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def run_all(configs, measure):
    """``measure`` of each config's market, mapped on threads by ``run_many``; a failure raises."""
    outcomes = run_many(configs, lambda config: measure(run(config)))
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def second_half(record):
    """``record`` with the taus and returns of steps T // 2 onward, all ``surprise_stats`` reads."""
    half = len(record.prices) // 2
    return replace(record, taus=record.taus[half:], returns=record.returns[half:])


def check_1(returns, n_speculators):
    """Var(r(0)) of the markets against 8/(N ln10^2) at ``n_speculators``, within 10%."""
    target = var_r0(n_speculators)
    variance = float(returns.var())
    ok = abs(variance - target) <= 0.1 * target
    return ok, (f"Var(r(0)) = {variance:.4e} vs 8/(N ln10^2) = {target:.4e} "
                f"(ratio {variance / target:.3f}, tolerance 10%)")


def test_criterion_1_initial_variance_formula():
    base = MarketConfig(n_speculators=1024, use_param=0.5,
                        info_mode=Exogenous(uniform_weights(512)), horizon=2, seed=0)
    configs = [replace(base, seed=seed) for seed in range(10_000)]
    returns = np.array(run_all(configs, lambda record: record.returns[0]))
    report(1, *check_1(returns, 1024))


def test_criterion_1_check_fails_on_a_misstated_size():
    """Returns of the variance of N_s = 1024 pass at 1024, and fail at twice or half the size."""
    returns = np.random.default_rng(1).normal(scale=math.sqrt(var_r0(1024)), size=10_000)
    assert check_1(returns, 1024)[0]
    assert not check_1(returns, 2048)[0]
    assert not check_1(returns, 512)[0]


def check_2(returns):
    """Information absorption: the std of the later half of ``returns`` is at most a tenth of
    the mean |r| of the first 10, and its kurtosis is Gaussian-like, in [2.5, 4]."""
    head = float(np.abs(returns[:10]).mean())
    window = returns[(returns.size + 1) // 2:]  # at horizon 60000, the 3e4 steps analyzed
    ratio = float(window.std()) / head
    kurt = kurtosis(window)
    ok = ratio <= 0.1 and 2.5 <= kurt <= 4.0
    return ok, (f"post-transient std / initial mean |r| = {ratio:.3f} (<= 0.1), "
                f"kurtosis = {kurt:.2f} (in [2.5, 4])")


def test_criterion_2_exogenous_information_absorption():
    config = MarketConfig(n_speculators=1024, use_param=0.8,
                          info_mode=Exogenous(uniform_weights(512)),
                          horizon=60_000, seed=5)
    report(2, *check_2(run(config).returns))


def test_criterion_2_check_fails_on_controls():
    """Gaussian returns that shrink a hundredfold after the first 10 pass; ones that do not
    shrink fail on the std ratio, uniform ones on the lower kurtosis bound and Laplace ones
    on the upper."""
    rng = np.random.default_rng(2)
    head, transient = rng.normal(size=10), rng.normal(size=29_989)

    def returns(window):
        return np.concatenate([head, transient, window])

    assert check_2(returns(0.01 * rng.normal(size=30_000))) == (
        True, "post-transient std / initial mean |r| = 0.012 (<= 0.1), kurtosis = 3.03 (in [2.5, 4])")
    for window, ratio, kurt in ((rng.normal(size=30_000), "1.184", "3.00"),
                                (0.01 * rng.uniform(-1.0, 1.0, size=30_000), "0.007", "1.79"),
                                (0.01 * rng.laplace(size=30_000), "0.017", "5.92")):
        assert check_2(returns(window)) == (
            False, f"post-transient std / initial mean |r| = {ratio} (<= 0.1), "
                   f"kurtosis = {kurt} (in [2.5, 4])")


def check_3(window):
    """Heavy tails of ``window``: kurtosis > 10, a finite Hill exponent on a tail of >= 50
    points, and a CCDF at 5 sigma of at least 10x the Gaussian's."""
    kurt = kurtosis(window)
    fit = hill_fit_ks(np.abs(window)[np.abs(window) > 0])
    centered = window - window.mean()
    sigma = float(window.std())
    empirical = float((np.abs(centered) > 5 * sigma).mean())
    gaussian = math.erfc(5 / math.sqrt(2))
    ok = (kurt > 10 and math.isfinite(fit.exponent) and fit.n_tail >= 50
          and empirical >= 10 * gaussian)
    return ok, (f"kurtosis = {kurt:.1f} (> 10), xi = {fit.exponent:.2f} with "
                f"n_tail = {fit.n_tail} (>= 50), CCDF(5 sigma) = {empirical:.1e} "
                f"= {empirical / gaussian:.0f}x Gaussian (>= 10x)")


def test_criterion_3_endogenous_heavy_tails(heavy_tail_benchmark_returns):
    report(3, *check_3(heavy_tail_benchmark_returns[-30_000:]))


def test_criterion_3_check_fails_on_controls():
    """Student-t returns of 3 degrees of freedom pass; Gaussian returns fail on their kurtosis
    and their 5 sigma CCDF. The finite exponent cannot fail: ``hill_fit_ks`` keeps only
    candidates whose Hill mean is above a positive floor."""
    rng = np.random.default_rng(3)
    assert check_3(rng.standard_t(3, size=30_000))[0]
    ok, detail = check_3(rng.normal(size=30_000))
    assert not ok and detail.startswith("kurtosis = 3.0 (> 10)")
    assert "CCDF(5 sigma) = 0.0e+00 = 0x Gaussian" in detail


def check_4(series, control):
    """Volatility clustering: the |r| autocorrelation of ``series`` is positive at lags
    10/50/100/500, and that of ``control`` is inside the 3/sqrt(n) band there."""
    lags = (10, 50, 100, 500)
    ac = autocorr_abs(series, max_lag=500)
    ac_control = autocorr_abs(control, max_lag=500)
    band = 3 / math.sqrt(series.size)
    positive = all(ac[lag] > 0 for lag in lags)
    controlled = all(abs(ac_control[lag]) < band for lag in lags)
    ok = positive and controlled
    return ok, ("autocorr |r| at lags 10/50/100/500 = "
                + "/".join(f"{ac[lag]:.3f}" for lag in lags)
                + f" (all > 0); shuffled max |ac| = "
                f"{max(abs(ac_control[lag]) for lag in lags):.4f} < {band:.4f}")


def shuffled(window):
    out = window.copy()
    np.random.default_rng(7).shuffle(out)
    return out


def test_criterion_4_volatility_clustering(heavy_tail_benchmark_returns):
    window = heavy_tail_benchmark_returns[-30_000:]
    report(4, *check_4(window, shuffled(window)))


def test_criterion_4_check_fails_on_controls(heavy_tail_benchmark_returns):
    """Each side fails alone: the shuffled window as the series is not positive at every lag,
    and the window itself as the control is outside the band."""
    window = heavy_tail_benchmark_returns[-30_000:]
    assert not check_4(shuffled(window), shuffled(window))[0]
    assert not check_4(window, window)[0]


def check_5(measured, bounds):
    """Each alpha's variance inside its analytic bracket, and a drop of >= 100x from a=2 to a=1/4.

    ``measured`` and ``bounds`` map alpha to a variance and to its ``VarianceBounds``.
    """
    def clipped(x):
        # collapsed markets sit at numerical noise far below the 2**-D scale
        # of the analytic curves; values and bounds are clipped to the float64
        # discrimination floor and marked where the clip applies
        return max(x, VAR_FLOOR), f"{max(x, VAR_FLOOR):.2e}{' (floor)' if x < VAR_FLOOR else ''}"

    inside, shown = {}, {}
    for alpha in measured:
        (value, v_text), (lower, l_text), (upper, u_text) = (
            clipped(measured[alpha]), clipped(bounds[alpha].lower), clipped(bounds[alpha].upper))
        inside[alpha] = lower <= value <= upper
        shown[alpha] = f"{v_text} in [{l_text}, {u_text}]"
    drop = measured[2.0] / max(measured[0.25], 1e-300)
    ok = all(inside.values()) and drop >= 100.0
    detail = ", ".join(f"a={a}: {shown[a]}{'' if inside[a] else ' OUT'}" for a in measured)
    return ok, f"{detail}; drop a=2 -> a=1/4 is {drop:.1e}x (>= 100x)"


CRITERION_5_DIMENSION = 128
CRITERION_5_ALPHAS = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0)


def test_criterion_5_phase_transition_bounds():
    dimension, horizon, n_seeds, gamma = CRITERION_5_DIMENSION, 100_000, 10, 0.1
    alphas = CRITERION_5_ALPHAS
    bounds = {b.alpha: b for b in variance_curve(dimension, alphas)}
    configs = [MarketConfig(n_speculators=round(dimension / alpha), use_param=gamma,
                            info_mode=Exogenous(uniform_weights(dimension)),
                            horizon=horizon, seed=seed)
               for alpha in alphas for seed in range(n_seeds)]
    variances = run_all(configs, lambda r: float(np.var(r.returns[r.returns.size // 2:])))
    by_alpha = np.reshape(variances, (len(alphas), n_seeds))
    measured = {alpha: float(np.exp(np.mean(np.log(np.sort(row))))) for alpha, row in zip(alphas, by_alpha)}
    report(5, *check_5(measured, bounds))


def test_criterion_5_check_fails_on_controls():
    """Variances inside every bracket pass; one outside its bracket, on either side, fails, and
    so does a drop below 100x. The drop side cannot fail alone: inside the brackets, a=2 sits
    above 1e-2 and a=1/4 at the 1e-10 floor, a drop of at least 1e8."""
    bounds = {b.alpha: b for b in variance_curve(CRITERION_5_DIMENSION, CRITERION_5_ALPHAS)}
    inside = {alpha: max(b.heuristic, 1e-12) for alpha, b in bounds.items()}
    assert check_5(inside, bounds)[0]
    above = {**inside, 4.0: 10 * bounds[4.0].upper}
    below = {**inside, 1.0: bounds[1.0].lower / 10}
    flat = {**inside, 0.25: inside[2.0] / 10}
    for measured in (above, below):
        ok, detail = check_5(measured, bounds)
        assert not ok and detail.count(" OUT") == 1
    ok, detail = check_5(flat, bounds)
    assert not ok and detail.endswith("drop a=2 -> a=1/4 is 1.0e+01x (>= 100x)")


def check_6(summary, control):
    """P(tau) exponent 2.5 +- 0.5 with mean |r| strictly increasing over the top tau decade,
    and the exogenous control's exponent 2.0 +- 0.3; both are ``SurpriseSummary`` values."""
    endo_exponent = summary.tau_tail.exponent + 1.0
    top = summary.bin_centers > summary.bin_centers.max() / 10
    increasing = bool(np.all(np.diff(summary.bin_means[top]) > 0))
    control_exponent = control.tau_tail.exponent + 1.0
    ok = (abs(endo_exponent - 2.5) <= 0.5 and increasing
          and abs(control_exponent - 2.0) <= 0.3)
    return ok, (f"P(tau) exponent endogenous = {endo_exponent:.2f} (2.5 +- 0.5), "
                f"exogenous control = {control_exponent:.2f} (2.0 +- 0.3); "
                f"mean |r| strictly increasing over top tau decade: {increasing} "
                f"(log-log corr {summary.log_correlation:.2f})")


def test_criterion_6_surprise_statistics():
    # both 2M-step N = 2048 markets run at once on two threads, so both
    # 80 MB records are alive together
    configs = [MarketConfig(n_speculators=2048, use_param=0.5, info_mode=info_mode,
                            horizon=2_000_000, seed=11)
               for info_mode in (Endogenous(10), Exogenous(exponential_weights(0.02, 1024)))]
    # the bins only enter the endogenous side; the control reads its tau tail
    summary, control = run_all(configs, lambda r: surprise_stats(second_half(r), bins_per_decade=4))
    report(6, *check_6(summary, control))


def synthetic_surprise(seed, density_exponent, magnitude):
    """Surprise statistics of 100k Pareto taus whose density falls as tau^-``density_exponent``,
    each paired with |r| = ``magnitude(tau)``."""
    pareto = np.random.default_rng(seed).pareto(density_exponent - 1.0, size=100_000) + 1.0
    taus = np.concatenate([[0], np.ceil(1000 * pareto).astype(np.int64)])
    record = SimulationRecord(prices=np.ones(taus.size), returns=magnitude(taus[1:]),
                              mus=np.zeros(taus.size, dtype=np.int64), taus=taus,
                              mean_spec_capital=np.ones(taus.size), final_spec_capitals=np.ones(1))
    return surprise_stats(record, bins_per_decade=4)


def test_criterion_6_check_fails_on_controls():
    """Synthetic taus at exponents 2.5 and 2.0 with |r| rising in tau pass; each side fails alone:
    an exponent of 4 for the endogenous taus, a flat mean |r|, a control exponent of 2.6."""
    rising, flat = (lambda tau: np.log(tau)), (lambda tau: np.full(tau.shape, 0.5))
    summary, control = synthetic_surprise(1, 2.5, rising), synthetic_surprise(2, 2.0, rising)
    assert check_6(summary, control)[0]
    assert not check_6(synthetic_surprise(1, 4.0, rising), control)[0]
    ok, detail = check_6(synthetic_surprise(1, 2.5, flat), control)
    assert not ok and "top tau decade: False" in detail
    assert not check_6(summary, synthetic_surprise(2, 2.6, rising))[0]


def _manifold_residual(state):
    gamma, eps = state.config.use_param, state.config.epsilon
    demand = np.empty(state.config.n_states)
    supply = np.empty(state.config.n_states)
    for mu in range(state.config.n_states):
        buy = state.strategies[mu]
        demand[mu] = gamma * (state.money * buy).sum() + eps
        supply[mu] = gamma * (state.stocks * ~buy).sum() + eps
    p_bar = float((demand / supply).mean())
    return float(np.abs(demand - p_bar * supply).max()), p_bar


def _manifold_distance(state):
    """The manifold residual of ``state``, and its max |p - p_bar| over the next 1e3 steps."""
    residual, p_bar = _manifold_residual(state)
    return residual, max(abs(step(state).price - p_bar) for _ in range(1000))


def check_7(pair, relaxed):
    """Invariant manifold: the market states ``pair`` and ``relaxed`` each have a residual
    below 1e-9, and clear within 1e-6 of their p_bar over the next 1e3 steps, which the check
    steps them through."""
    (residual_a, deviation_a), (residual_b, deviation_b) = map(_manifold_distance, (pair, relaxed))
    ok = (residual_a < 1e-9 and deviation_a < 1e-6
          and residual_b < 1e-9 and deviation_b < 1e-6)
    return ok, (f"complementary pair: residual {residual_a:.1e}, max |p - p_bar| "
                f"{deviation_a:.1e}; relaxed gamma=1e-3 market: residual {residual_b:.2e}, "
                f"max |p - p_bar| {deviation_b:.2e} (both < 1e-6 over 1e3 steps)")


def strategy_pair(complementary=True):
    """Two speculators over 8 states, the second's strategy the complement of the first's
    where ``complementary``; then the market is on the manifold from the start."""
    state = new_market(MarketConfig(n_speculators=2, use_param=0.7,
                                    info_mode=Exogenous(uniform_weights(8)), horizon=1, seed=3))
    if complementary:
        state.strategies[:, 1] = ~state.strategies[:, 0]
    return state


def relaxed_market(steps=20_000):
    """A market at use 1e-3 after ``steps`` steps; 20000 take its residual below 1e-9."""
    state = new_market(MarketConfig(n_speculators=32, use_param=1e-3,
                                    info_mode=Exogenous(uniform_weights(2)), horizon=1, seed=5))
    for _ in range(steps):
        step(state)
    return state


def test_criterion_7_invariant_manifold():
    report(7, *check_7(strategy_pair(), relaxed_market()))


def test_criterion_7_check_fails_on_controls():
    """Each side fails alone: a seeded pair whose strategies are not complementary, and the
    use 1e-3 market before it has relaxed."""
    ok, detail = check_7(strategy_pair(complementary=False), relaxed_market())
    assert not ok and detail.startswith("complementary pair: residual 2.5e+09, ")
    assert detail.endswith("; relaxed gamma=1e-3 market: residual 4.86e-12, "
                           "max |p - p_bar| 1.17e-09 (both < 1e-6 over 1e3 steps)")
    ok, detail = check_7(strategy_pair(), relaxed_market(steps=0))
    assert not ok and "; relaxed gamma=1e-3 market: residual 1.00e-03, " in detail
    assert detail.startswith("complementary pair: residual 0.0e+00, max |p - p_bar| 0.0e+00; ")


def _sign_test_decreases(diffs, confidence=0.99):
    """One-sided exact sign test that decreases dominate the diff sequence."""
    nonzero = diffs[diffs != 0.0]
    n = nonzero.size
    decreases = int((nonzero < 0).sum())
    # smallest k with P(Bin(n, 1/2) >= k) <= 1 - confidence
    tail = 0
    threshold = (1.0 - confidence) * 2.0 ** n
    for k in range(n, -1, -1):
        tail += math.comb(n, k)
        if tail > threshold:
            return decreases >= k + 1, decreases, n
    return True, decreases, n


def check_8(squared):
    """Learning-rule descent: after a burn-in of 100, decreases dominate the 600 diffs of the
    running mean of ``squared`` by a 99% one-sided sign test, over at least 500 nonzero diffs."""
    running_mean = np.cumsum(squared) / np.arange(1, len(squared) + 1)
    diffs = np.diff(running_mean[100:701])
    passed, decreases, n = _sign_test_decreases(diffs)
    ok = passed and n >= 500
    return ok, (f"running mean r(mu,mu')^2 after burn-in: {decreases}/{n} diffs "
                f"decreasing (99% sign test); r^2 fell {squared[0]:.1e} -> {squared[-1]:.1e}")


def test_criterion_8_learning_rule_descent():
    config = MarketConfig(n_speculators=1024, use_param=0.02,
                          info_mode=Exogenous(uniform_weights(16)), horizon=1, seed=8)
    state = new_market(config)
    mu_pair = (3, 12)
    squared = []
    for _ in range(800):
        for mu in mu_pair:
            state.mu = mu
            orders = form_orders(state)
            settle(state, orders, clear_price(orders.demand, orders.supply))
            if mu == mu_pair[1]:
                squared.append(state.last_return ** 2)
    report(8, *check_8(squared))


def test_criterion_8_check_fails_on_controls():
    """Seeded squared returns that shrink pass, and ones that grow fail the sign test. The
    count side fails alone: one jump after 300 zeros leaves 401 nonzero diffs, all but the
    jump decreasing."""
    noise = np.random.default_rng(8).uniform(0.5, 1.5, size=800)
    shrinking = noise / np.arange(1, 801)
    assert check_8(shrinking)[0]
    ok, detail = check_8(noise * np.arange(1, 801))
    assert not ok and " 0/600 diffs decreasing" in detail
    jump = np.zeros(800)
    jump[300] = 1.0
    ok, detail = check_8(jump)
    assert not ok and " 400/401 diffs decreasing" in detail


def check_9(income, spread):
    """The income factor and the gini, each a map of alpha to its value, both peak inside
    [1/4, 1]: above their values at alpha = 1/32 and at alpha = 8."""
    interior = [0.25, 0.5, 1.0]
    income_peak = max(income[a] for a in interior)
    spread_peak = max(spread[a] for a in interior)
    ok = (income_peak > income[1 / 32] and income_peak > income[8.0]
          and spread_peak > spread[1 / 32] and spread_peak > spread[8.0])
    return ok, ("income factor a by alpha: "
                + ", ".join(f"{a:g}: {income[a]:.2e}" for a in sorted(income))
                + "; gini: " + ", ".join(f"{a:g}: {spread[a]:.3f}" for a in sorted(spread))
                + " (both maximal in [1/4, 1])")


CRITERION_9_ALPHAS = (1 / 32, 1 / 4, 1 / 2, 1.0, 8.0)


def test_criterion_9_critical_point_economics():
    base = MarketConfig(n_speculators=1024, use_param=0.5,
                        info_mode=Endogenous(5), horizon=400_000, seed=17)
    rows = alpha_scan(base, CRITERION_9_ALPHAS, variants=("deterministic_producers",),
                      repetitions=5, n_producers=16)
    income = {row["alpha"]: row["income_factor"] for row in rows}
    spread = {row["alpha"]: row["gini"] for row in rows}
    report(9, *check_9(income, spread))


def test_criterion_9_check_fails_on_controls():
    """Rows peaking at alpha = 1/2 pass; flat income, a flat gini and rows that peak at
    alpha = 1/32 each fail."""
    def row(values):
        return dict(zip(CRITERION_9_ALPHAS, values))

    income, spread = row((1e-4, 5e-4, 1e-3, 6e-4, 2e-4)), row((0.1, 0.3, 0.4, 0.35, 0.2))
    assert check_9(income, spread)[0]
    assert not check_9(row([1e-3] * 5), spread)[0]
    assert not check_9(income, row([0.3] * 5))[0]
    assert not check_9(row((2e-3, 5e-4, 1e-3, 6e-4, 2e-4)), row((0.5, 0.3, 0.4, 0.35, 0.2)))[0]


def check_10(artifacts, hill_exponents, span, exact):
    """Determinism and estimator oracles: the two ``artifacts`` (maps of file name to bytes)
    are byte-identical; each Hill exponent fitted to Pareto samples (a map of the true xi to
    the fit) is within 5% of xi; the span recursion's probability of rank 4 and the
    Monte-Carlo rank (``span``) differ by less than 0.02; and ``exact``, the gini of [1, 3],
    the gini of 99 zeros and a one and the kurtosis of [1, -1] * 8, is 0.25, 0.99 and 1."""
    first, second = artifacts
    replay = first == second
    hill_errors = {xi: abs(fit - xi) / xi for xi, fit in hill_exponents.items()}
    hill_ok = all(err <= 0.05 for err in hill_errors.values())
    predicted, observed = span
    rank_ok = abs(predicted - observed) < 0.02
    gini_pair, gini_spike, kurt = exact
    exact_ok = (gini_pair == pytest.approx(0.25, abs=1e-15)
                and gini_spike == pytest.approx(0.99, abs=1e-12) and kurt == 1.0)
    ok = replay and hill_ok and rank_ok and exact_ok
    return ok, (f"artifact replay byte-identical: {replay}; Hill errors "
                + ", ".join(f"xi={xi}: {err:.2%}" for xi, err in hill_errors.items())
                + f" (<= 5%); span recursion vs MC rank: {predicted:.3f} vs {observed:.3f} "
                f"(diff {abs(predicted - observed):.3f} < 0.02); exact gini/kurtosis: {exact_ok}")


def replayed_artifacts(outdir):
    """The bytes of two artifacts of one seeded config, each from its own run."""
    config = MarketConfig(n_speculators=128, use_param=0.5,
                          info_mode=Endogenous(6), horizon=3000, seed=77)
    return [{name: path.read_bytes()
             for name, path in write_run_artifact(outdir / side, config, run(config)).items()}
            for side in ("a", "b")]


def hill_exponents():
    """Hill exponents fitted to 100k Pareto samples at each xi in 1.5, 2.5 and 4."""
    rng = np.random.default_rng(42)
    return {xi: hill_fit_ks(rng.pareto(xi, size=100_000) + 1.0).exponent for xi in (1.5, 2.5, 4.0)}


def span_and_rank(rows=8):
    """The span recursion's probability that 8 binary 4-vectors span rank 4, and the share of
    100k seeded ``rows`` x 4 binary matrices of rank 4."""
    dims, probs = dim_distribution(4, 8)
    matrices = np.random.default_rng(123).integers(0, 2, size=(100_000, rows, 4)).astype(float)
    return float(probs[dims == 4.0][0]), float((np.linalg.matrix_rank(matrices) == 4).mean())


def exact_values():
    """The gini of [1, 3], the gini of 99 zeros and a one, and the kurtosis of [1, -1] * 8."""
    return gini([1.0, 3.0]), gini([0.0] * 99 + [1.0]), kurtosis([1.0, -1.0] * 8)


def test_criterion_10_determinism_and_estimator_oracles(tmp_path):
    report(10, *check_10(replayed_artifacts(tmp_path), hill_exponents(), span_and_rank(),
                         exact_values()))


def test_criterion_10_check_fails_on_controls(tmp_path):
    """Each side fails alone: a replay that differs by one byte, a Hill fit 6% off its xi,
    the Monte-Carlo rank of 7 vectors against the recursion's 8 (a gap of 0.037), and a gini
    of [1, 3] 1e-14 off 0.25."""
    artifacts, fits, span, exact = (replayed_artifacts(tmp_path), hill_exponents(),
                                    span_and_rank(), exact_values())
    assert check_10(artifacts, fits, span, exact)[0]
    first, second = artifacts
    flipped = bytearray(second["run"])
    flipped[-2] ^= 1
    controls = {
        "artifact replay byte-identical: False": ([first, {**second, "run": bytes(flipped)}],
                                                  fits, span, exact),
        "xi=2.5: 6.00%": (artifacts, {**fits, 2.5: 2.5 * 1.06}, span, exact),
        "(diff 0.037 < 0.02)": (artifacts, fits, span_and_rank(rows=7), exact),
        "exact gini/kurtosis: False": (artifacts, fits, span, (0.25 + 1e-14, *exact[1:])),
    }
    for shown, data in controls.items():
        ok, detail = check_10(*data)
        assert not ok and shown in detail, detail
