import math
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from specmarket import _kernel, analytics
from specmarket.analytics import (
    INCREMENT_MODES,
    MAX_DIMENSION,
    VarianceBounds,
    dim_distribution,
    p_cant_cancel,
    speculators_at,
    var_r0,
    variance_curve,
)
from specmarket.errors import ConfigError


class TestVarR0:
    def test_reference_values(self):
        assert var_r0(1024) == pytest.approx(1.4735e-3, abs=1e-7)
        assert var_r0(8) == pytest.approx(0.18861, abs=1e-5)

    def test_quadrupling_agents_halves_the_std(self):
        assert math.sqrt(var_r0(4 * 256)) == pytest.approx(math.sqrt(var_r0(256)) / 2)

    def test_rejects_empty_market(self):
        with pytest.raises(ConfigError):
            var_r0(0)


class TestDimDistribution:
    def test_single_vector_is_point_mass(self):
        dims, probs = dim_distribution(17, 1)
        assert dims.tolist() == [1.0]
        assert probs.tolist() == [1.0]

    def test_two_vectors_in_two_dimensions(self):
        dims, probs = dim_distribution(2, 2)
        assert dims.tolist() == [1.0, 2.0]
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_sums_to_one(self):
        for increment in ("full", "half", "interpolated"):
            for dimension, n in ((4, 8), (30, 12), (128, 200), (512, 1024)):
                _, probs = dim_distribution(dimension, n, increment)
                assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_real_rank_monte_carlo(self):
        dims, probs = dim_distribution(4, 8)
        predicted = float(probs[dims == 4.0][0])
        rng = np.random.default_rng(123)
        matrices = rng.integers(0, 2, size=(100_000, 8, 4)).astype(float)
        ranks = np.linalg.matrix_rank(matrices)
        observed = float((ranks == 4).mean())
        assert abs(predicted - observed) < 0.02

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            dim_distribution(0, 4)
        with pytest.raises(ConfigError):
            dim_distribution(1 << 20, 4)
        with pytest.raises(ConfigError):
            dim_distribution(8, 3, "steep")

    def test_rejects_a_step_count_past_int64(self):
        with pytest.raises(ConfigError, match="^n_vectors"):
            dim_distribution(512, 2**63)

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_chain_runs_in_the_kernel(self, monkeypatch):
        lib = _kernel.library()
        chain, calls = lib.specmarket_dim_chain, []
        monkeypatch.setattr(lib, "specmarket_dim_chain", lambda *args: calls.append(args) or chain(*args))
        dim_distribution(64, 100, "half")
        assert len(calls) == 1


def reference_dim_distribution(dimension, n_vectors, increment):
    """The full-array recursion: every step updates all n_vectors cells."""
    if increment == "full":
        step = 1.0
    elif increment == "half":
        step = 0.5
    else:
        p1 = min(1.0, (n_vectors + 1) / (2.0 * dimension))
        step = p1 + (1.0 - p1) * 0.5
    dims = np.minimum(1.0 + step * np.arange(n_vectors), float(dimension))
    probs, escape, moved = np.zeros(n_vectors), np.zeros(n_vectors), np.zeros(n_vectors)
    probs[0] = 1.0
    np.maximum(0.0, 1.0 - np.exp2(dims - dimension), out=escape)
    for _ in range(n_vectors - 1):
        np.multiply(probs, escape, out=moved)
        probs -= moved
        probs[1:] += moved[:-1]
    top = int(np.nonzero(probs)[0][-1])
    return dims[: top + 1], probs[: top + 1]


def assert_same_bits(dimension, n_vectors, increment):
    dims, probs = dim_distribution(dimension, n_vectors, increment)
    ref_dims, ref_probs = reference_dim_distribution(dimension, n_vectors, increment)
    assert dims.tobytes() == ref_dims.tobytes()
    assert probs.tobytes() == ref_probs.tobytes()


README_ALPHAS = (0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

#: a vector count past the chain's fixed point for the full and half steps
#: (it takes 1127 and 2258 steps past ``start`` at D = 2048, fewer below)
PAST_FIXED_POINT = 2400


def chain_start(dimension, step):
    """The first cell whose escape is below 1: the walk's mass starts there."""
    dims = np.minimum(1.0 + step * np.arange(2 * dimension + 2), float(dimension))
    return int(np.flatnonzero(np.maximum(0.0, 1.0 - np.exp2(dims - dimension)) < 1.0)[0])


def assert_walk_readings(dimension, increment, picks):
    """Each reading of the walks ``variance_curve`` makes equals the full-array recursion.

    The counts are ``picks`` in their order, repeated, with ``start`` (every
    step a sure move), ``start + 1`` (the first step at ``start``) and
    2**63 - 1, read past the fixed point and compared with the recursion at
    ``start + PAST_FIXED_POINT`` vectors.
    """
    far = 2**63 - 1
    start = chain_start(dimension, analytics._step(dimension, far, increment))
    counts = [*picks[:2], far, start + 1, *picks, max(1, start)]
    groups = {}
    for n in counts:
        groups.setdefault(analytics._step(dimension, n, increment), []).append(n)
    for step, ns in groups.items():
        # the walk yields live arrays, so each reading is copied as it passes
        readings = {n: (dims[: top + 1].copy(), probs[: top + 1].copy())
                    for n, dims, probs, top in analytics._walk(dimension, step, ns)}
        for n in ns:
            dims, probs = readings[n]
            ref_dims, ref_probs = reference_dim_distribution(
                dimension, start + PAST_FIXED_POINT if n == far else n, increment)
            assert dims.tobytes() == ref_dims.tobytes(), (step, n)
            assert probs.tobytes() == ref_probs.tobytes(), (step, n)


def oracle_cases(test):
    """Random (dimension, n_vectors, increment) cases; one Hypothesis test runs in one class."""
    cases = given(st.integers(1, 2048), st.integers(1, 6000), st.sampled_from(INCREMENT_MODES))
    return settings(max_examples=120, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])(cases(test))


def walk_cases(test):
    """Random (dimension, increment, unsorted counts with repeats) for the walker."""
    cases = given(st.integers(1, 300), st.sampled_from(INCREMENT_MODES),
                  st.lists(st.integers(1, 1500), min_size=1, max_size=5))
    return settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])(cases(test))


def reference_cant_cancel(dimension, n_speculators, increment):
    """``p_cant_cancel`` from a copied ``dim_distribution`` reading, weighted after the walk."""
    dims, probs = dim_distribution(dimension, max(1, n_speculators - 1), increment)
    weights = (1.0 - np.exp2(dims - dimension)) * (1.0 - dims / dimension)
    return float(np.dot(probs, weights))


def assert_cant_cancel(dimension, picks):
    """``_cant_cancel`` reads the live walk with the bits of the copied readings.

    The cases are ``picks`` in their order, repeated, with, for each increment,
    N_s = start (a point mass: N_s - 1 vectors fill fewer cells than ``start``)
    and N_s = start + 2 (one step of the chain).
    """
    cases = [*picks, *picks[:2]]
    for increment in INCREMENT_MODES:
        start = chain_start(dimension, analytics._step(dimension, 2**63 - 1, increment))
        cases += [(max(1, start), increment), (start + 2, increment)]
    got = analytics._cant_cancel(dimension, cases)
    assert [p.hex() for p in got] == [reference_cant_cancel(dimension, *case).hex()
                                      for case in cases]


def cancel_cases(test):
    """Random (dimension, unsorted (N_s, increment) cases with repeats) for ``_cant_cancel``."""
    cases = given(st.integers(1, 300),
                  st.lists(st.tuples(st.integers(1, 1500), st.sampled_from(INCREMENT_MODES)),
                           min_size=1, max_size=8))
    return settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])(cases(test))


class TestDimDistributionOracle:
    """The windowed recursion returns exactly the full-array recursion's bits."""

    @oracle_cases
    def test_equals_full_recursion(self, dimension, n_vectors, increment):
        assert_same_bits(dimension, n_vectors, increment)

    @walk_cases
    def test_walk_readings_equal_full_recursion(self, dimension, increment, picks):
        assert_walk_readings(dimension, increment, picks)

    @cancel_cases
    def test_cant_cancel_equals_copied_readings(self, dimension, picks):
        assert_cant_cancel(dimension, picks)

    @pytest.mark.parametrize("dimension", [53, 54, 55, 64, 65])
    def test_cant_cancel_edges(self, dimension):
        # escape rounds to 1.0 below about D - 53, so the window starts at 0 or 1 here
        picks = [(n, increment) for increment in INCREMENT_MODES
                 for n in (1, 2, 3, dimension - 1, dimension, dimension + 1, 4 * dimension)]
        assert_cant_cancel(dimension, picks)

    def test_cant_cancel_widest_window(self):
        # step 1/2 at the largest dimension: about 108 cells, the chain's widest window,
        # up to the cap at N_s - 1 = 2 D - 1 and past the fixed point
        picks = [(n, "half") for n in (2 * MAX_DIMENSION - 1, 2 * MAX_DIMENSION,
                                       2 * MAX_DIMENSION + 1, 4 * MAX_DIMENSION, 2**40)]
        assert_cant_cancel(MAX_DIMENSION, picks)

    @pytest.mark.parametrize("dimension", [7, 64, 512])
    def test_variance_curve_is_v0_times_p_cant_cancel(self, dimension):
        # unsorted, repeated, and on both sides of alpha = 1/2
        alphas = [2.0, 0.25, 0.5, 0.7, 0.25, 1.0, 0.49, 0.51, 8.0, 0.03125, 0.5, 300.0]
        for alpha, bounds in zip(alphas, variance_curve(dimension, alphas), strict=True):
            n_spec = speculators_at(dimension, alpha)
            v0 = var_r0(n_spec)
            assert bounds == VarianceBounds(alpha, *(v0 * p_cant_cancel(dimension, n_spec, increment)
                                                     for increment in ("full", "interpolated", "half")))

    def test_variance_curve_takes_each_chain_step_once(self, monkeypatch):
        # one walk per distinct step: 1.0 (full, and interpolated at alpha <= 1/2),
        # 0.5, and the interpolated steps of alpha = 1, 2, 4 and 8; each walk
        # resumes where its previous call stopped
        walks, walk = [], analytics._walk
        monkeypatch.setattr(analytics, "_walk", lambda *args: walks.append([]) or walk(*args))
        lib = _kernel.library()
        if lib:
            chain = lib.specmarket_dim_chain
            monkeypatch.setattr(lib, "specmarket_dim_chain",
                                lambda *args: walks[-1].append(args[3:5]) or chain(*args))
        else:
            chain = analytics._chain
            monkeypatch.setattr(analytics, "_chain",
                                lambda *args: walks[-1].append(args[3:5]) or chain(*args))
        variance_curve(512, README_ALPHAS)
        assert len(walks) == 6
        assert sum(map(len, walks)) >= 2
        for ranges in walks:
            assert [first for first, _ in ranges] == [1, *(last + 1 for _, last in ranges)][:len(ranges)]
            assert all(first <= last for first, last in ranges)

    @pytest.mark.parametrize("increment", INCREMENT_MODES)
    @pytest.mark.parametrize("dimension", [53, 54, 55])
    def test_escape_rounding_to_one(self, dimension, increment):
        # below d = D - 53 the escape probability rounds to exactly 1.0
        for n_vectors in (1, 2, 3, dimension - 1, dimension, dimension + 1, 4 * dimension):
            assert_same_bits(dimension, n_vectors, increment)

    @pytest.mark.parametrize("increment", INCREMENT_MODES)
    def test_fewer_vectors_than_sure_steps(self, increment):
        # every step is a sure move, so all the mass ends on the last cell
        dims, probs = dim_distribution(512, 100, increment)
        assert probs.tolist() == [0.0] * 99 + [1.0]
        assert_same_bits(512, 100, increment)

    @pytest.mark.parametrize("dimension", [2, 64, 512])
    @pytest.mark.parametrize("increment", ["full", "half"])
    def test_last_cell_is_the_cap(self, dimension, increment):
        # cap + 1 cells: the last one sits at d = D
        n_vectors = dimension if increment == "full" else 2 * dimension - 1
        dims, _ = dim_distribution(dimension, n_vectors, increment)
        assert dims[-1] == dimension and dims[-2] < dimension
        assert_same_bits(dimension, n_vectors, increment)

    @pytest.mark.parametrize("increment", INCREMENT_MODES)
    @pytest.mark.parametrize("alpha", README_ALPHAS)
    def test_readme_alphas(self, alpha, increment):
        # the calls variance_curve(512, README_ALPHAS) makes; the small alphas
        # strand subnormal mass below the cap
        assert_same_bits(512, max(1, round(512 / alpha) - 1), increment)

    @pytest.mark.parametrize("increment", INCREMENT_MODES)
    def test_arrays_bounded_by_the_dimension(self, increment):
        # the chain reaches its fixed point long before 1e5 vectors; 1e12 cells,
        # or 2**63 - 1, would not fit in memory
        dims, probs = dim_distribution(512, 10**5, increment)
        for n_vectors in (10**12, 2**63 - 1):
            far_dims, far_probs = dim_distribution(512, n_vectors, increment)
            assert far_dims.tobytes() == dims.tobytes()
            assert far_probs.tobytes() == probs.tobytes()


class TestDimDistributionOracleNumpy(TestDimDistributionOracle):
    """The numpy loop, run where the C kernel cannot be built, gives the same bits."""

    @pytest.fixture(autouse=True, scope="class")
    def numpy_chain(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernel, "_LIBRARY", False)
            yield

    @oracle_cases
    def test_equals_full_recursion(self, dimension, n_vectors, increment):
        assert_same_bits(dimension, n_vectors, increment)

    @walk_cases
    def test_walk_readings_equal_full_recursion(self, dimension, increment, picks):
        assert_walk_readings(dimension, increment, picks)

    @cancel_cases
    def test_cant_cancel_equals_copied_readings(self, dimension, picks):
        assert_cant_cancel(dimension, picks)


class TestCancellation:
    def test_saturated_span_cancels_everything(self):
        assert p_cant_cancel(3, 64) == pytest.approx(0.0, abs=1e-9)
        assert p_cant_cancel(3, 64, "half") == pytest.approx(0.0, abs=1e-9)

    def test_lone_agent(self):
        for dimension in (8, 64, 512):
            assert p_cant_cancel(dimension, 1) == pytest.approx(1 - 1 / dimension, rel=1e-2)

    def test_monotone_in_speculators(self):
        for increment in ("full", "half", "interpolated"):
            values = [p_cant_cancel(64, n, increment) for n in (1, 2, 4, 8, 16, 32, 64, 128, 256)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_matches_least_squares_oracle(self):
        # cancellation by an optimal unconstrained superposition of +-1 impact
        # vectors: uncancelled energy fraction versus the span recursion
        rng = np.random.default_rng(77)
        dimension, n_spec, trials = 8, 4, 6000
        total = 0.0
        for _ in range(trials):
            others = 2.0 * rng.integers(0, 2, size=(dimension, n_spec - 1)) - 1.0
            target = 2.0 * rng.integers(0, 2, size=dimension) - 1.0
            coef = np.linalg.lstsq(others, target, rcond=None)[0]
            residual = target - others @ coef
            total += float(residual @ residual) / dimension
        observed = total / trials
        assert abs(observed - p_cant_cancel(dimension, n_spec)) < 0.05


class TestVarianceCurve:
    def test_bound_ordering(self):
        for bounds in variance_curve(512, [2.0 ** k for k in range(-5, 4)]):
            assert 0.0 <= bounds.lower <= bounds.heuristic + 1e-18
            assert bounds.heuristic <= bounds.upper + 1e-18

    def test_phase_transition_locations(self):
        curve = {b.alpha: b for b in variance_curve(64, [0.25, 0.5, 0.7, 2.0])}
        # the lower limit vanishes below alpha = 1, the upper below alpha = 1/2
        assert curve[0.5].lower < 1e-9 * var_r0(128)
        assert curve[0.25].upper < 1e-9 * var_r0(256)
        # between the transitions only the upper limit stays macroscopic
        assert curve[0.7].lower < 1e-3 * curve[0.7].upper
        assert curve[0.7].upper > 0.05 * var_r0(round(64 / 0.7))
        assert curve[2.0].lower > 0.5 * var_r0(32)

    def test_empty_market_asymptote(self):
        # far too few agents to cancel anything: all curves at var_r0 * (1 - 1/D)
        for bounds in variance_curve(512, [256.0]):
            target = var_r0(2) * (1 - 1 / 512)
            assert bounds.lower == pytest.approx(target, rel=1e-2)
            assert bounds.upper == pytest.approx(target, rel=1e-2)
            assert bounds.heuristic == pytest.approx(target, rel=1e-2)

    def test_market_past_int64_refused_by_name(self):
        assert speculators_at(512, math.nextafter(2.0**-54, 1.0)) == 2**63 - 2048
        for alpha in (2.0**-54, 1e-200, 1e-320):
            with pytest.raises(ConfigError, match="^alpha = .* does not fit a 64-bit integer"):
                variance_curve(512, [1.0, alpha])

    def test_rejects_bad_alpha(self):
        for alpha in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="alpha"):
                variance_curve(64, [1.0, alpha])
