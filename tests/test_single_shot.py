"""Tests for the single-shot cycle and the binary-feedback variant."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.stats import chi2, expon, kstest

import qmengine as qm
from qmengine import single_shot

# sqrt(pi) * erfc(1/2), evaluated with mpmath at 30 digits
SQRT_PI_ERFC_HALF = 0.8498918380799311


class TestOutcomeSampling:
    @pytest.mark.parametrize("nbar", [0.0, 2.0])
    def test_radial_law_is_exponential(self, nbar):
        rng = qm.NoiseSource(11).generator()
        r, _ = qm.sample_outcomes(nbar, 100_000, rng)
        res = kstest(r * r, expon(scale=1.0 + nbar).cdf)
        assert res.pvalue >= 0.01

    def test_phase_uniform_chi_square(self):
        rng = qm.NoiseSource(12).generator()
        _, theta = qm.sample_outcomes(1.0, 100_000, rng)
        counts, _ = np.histogram(theta, bins=32, range=(0.0, 2.0 * math.pi))
        expected = 100_000 / 32
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stat < chi2.ppf(0.99, 31)

    def test_mean_quanta_vacuum(self):
        rng = qm.NoiseSource(13).generator()
        r, _ = qm.sample_outcomes(0.0, 100_000, rng)
        assert np.mean(r * r) == pytest.approx(1.0, abs=0.01)

    def test_mean_quanta_thermal(self):
        rng = qm.NoiseSource(14).generator()
        r, _ = qm.sample_outcomes(2.0, 100_000, rng)
        assert np.mean(r * r) == pytest.approx(3.0, abs=0.03)

    def test_negative_occupation_rejected(self):
        rng = qm.NoiseSource(0).generator()
        with pytest.raises(ValueError):
            qm.sample_outcomes(-1.0, 10, rng)

    def test_sampling_deterministic(self):
        a = qm.sample_outcomes(1.0, 10, qm.NoiseSource(5).generator())
        b = qm.sample_outcomes(1.0, 10, qm.NoiseSource(5).generator())
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestFullFeedbackWork:
    def test_ensemble_mean_one_plus_nbar(self):
        rng = qm.NoiseSource(15).generator()
        r, _ = qm.sample_outcomes(1.0, 100_000, rng)
        assert np.mean(r * r) == pytest.approx(2.0, abs=0.02)


class TestBinaryFeedbackWork:
    def test_threshold_is_continuous(self):
        r0 = 1.7
        at, below = qm.extract_work_binary(np.array([0.5 * r0, 0.5 * r0 - 1e-9]), r0)
        assert at == pytest.approx(0.0, abs=1e-15)
        assert below == 0.0

    def test_direct_substitution(self):
        work = qm.extract_work_binary(np.array([2.0, 0.1]), 1.0)
        assert np.array_equal(work, [3.0, 0.0])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            qm.extract_work_binary(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            qm.extract_work_binary(np.array([1.0, -1.0]), 1.0)
        with pytest.raises(ValueError):
            qm.binary_average_work(1.0, -2.0)
        # an array is rejected if any element is out of its domain
        with pytest.raises(ValueError):
            qm.binary_average_work(np.array([1.0, -1.0]), 1.0)
        with pytest.raises(ValueError):
            qm.binary_average_work(1.0, np.array([1.0, 0.0]))

    def test_closed_form_vanishes_with_threshold(self):
        assert qm.binary_average_work(0.0, 1e-12) == pytest.approx(0.0, abs=1e-10)

    def test_closed_form_against_high_precision_erfc(self):
        assert qm.binary_average_work(0.0, 1.0) == pytest.approx(
            SQRT_PI_ERFC_HALF, rel=1e-12
        )
        # independent high-precision evaluation, not scipy
        val = float(mpmath.sqrt(mpmath.pi) * mpmath.erfc(mpmath.mpf(1) / 2))
        assert qm.binary_average_work(0.0, 1.0) == pytest.approx(val, rel=1e-14)

    @pytest.mark.parametrize("nbar,r0", [(0.0, 0.5), (1.0, 1.0), (3.0, 2.0)])
    def test_monte_carlo_matches_closed_form(self, nbar, r0):
        rng = qm.NoiseSource(16).generator()
        r, _ = qm.sample_outcomes(nbar, 200_000, rng)
        work = qm.extract_work_binary(r, r0)
        assert np.mean(work) == pytest.approx(
            qm.binary_average_work(nbar, r0), rel=0.01
        )

    def test_sampler_and_scalar_extraction_agree(self):
        rng = qm.NoiseSource(17).generator()
        r, _ = qm.sample_outcomes(2.0, 500, rng)
        vec = qm.extract_work_binary(r, 1.5)
        scalar = np.array([2.0 * x * 1.5 - 1.5**2 if x >= 0.75 else 0.0 for x in r])
        assert np.array_equal(vec, scalar)


class TestBinaryEfficiency:
    def test_collapses_onto_single_variable(self):
        # equal u = r0/sqrt(1+nbar) gives equal efficiency
        pairs = [((0.0, 1.0), (3.0, 2.0)), ((1.0, 0.7), (7.0, 1.4))]
        for (n1, r1), (n2, r2) in pairs:
            assert r1 / math.sqrt(1 + n1) == pytest.approx(r2 / math.sqrt(1 + n2))
            assert qm.binary_efficiency(n1, r1) == pytest.approx(
                qm.binary_efficiency(n2, r2), rel=1e-12
            )

    @given(u=st.floats(1e-6, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_below_unity_for_positive_shift(self, u):
        assert qm.binary_efficiency(0.0, u) < 1.0

    def test_arrays_match_the_float_form_bit_for_bit(self):
        # the figure-S2 grid in one call, against the closed form per cell
        # in Python floats
        nbar, r0 = np.meshgrid(
            np.linspace(0.0, 4.0, 41), np.linspace(0.05, 5.0, 100), indexing="ij"
        )
        grid = qm.binary_efficiency(nbar, r0)
        cells = [
            r * math.sqrt(math.pi * (1.0 + n)) * single_shot.erfc(r / (2.0 * math.sqrt(1.0 + n)))
            / (1.0 + n)
            for n, r in zip(nbar.ravel().tolist(), r0.ravel().tolist())
        ]
        assert grid.shape == (41, 100)
        assert np.array_equal(grid.ravel().view(np.int64), np.array(cells).view(np.int64))

    def test_grid_maximum(self):
        u_best, eta_best = qm.max_binary_efficiency()
        assert 0.84 <= eta_best <= 0.86
        # high-precision stationary point: u* = 1.06319..., eta* = 0.852109...
        assert eta_best == pytest.approx(0.8521092691, abs=1e-5)
        assert u_best == pytest.approx(1.0632, abs=2e-3)

    def test_binary_never_beats_full_feedback(self):
        for nbar in (0.0, 1.0, 3.0):
            for r0 in (0.5, 1.0, 2.0):
                assert qm.binary_average_work(nbar, r0) < 1.0 + nbar


#: Branch edges of Cephes erfc: |x| = 1 (erf form), 8 (P/Q to R/S), about
#: 26.64 (exp(-x*x) underflows: x*x > MAXLOG) and the non-finite inputs.
_MAXLOG_CUT = math.sqrt(single_shot._MAXLOG)
ERFC_EDGES = np.array(
    [0.0, -0.0, 1.0, -1.0, 8.0, -8.0, math.inf, -math.inf, math.nan, 5e-324, 1e300]
    + [np.nextafter(e, 0.0) for e in (1.0, -1.0, 8.0, -8.0)]
    + [sign * (_MAXLOG_CUT + k * 4e-15) for sign in (1, -1) for k in range(-5, 6)]
)


class TestErfc:
    @pytest.mark.filterwarnings("error")
    def test_erfc_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(20)
        points = np.concatenate([
            ERFC_EDGES,
            rng.uniform(-30.0, 30.0, 100_000),
            rng.normal(0.0, 2.0, 50_000),
            np.arange(0.0, 5.0 + 5e-4, 1e-3) / 2,  # the max_binary_efficiency grid
        ])
        ref = special.erfc(points)
        # arrays, also a 2-d one
        assert single_shot.erfc(points).tobytes() == ref.tobytes()
        assert single_shot.erfc(points[:600].reshape(20, 30)).tobytes() == ref[:600].tobytes()
        # Python floats in, Python floats out: every edge and a subsample of the rest
        for x, want in zip(points[:5_000], ref[:5_000]):
            got = single_shot.erfc(float(x))
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == want.tobytes(), x


    @pytest.mark.filterwarnings("error")
    def test_array_path_matches_the_scalar_loop_in_every_branch(self):
        rng = np.random.default_rng(21)
        sign = rng.choice([-1.0, 1.0], 20_000)
        branches = {
            "|x| < 1": rng.uniform(-1.0, 1.0, 20_000),
            "1 <= |x| < 8": rng.uniform(1.0, 8.0, 20_000) * sign,
            "8 <= |x| <= cut": rng.uniform(8.0, _MAXLOG_CUT, 20_000) * sign,
            # exp(-x*x) underflows, and x*x overflows past 1.3e154
            "underflow": np.concatenate([
                rng.uniform(_MAXLOG_CUT, 1e3, 10_000), 10.0 ** rng.uniform(3.0, 308.0, 10_000)
            ]) * sign,
            "edges": ERFC_EDGES,
            "non-finite and zeros": np.array([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0]),
        }
        for name, points in branches.items():
            want = np.array([single_shot._erfc_scalar(x) for x in points.tolist()])
            assert single_shot.erfc(points).tobytes() == want.tobytes(), name


class TestAddedQuantum:
    @pytest.mark.parametrize("nbar", [0.0, 5.0])
    def test_one_quantum_added(self, nbar):
        rng = qm.NoiseSource(18).generator()
        mean, stderr = qm.added_quantum_check(nbar, 100_000, rng)
        assert abs(mean - (nbar + 1.0)) <= 3.0 * stderr

    def test_stderr_scales_with_sample_count(self):
        rng = qm.NoiseSource(19).generator()
        _, se_small = qm.added_quantum_check(1.0, 20_000, rng)
        _, se_large = qm.added_quantum_check(1.0, 80_000, rng)
        assert se_small / se_large == pytest.approx(2.0, rel=0.25)

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError):
            qm.added_quantum_check(1.0, 100, qm.NoiseSource(0).generator())
