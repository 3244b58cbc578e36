"""Tests for the single-shot cycle and the binary-feedback variant."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


#: Where an erfc changes form: the zeros and the non-finite inputs; |x| = 1
#: and 8; about 26.64, past which exp(-x*x) underflows (x*x > log(DBL_MAX));
#: and glibc's branch points 0.84375, 1.25, 1/0.35, 6 and 28, each with its
#: neighbours and of both signs.
_UNDERFLOW_CUT = 26.641747557046326
_GLIBC_BRANCHES = (0.84375, 1.25, 1 / 0.35, 6.0, 28.0)
ERFC_EDGES = np.array(
    [0.0, -0.0, 1.0, -1.0, 8.0, -8.0, math.inf, -math.inf, math.nan, 5e-324, 1e300]
    + [np.nextafter(e, 0.0) for e in (1.0, -1.0, 8.0, -8.0)]
    + [sign * (_UNDERFLOW_CUT + k * 4e-15) for sign in (1, -1) for k in range(-5, 6)]
    + [
        sign * x
        for b in _GLIBC_BRANCHES
        for x in (np.nextafter(b, 0.0), b, np.nextafter(b, math.inf))
        for sign in (1, -1)
    ]
)


def _ulps(got, want) -> np.ndarray:
    """|got - want| per point, in units of the last place of the double
    nearest each 120-bit want."""
    with mpmath.workprec(120):
        return np.array([
            float(abs(mpmath.mpf(g) - w)) / math.ulp(float(w)) for g, w in zip(got, want)
        ])


class TestErfc:
    @pytest.mark.filterwarnings("error")
    def test_erfc_is_within_8_ulp_of_mpmath(self):
        rng = np.random.default_rng(20)
        u = np.arange(
            0.0, single_shot.EFFICIENCY_U_MAX + 0.5 * single_shot.EFFICIENCY_U_STEP,
            single_shot.EFFICIENCY_U_STEP,
        )
        nbar, r0 = np.meshgrid(
            np.linspace(0.0, 4.0, 41), np.linspace(0.05, 5.0, 100), indexing="ij"
        )
        points = np.concatenate([
            ERFC_EDGES[~np.isnan(ERFC_EDGES)],
            rng.uniform(-30.0, 30.0, 20_000),
            0.5 * u,  # the arguments max_binary_efficiency takes
            (r0 / (2.0 * np.sqrt(1.0 + nbar))).ravel(),  # and figure-S2's
        ])
        x = points.tolist()
        # past |x| = 40, where mpmath's series overflow at 1e300, erfc(+-40)
        # stands in: both round to 0 or 2
        with mpmath.workprec(120):
            want = [mpmath.erfc(mpmath.mpf(min(max(p, -40.0), 40.0))) for p in x]
        array_ulps = _ulps(single_shot.erfc(points).tolist(), want)
        scalar_ulps = _ulps([single_shot.erfc(p) for p in x], want)
        assert array_ulps.max() <= 8.0, x[int(array_ulps.argmax())]
        assert scalar_ulps.max() <= 8.0, x[int(scalar_ulps.argmax())]
        assert math.isnan(single_shot.erfc(math.nan))
        assert np.isnan(single_shot.erfc(np.array([math.nan])))[0]

    @pytest.mark.filterwarnings("error")
    def test_array_path_matches_math_erfc_in_every_region(self):
        rng = np.random.default_rng(21)
        sign = rng.choice([-1.0, 1.0], 20_000)
        regions = {
            "|x| < 1": rng.uniform(-1.0, 1.0, 20_000),
            "1 <= |x| < 8": rng.uniform(1.0, 8.0, 20_000) * sign,
            "8 <= |x| <= cut": rng.uniform(8.0, _UNDERFLOW_CUT, 20_000) * sign,
            # results below the smallest normal double, down to 0 past 27.3
            "subnormal": rng.uniform(_UNDERFLOW_CUT, 27.3, 20_000) * sign,
            # exp(-x*x) underflows, and x*x overflows past 1.3e154
            "underflow": np.concatenate([
                rng.uniform(_UNDERFLOW_CUT, 1e3, 10_000), 10.0 ** rng.uniform(3.0, 308.0, 10_000)
            ]) * sign,
            "edges": ERFC_EDGES,
            "non-finite and zeros": np.array([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0]),
        }
        for name, points in regions.items():
            want = np.array([math.erfc(x) for x in points.tolist()])
            assert single_shot.erfc(points).tobytes() == want.tobytes(), name
        subnormal = single_shot.erfc(regions["subnormal"])
        assert np.any((0.0 < subnormal) & (subnormal < np.finfo(float).tiny))
        # a 2-d array keeps its shape; a Python float gives a Python float
        grid = regions["|x| < 1"][:600].reshape(20, 30)
        assert single_shot.erfc(grid).shape == (20, 30)
        assert single_shot.erfc(grid).tobytes() == single_shot.erfc(grid.ravel()).tobytes()
        for x in (0.5, np.float64(0.5)):
            got = single_shot.erfc(x)
            assert type(got) is float and got == math.erfc(0.5)


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
