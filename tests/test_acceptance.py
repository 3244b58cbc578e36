"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  All runs are seeded and deterministic.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import qmengine as qm
from qmengine.feedback import run_ensemble_arrays


def report(cid: str, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {cid} {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{cid} {description}"


def test_c01_single_shot_mean_work():
    ok = True
    details = []
    for i, nbar in enumerate((0.0, 0.5, 1.0, 3.0)):
        rng = qm.NoiseSource(101 + i).generator()
        r, _ = qm.sample_outcomes(nbar, 100_000, rng)
        work = r * r
        se = work.std(ddof=1) / math.sqrt(len(work))
        gap = abs(work.mean() - (1.0 + nbar))
        details.append(f"nbar={nbar}: z={gap / se:.2f}")
        ok &= gap <= 3.0 * se
    report("C1", f"single-shot <W> = 1+nbar within 3se ({'; '.join(details)})", ok)


def test_c02_added_quantum():
    ok = True
    for i, nbar in enumerate((0.0, 5.0)):
        mean, se = qm.added_quantum_check(nbar, 100_000, qm.NoiseSource(201 + i).generator())
        ok &= abs(mean - (nbar + 1.0)) <= 3.0 * se
    report("C2", "measurement adds one quantum: <r^2> = nbar+1 within 3se", ok)


def test_c03_binary_feedback():
    ok = True
    worst = 0.0
    seed = 301
    for nbar in (0.0, 1.0, 3.0):
        for r0 in (0.5, 1.0, 2.0):
            rng = qm.NoiseSource(seed).generator()
            seed += 1
            r, _ = qm.sample_outcomes(nbar, 1_000_000, rng)
            mc = float(np.mean(np.where(r >= 0.5 * r0, 2.0 * r * r0 - r0 * r0, 0.0)))
            closed = qm.binary_average_work(nbar, r0)
            rel = abs(mc - closed) / closed
            worst = max(worst, rel)
            ok &= rel <= 0.01
    _, eta_max = qm.max_binary_efficiency()
    in_band = 0.84 <= eta_max <= 0.86
    report(
        "C3",
        f"binary <W'> matches erfc form within 1% on 9 points (worst {worst:.2%}) "
        f"and max efficiency {eta_max:.4f} in [0.84, 0.86]",
        ok and in_band,
    )


def test_c04_work_distribution():
    cfg = qm.EngineConfig(
        nbar=0.0, tau1=1.0, tau2=1.0, dt=0.0025, t_final=1.0,
        n_traj=10_000, policy="terminal", seed=404,
    )
    stats = qm.run_ensemble(cfg)
    _, mean, rate = qm.sigma_schedule(cfg)
    k = cfg.step_index(1.0)
    assert mean[k] == pytest.approx(0.25, abs=1e-12)
    assert qm.ensembles.KS_LEVEL == 0.01
    ks = qm.ks_compare(stats.samples, lambda w: qm.exact_work_cdf(w, rate[k]))
    report(
        "C4",
        f"10^4 terminal trajectories at t=1 pass KS vs exponential mean 1/4 "
        f"(D={ks.statistic:.4f}, p={ks.pvalue:.3f})",
        ks.passed,
    )


def test_c05_mean_work_curve():
    cfg = qm.EngineConfig(
        nbar=0.0, dt=0.0025, t_final=5.0, n_traj=10_000, policy="terminal", seed=505
    )
    grid = [0.5, 1.0, 2.5, 5.0]
    series = qm.mean_work_curve(cfg, grid)
    oracle = qm.sigma_schedule(cfg)[1][cfg.step_index(grid)]
    zs = [abs(series.mean[i] - oracle[i]) / series.stderr[i] for i in range(len(grid))]
    ok = all(z <= 3.0 for z in zs)
    report(
        "C5",
        "mean work matches sigma(t)/tau within 3se at t in {0.5,1,2.5,5} "
        f"(z = {', '.join(f'{z:.2f}' for z in zs)})",
        ok,
    )


def test_c06_power_and_steady_state():
    # analytic: thermal start relaxes to nu = 1/2, J_ss * tau = 1/4
    thermal = qm.EngineConfig(nbar=1.0, dt=0.01, t_final=20.0)
    nu_final = float(qm.sigma_schedule(thermal)[0][thermal.step_index(20.0)])
    analytic_ok = abs(nu_final - 0.5) < 1e-3 and abs(nu_final**2 - 0.25) < 1e-3

    # Monte Carlo: finite differences of the mean-work curve at the steady
    # state (vacuum start sits at the fixed point from t = 0)
    cfg = qm.EngineConfig(
        nbar=0.0, dt=0.0025, t_final=1.0, n_traj=10_000, policy="terminal", seed=606
    )
    _, est, err = qm.monte_carlo_power(cfg, [0.5, 1.0])
    mc_ok = abs(est[0] - 0.25) <= 3.0 * err[0]
    report(
        "C6",
        f"steady state: |nu(20tau)-1/2| = {abs(nu_final - 0.5):.1e} < 1e-3; "
        f"J_ss*tau MC = {est[0]:.4f} +/- {err[0]:.4f} vs 1/4",
        analytic_ok and mc_ok,
    )


def test_c07_efficiency_ordering():
    finals = {}
    for i, ratio in enumerate((1.0, 0.9, 1.2)):
        cfg = qm.EngineConfig(
            nbar=0.0, tau1=1.0, tau2=ratio, dt=0.01, t_final=25.0,
            n_traj=10_000, policy="per-step", seed=707 + i,
        )
        (series,) = qm.efficiency_series([cfg], [25.0])
        finals[ratio] = (float(series.eta[0]), float(series.stderr[0]))
    eta_sym, se_sym = finals[1.0]
    sym_ok = abs(1.0 - eta_sym) <= 3.0 * se_sym + 1e-12
    asym_ok = all(
        1.0 - finals[r][0] > 3.0 * finals[r][1] and finals[r][0] < eta_sym
        for r in (0.9, 1.2)
    )
    report(
        "C7",
        f"steady-state efficiency: eta(tau2=tau1) = {eta_sym} within 3se of 1; "
        f"eta(0.9) = {finals[0.9][0]:.6f}, eta(1.2) = {finals[1.2][0]:.6f} below by > 3se",
        sym_ok and asym_ok,
    )


def test_c08_scheme_equivalence():
    times = [0.5, 1.0, 2.5, 5.0]
    means, errs = {}, {}
    for scheme, seed in (("stratonovich", 801), ("ito", 802)):
        cfg = qm.EngineConfig(
            nbar=1.0, dt=0.0025, t_final=5.0, n_traj=10_000,
            policy="none", scheme=scheme, seed=seed,
        )
        rec = run_ensemble_arrays(cfg, times)
        means[scheme] = rec.ledger.mean(axis=1)
        errs[scheme] = rec.ledger.std(axis=1, ddof=1) / math.sqrt(cfg.n_traj)
    gap = np.abs(means["stratonovich"] - means["ito"])
    combined = np.hypot(errs["stratonovich"], errs["ito"])
    zs = gap / combined
    report(
        "C8",
        "Stratonovich vs Ito ensemble mean work within 3 combined se at four "
        f"times (z = {', '.join(f'{z:.2f}' for z in zs)})",
        bool(np.all(zs <= 3.0)),
    )


def test_c09_classical_baseline():
    cfg = qm.EngineConfig(spring_k=1.0, kbt=2.0, n_traj=100_000)
    w = qm.classical_cycle(cfg, qm.NoiseSource(901).generator())
    se = w.std(ddof=1) / math.sqrt(len(w))
    warm_ok = abs(w.mean() - 1.0) <= 3.0 * se

    frozen = qm.classical_cycle(
        qm.EngineConfig(spring_k=1.0, kbt=0.0, n_traj=10_000),
        qm.NoiseSource(902).generator(),
    )
    cold_ok = bool(np.all(frozen == 0.0))

    r, _ = qm.sample_outcomes(0.0, 100_000, qm.NoiseSource(903).generator())
    quantum = r * r
    q_se = quantum.std(ddof=1) / math.sqrt(len(quantum))
    advantage = quantum.mean() - 3.0 * q_se > float(frozen.mean())
    report(
        "C9",
        "classical <W> = kBT/2 within 3se, zero at T=0, quantum T=0 advantage",
        warm_ok and cold_ok and bool(advantage),
    )


def test_c10_property_suites():
    # uncertainty-relation preservation (asymmetric channels, dt = min/50)
    tau1, tau2 = 1.0, 0.7
    dt = 0.7 / 50.0
    cov = qm.covariance_series(2.0, tau1, tau2, dt, int(10.0 / dt))
    det = cov[:, 0] * cov[:, 2] - cov[:, 1] ** 2
    uncertainty_ok = bool(det.min() >= 1.0 - 1e-6)

    # normal-form preservation for symmetric channels
    sym = qm.covariance_series(1.5, 0.7, 0.7, 0.005, 2000)
    normal_ok = (
        np.abs(sym[:, 1]).max() <= 10.0 * 0.005
        and np.abs(sym[:, 0] - sym[:, 2]).max() <= 10.0 * 0.005
    )

    # reset leaves covariances bit-identical: a per-step trajectory and a
    # policy="none" trajectory on the same noise and asymmetric channels
    fields = dict(nbar=2.0, tau1=1.0, tau2=0.7, dt=0.007, t_final=2.1, seed=1011)
    reset = qm.run_trajectory(qm.EngineConfig(policy="per-step", **fields))
    free = qm.run_trajectory(qm.EngineConfig(policy="none", **fields))
    reset_ok = np.array_equal(reset.cov, free.cov)

    # determinism: (config, seed) reproduces trajectories and ensembles,
    # and the ensemble's terminal work is 0.5*(q1**2 + q2**2) of each single
    # trajectory's last row, bit-exactly
    cfg = qm.EngineConfig(nbar=0.5, dt=0.005, t_final=1.0, n_traj=4, seed=1010)
    a = qm.run_trajectory(cfg, 2)
    b = qm.run_trajectory(cfg, 2)
    last = [qm.run_trajectory(cfg, j) for j in range(4)]
    scalar_w = np.array([
        0.5 * (r.q1[-1, 0] * r.q1[-1, 0] + r.q2[-1, 0] * r.q2[-1, 0]) for r in last
    ])
    determinism_ok = (
        np.array_equal(a.q1, b.q1)
        and np.array_equal(a.ledger, b.ledger)
        and np.array_equal(scalar_w, qm.run_ensemble(cfg).samples)
    )

    report(
        "C10",
        "property suites: uncertainty bound, normal form, reset invariance, "
        "determinism",
        uncertainty_ok and normal_ok and reset_ok and determinism_ok,
    )
