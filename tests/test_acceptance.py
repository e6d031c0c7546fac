"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines inline.
"""

import time

import numpy as np
import pytest

from jcqsim import (OhmicBath, bloch_decoherence_time, brute_force_path_sum,
                    build_transfer_tensor, eta_coefficients, fit_decay,
                    initial_state, propagate, response_function,
                    short_time_propagator)
from oracles import eta_pair_time_domain, eta_self_time_domain

from conftest import (PAPER_DT, PAPER_SAMPLE_EVERY, PAPER_TAU2_BLOCH_US,
                      PAPER_TAU2_ITM_US)


def report(number, name, ok, detail):
    print(f"\nACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_bloch_baseline(paper_qubit, paper_bath):
    start = time.perf_counter()
    _, tau2 = bloch_decoherence_time(paper_qubit, paper_bath)
    elapsed = time.perf_counter() - start
    deviation = abs(tau2 / PAPER_TAU2_BLOCH_US - 1.0)
    report(1, "Bloch baseline",
           deviation < 0.02 and elapsed < 1.0,
           f"tau2 = {tau2:.6f} us, {100 * deviation:.2f}% from {PAPER_TAU2_BLOCH_US} us "
           f"(tol 2%), runtime {elapsed:.3f} s")


def test_criterion_2_itm_headline(paper_trajectory):
    fit = fit_decay(paper_trajectory, "im_rho01")
    deviation = abs(fit.tau / PAPER_TAU2_ITM_US - 1.0)
    report(2, "ITM headline",
           deviation < 0.15,
           f"fitted tau = {fit.tau:.5f} us from the off-diagonal oscillation envelope, "
           f"{100 * deviation:.2f}% from {PAPER_TAU2_ITM_US} us (tol 15%)")


def test_criterion_2_runtime(paper_transfer, paper_table, paper_steps):
    start = time.perf_counter()
    propagate(initial_state("zero"), paper_transfer, paper_table, paper_steps,
              sample_every=PAPER_SAMPLE_EVERY)
    elapsed = time.perf_counter() - start
    report("2b", "ITM headline runtime",
           elapsed < 60.0,
           f"{paper_steps} steps in {elapsed:.2f} s (target < 60 s)")


def test_criterion_3_directional_claim(paper_qubit, paper_bath, paper_trajectory):
    _, tau2_bloch = bloch_decoherence_time(paper_qubit, paper_bath)
    tau2_itm = fit_decay(paper_trajectory, "im_rho01").tau
    ratio = tau2_itm / tau2_bloch
    report(3, "directional claim",
           tau2_itm < tau2_bloch and 0.55 <= ratio <= 0.75,
           f"tau2_itm = {tau2_itm:.4f} us < tau2_bloch = {tau2_bloch:.4f} us, "
           f"ratio = {ratio:.4f} (band [0.55, 0.75], reported value 0.650)")


def test_criterion_4_oracle_equivalence(paper_bath, paper_qubit):
    start = time.perf_counter()
    worst = 0.0
    details = []
    for n in (2, 4, 6, 8):
        table = eta_coefficients(paper_bath, PAPER_DT, n, n)
        transfer = build_transfer_tensor(short_time_propagator(paper_qubit, PAPER_DT), table)
        rho0 = initial_state("zero")
        trajectory = propagate(rho0, transfer, table, n, sample_every=n)
        exact = brute_force_path_sum(rho0, paper_qubit, table, n)
        deviation = float(np.abs(trajectory.rhos[-1] - exact).max())
        worst = max(worst, deviation)
        details.append(f"N={n}: {deviation:.2e}")
    elapsed = time.perf_counter() - start
    report(4, "oracle equivalence",
           worst < 1e-10 and elapsed < 30.0,
           f"{'; '.join(details)} (tol 1e-10), runtime {elapsed:.1f} s (target < 30 s)")


def test_criterion_5_conservation(paper_trajectory):
    trace_dev = float(np.abs(paper_trajectory.trace - 1.0).max())
    herm_dev = float(paper_trajectory.hermiticity_deviation.max())
    report(5, "conservation suite",
           trace_dev <= 1e-6 and herm_dev <= 1e-10,
           f"max |Tr rho - 1| = {trace_dev:.2e} (tol 1e-6), "
           f"max hermiticity deviation = {herm_dev:.2e} (tol 1e-10) over "
           f"{len(paper_trajectory)} samples of the 3 us run")


def test_criterion_6_free_dynamics(paper_qubit):
    free = OhmicBath(alpha=0.0, omega_c=5.0, temperature=30.0)
    table = eta_coefficients(free, PAPER_DT, 1000, 1)
    transfer = build_transfer_tensor(short_time_propagator(paper_qubit, PAPER_DT), table)

    plus = propagate(initial_state("plus"), transfer, table, 1000, sample_every=50)
    plus_dev = float(np.abs(plus.rhos - 0.5 * np.ones((2, 2))).max())

    zero = propagate(initial_state("zero"), transfer, table, 1000, sample_every=1)
    omega0 = paper_qubit.b_x / 658.2119569
    rabi_dev = float(np.abs(zero.rho00 - 0.5 * (1.0 + np.cos(omega0 * zero.times))).max())

    report(6, "free dynamics",
           plus_dev <= 1e-12 and rabi_dev <= 1e-8,
           f"plus-state drift {plus_dev:.2e} (tol 1e-12), "
           f"Rabi formula deviation {rabi_dev:.2e} over 1000 steps (tol 1e-8)")


def test_criterion_7_memory_time(paper_bath):
    ratio = abs(response_function(paper_bath, 10.0).real) / response_function(paper_bath, 0.0).real
    report(7, "memory-time check",
           ratio < 0.02,
           f"|Re gamma(10 ps)| / Re gamma(0) = {ratio:.2e} (tol 0.02), consistent with "
           f"a reported memory time of about 10 ps")


def test_criterion_8_quadrature_cross_check(paper_bath):
    table = eta_coefficients(paper_bath, PAPER_DT, 8, 5)
    details = []
    worst = 0.0
    ref = eta_self_time_domain(paper_bath, PAPER_DT)
    rel = abs(table.eta_self_interior - ref) / abs(ref)
    worst = max(worst, rel)
    details.append(f"dk=0: {rel:.2e}")
    for dk in (1, 2, 5):
        ref = eta_pair_time_domain(paper_bath, PAPER_DT, dk, "ii")
        rel = abs(table.eta_pair(dk, "ii") - ref) / abs(ref)
        worst = max(worst, rel)
        details.append(f"dk={dk}: {rel:.2e}")
    report(8, "quadrature cross-check",
           worst < 1e-6,
           f"closed-form vs time-domain coefficients: {'; '.join(details)} (tol 1e-6)")


def test_criterion_9_scaling_law(paper_qubit, paper_bath, paper_trajectory,
                                 doubled_alpha_trajectory):
    _, tau2 = bloch_decoherence_time(paper_qubit, paper_bath)
    doubled_bath = OhmicBath(alpha=2 * paper_bath.alpha, omega_c=paper_bath.omega_c,
                             temperature=paper_bath.temperature)
    _, tau2_doubled = bloch_decoherence_time(paper_qubit, doubled_bath)
    bloch_exact = abs(tau2_doubled / (0.5 * tau2) - 1.0) < 1e-12

    fit_base = fit_decay(paper_trajectory, "im_rho01")
    fit_doubled = fit_decay(doubled_alpha_trajectory, "im_rho01")
    itm_ratio = fit_doubled.tau / (0.5 * fit_base.tau)
    report(9, "scaling law",
           bloch_exact and abs(itm_ratio - 1.0) < 0.10,
           f"Bloch halving exact: {bloch_exact}; ITM tau(2 alpha) = {fit_doubled.tau:.4f} us "
           f"vs tau(alpha)/2 = {0.5 * fit_base.tau:.4f} us, ratio {itm_ratio:.4f} (tol 10%)")
