"""Acceptance gate: every numbered criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion even when everything is green.
"""

import numpy as np

from conftest import kernel_set, solved
from wigmol import (
    compute_modes,
    default_k_grid,
    lattice_guess,
    leading_occupancy,
    momentum_distribution,
    occupancy_spectrum,
    site_kernel,
)
from wigmol.verification import cross_solver_checks, derivative_checks, kernel_checks

GRID_TOKENS = ["log", 0.5, 1.0, 2.0, 6.0]


def _report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def _report_checks(number, checks):
    _report(number, all(c.passed for c in checks), "; ".join(c.line() for c in checks))


def test_criterion_1_three_particle_occupancies():
    _, _, _, kernels = kernel_set(3, 1.0)
    lam0 = [leading_occupancy(k) for k in kernels]
    checks = [
        abs(lam0[0] - 0.3249) <= 5e-4,
        abs(lam0[2] - 0.3249) <= 5e-4,
        abs(lam0[1] - 0.3193) <= 5e-4,
    ]
    _report(1, all(checks), f"lambda0 = {lam0[0]:.5f}, {lam0[1]:.5f}, {lam0[2]:.5f}")


def test_criterion_2_two_particle_log_limit():
    _, _, _, kernels = kernel_set(2, "log")
    lam0 = leading_occupancy(kernels[0])
    closed_form = 2.0**1.25 / (1.0 + 2.0**0.25) ** 2
    spectrum = occupancy_spectrum(kernels)
    residual = 1.0 - 2.0 * lam0
    checks = [
        abs(lam0 - closed_form) <= 1e-6,
        abs(spectrum.degree_of_correlation - 2.03) <= 0.01,
        abs(residual - 0.007) <= 0.001,
    ]
    _report(
        2,
        all(checks),
        f"lambda0 = {lam0:.8f} (target {closed_form:.8f}), K = {spectrum.degree_of_correlation:.4f}, "
        f"residual mass = {residual:.4f}",
    )


def test_criterion_3_delta_k_table():
    table = [(2, 2.0, 0.06), (2, 10.0, 0.2), (3, 2.0, 0.1), (3, 6.0, 0.2), (4, 2.0, 0.13), (4, 4.0, 0.2)]
    results = []
    ok = True
    for n, d, target in table:
        _, _, _, kernels = kernel_set(n, d)
        delta = occupancy_spectrum(kernels).delta_k
        ok &= abs(delta - target) <= 0.01
        results.append(f"(N={n}, d={d:g}) -> {delta:.3f} vs {target}")
    _report(3, ok, "; ".join(results))


def test_criterion_4_two_particle_momentum():
    grid = np.linspace(-5.0, 5.0, 1001)
    worst = 0.0
    worst_mass = 0.0
    for d in (0.5, 1.0, 2.0, 10.0):
        _, _, _, kernels = kernel_set(2, d)
        computed = momentum_distribution(kernels, grid).values
        root = np.sqrt(d + 2.0)
        reference = np.sqrt(2.0 / np.pi) * np.exp(-2.0 * (root - 1.0) * grid**2 / (d + 1.0)) / np.sqrt(root + 1.0)
        worst = max(worst, float(np.max(np.abs(computed - reference))))
        wide = momentum_distribution(kernels, default_k_grid())
        worst_mass = max(worst_mass, abs(wide.integral() - 1.0))
    ok = worst <= 1e-10 and worst_mass <= 1e-6
    _report(4, ok, f"max pointwise gap {worst:.2e}, max |integral - 1| {worst_mass:.2e}")


def test_criterion_5_oracle_equivalence():
    _report_checks(5, kernel_checks())


def test_criterion_6_structural_invariants():
    worst_com = 0.0
    worst_trace = 0.0
    worst_mirror = 0.0
    k_floor_ok = True
    monotone_ok = True
    for n in range(2, 21):
        deltas = []
        for token in GRID_TOKENS:
            spec, config = solved(n, token)
            modes = compute_modes(spec, config)
            worst_com = max(worst_com, abs(modes.frequencies[0] - 1.0))
            worst_com = max(worst_com, float(np.max(np.abs(np.abs(modes.mode_matrix[0]) - 1.0 / np.sqrt(n)))))
            left = [site_kernel(modes, config, site) for site in range(1, n // 2 + 1)]
            right = [site_kernel(modes, config, n - site + 1) for site in range(1, n // 2 + 1)]
            for kl, kr in zip(left, right):
                worst_mirror = max(
                    worst_mirror,
                    abs(kl.amplitude - kr.amplitude),
                    abs(kl.a - kr.a),
                    abs(kl.b - kr.b),
                    abs(kl.center + kr.center),
                )
            _, _, _, kernels = kernel_set(n, token)
            spectrum = occupancy_spectrum(kernels)
            trace = sum(float(np.sum(ladder)) for ladder in spectrum.ladders) + spectrum.tail_bound
            worst_trace = max(worst_trace, abs(trace - 1.0))
            k_floor_ok &= spectrum.degree_of_correlation >= n
            deltas.append(spectrum.delta_k)
        monotone_ok &= bool(np.all(np.diff(deltas) > 0))
    ok = worst_com <= 1e-10 and worst_trace <= 1e-10 and worst_mirror <= 1e-10 and k_floor_ok and monotone_ok
    _report(
        6,
        ok,
        f"com gap {worst_com:.2e}, trace gap {worst_trace:.2e}, mirror gap {worst_mirror:.2e}, "
        f"K >= N {k_floor_ok}, delta_K monotone in d {monotone_ok}",
    )


def test_criterion_7_hard_core_limits():
    # the solver tolerance is loosened where d * eps exceeds it (power-law
    # terms cannot be evaluated below that floor for d >= 1e4)
    tols = {1e2: 1e-12, 1e4: 1e-9, 1e6: 1e-9}
    lattice_ok = True
    decay_ok = True
    details = []
    for n in (2, 3):
        lattice = lattice_guess(n).positions
        deviations = []
        decay_gaps = []
        for d in (1e2, 1e4, 1e6):
            _, config = solved(n, d, tol=tols[d])
            _, _, _, kernels = kernel_set(n, d, tol=tols[d])
            deviations.append(float(np.max(np.abs(config.positions - lattice))))
            decay_gaps.append(max(abs((k.b - 2.0 * k.a) + n) for k in kernels))
        lattice_ok &= deviations[0] > deviations[1] > deviations[2]
        decay_ok &= decay_gaps[0] > decay_gaps[1] > decay_gaps[2]
        details.append(f"N={n}: lattice gaps {deviations[1]:.1e}->{deviations[2]:.1e}")
    # The lambda_0 ~ 2 d^{-1/4} law, checked against the exact N = 2 answer.
    # The relative mode has frequency w = sqrt(d + 2) (the root of
    # criterion 4); integrating out the partner leaves a kernel with
    # 2a + b = (1 + w)/2 and 2a - b = 2w/(1 + w), so
    # y = ((sqrt(w) - 1)/(sqrt(w) + 1))^2 and, with trace 1/2 per site,
    # lambda_0 = (1 - y)/2 = 2 sqrt(w)/(1 + sqrt(w))^2 (criterion 2's closed
    # form at w = sqrt(2)).  Hence lambda_0 d^{1/4}/2 = (1 + d^{-1/4})^{-2}
    # (1 + O(1/d)): 0.8264 at d = 1e4, 0.9 only near d = 1.17e5.
    # The 1e-9 relative bound on the closed form matches the solver
    # tolerance used at these d (measured: 1.8e-13 at 1e4, 2.8e-11 at 1e6);
    # the 1/d bound on the asymptote is the size of its O(1/d) correction
    # (measured: 3.4e-5 and 4.4e-7).
    ratios = {}
    closed_form_ok = True
    asymptote_ok = True
    gaps = []
    for d in (1e4, 1e6):
        _, _, _, kernels = kernel_set(2, d, tol=tols[d])
        lam0 = leading_occupancy(kernels[0])
        root = np.sqrt(np.sqrt(d + 2.0))
        closed_form_gap = abs(lam0 - 2.0 * root / (1.0 + root) ** 2) / lam0
        ratios[d] = lam0 * d**0.25 / 2.0
        asymptote_gap = abs(ratios[d] - (1.0 + d**-0.25) ** -2)
        closed_form_ok &= closed_form_gap <= 1e-9
        asymptote_ok &= asymptote_gap <= 1.0 / d
        gaps.append(
            f"d={d:.0e}: ratio {ratios[d]:.4f}, closed-form rel gap {closed_form_gap:.1e}, "
            f"asymptote gap {asymptote_gap:.1e} (bound {1.0 / d:.0e})"
        )
    closer_ok = abs(ratios[1e6] - 1.0) < abs(ratios[1e4] - 1.0)
    ok = lattice_ok and decay_ok and closed_form_ok and asymptote_ok and closer_ok
    _report(7, ok, f"{'; '.join(details)}; {'; '.join(gaps)}")


def test_criterion_8_derivative_and_solver_checks():
    _report_checks(8, derivative_checks() + cross_solver_checks())
