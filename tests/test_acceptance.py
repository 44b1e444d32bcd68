"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Every tolerance is fixed here, not calibrated: efficiency identities at
1e-9, timing/power identities at 1e-10, conservation laws at 1e-10,
amplitude tracking at 1e-10, the final-state formula at 1e-6 after the
cutoff-boundary correction, and exact battery arithmetic at 1e-12.
"""

import math
import time

import numpy as np

from conftest import taylor_evolution
from sltosim.designer import AnnealSchedule, DesignTargets, PotentialAnsatz, design_cost, mc_optimize
from sltosim.engine import (
    CompactEngineConfig,
    battery_split,
    build_interaction_hamiltonian,
    evolution_operator,
    evolve_cycle,
    speed_and_geodesic,
)
from sltosim.linalg import Operator, commutator_norm
from sltosim.optics import (
    OpticsEngineConfig,
    adiabatic_elimination_error,
    build_effective_hamiltonian,
    effective_compact_config,
    run_optics_cycle,
    sweep_slopes,
    uniform_exchange_profile,
)


def _report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status} {description} {detail}".rstrip())
    return ok


def reference_engine(**overrides) -> CompactEngineConfig:
    params = dict(beta1=0.5, beta2=1.0, omega1=2.0, g=0.05, n_max1=6, n_max2=6)
    params.update(overrides)
    return CompactEngineConfig(**params)


def test_01_carnot_efficiency():
    started = time.perf_counter()
    parameter_sets = [
        (0.5, 1.0, 2.0), (1.0, 2.0, 2.0), (0.2, 0.6, 3.0),
        (1.0, 1.5, 1.0), (0.3, 0.9, 2.0),
    ]
    worst = 0.0
    for beta1, beta2, omega1 in parameter_sets:
        cfg = CompactEngineConfig(beta1=beta1, beta2=beta2, omega1=omega1,
                                  g=0.1, n_max1=7, n_max2=7)
        report = evolve_cycle(cfg)
        worst = max(worst, abs(report.eta - (1 - beta1 / beta2)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 5.0
    assert _report(1, "Carnot efficiency over 5 parameter sets",
                   ok, f"(worst gap {worst:.2e}, {elapsed:.2f}s)")


def test_02_maximum_power():
    started = time.perf_counter()
    cfg = reference_engine()
    report = evolve_cycle(cfg)
    tau_gap = abs(report.tau - math.pi / (2 * cfg.g))
    power_gap = abs(report.power - 2 * cfg.g * cfg.w_ext / math.pi)
    elapsed = time.perf_counter() - started
    ok = tau_gap <= 1e-10 and power_gap <= 1e-10 and elapsed < 1.0
    assert _report(2, "cycle time pi/(2g) and power 2gW/pi",
                   ok, f"(tau gap {tau_gap:.2e}, power gap {power_gap:.2e})")


def test_03_conservation_laws():
    started = time.perf_counter()
    ladder_cfg = reference_engine(n_max1=4, n_max2=4)
    ladder_report = evolve_cycle(ladder_cfg)
    optics_cfg = OpticsEngineConfig(
        beta1=0.5, beta2=1.0, omega1=2.0, g1=0.5, g2=0.5, delta=20.0,
        n_max1=4, n_max2=4, min_detuning_ratio=5.0,
    )
    optics_report = run_optics_cycle(optics_cfg)
    structured = max(
        ladder_report.commutator_residual_energy,
        ladder_report.commutator_residual_weighted,
        optics_report.commutator_residual_energy,
        optics_report.commutator_residual_weighted,
    )

    # independent dense verification on the full default grid
    worst_dense = 0.0
    compact_equiv = effective_compact_config(optics_cfg)
    for cfg, h in (
        (ladder_cfg, build_interaction_hamiltonian(ladder_cfg)),
        (compact_equiv, build_effective_hamiltonian(optics_cfg)),
    ):
        d_total = Operator(np.diag(cfg.total_energy_diagonal()).astype(complex),
                           hermitian_hint=True)
        d_weighted = Operator(np.diag(cfg.weighted_energy_diagonal()).astype(complex),
                              hermitian_hint=True)
        from sltosim.linalg import SpectralPropagator
        prop = SpectralPropagator(h)
        for t in np.linspace(0.0, cfg.tau, 101):
            u = prop.at(t)
            worst_dense = max(worst_dense, commutator_norm(u, d_total),
                              commutator_norm(u, d_weighted))
    elapsed = time.perf_counter() - started
    ok = structured <= 1e-10 and worst_dense <= 1e-10 and elapsed < 10.0
    assert _report(3, "energy and weighted-energy conservation, both engines",
                   ok, f"(structured {structured:.2e}, dense {worst_dense:.2e}, {elapsed:.1f}s)")


def test_04_clausius_equality():
    started = time.perf_counter()
    residual = evolve_cycle(reference_engine()).clausius_residual
    elapsed = time.perf_counter() - started
    ok = residual <= 1e-9 and elapsed < 1.0
    assert _report(4, "per-sector Clausius equality", ok, f"(residual {residual:.2e})")


def test_05_entangled_trajectory():
    started = time.perf_counter()
    report = evolve_cycle(reference_engine())
    assert len(report.times) == 101
    amp_gap = report.amplitude_residual
    s_ent = report.entanglement_trace
    mid = len(s_ent) // 2
    endpoint_gap = max(abs(s_ent[0]), abs(s_ent[-1]))
    midpoint_gap = abs(s_ent[mid] - math.log(2))
    elapsed = time.perf_counter() - started
    ok = amp_gap <= 1e-10 and endpoint_gap <= 1e-9 and midpoint_gap <= 1e-9 and elapsed < 5.0
    assert _report(5, "per-sector amplitudes and entanglement entropy",
                   ok, f"(amp {amp_gap:.2e}, ends {endpoint_gap:.2e}, mid {midpoint_gap:.2e})")


def test_06_quantum_speed():
    started = time.perf_counter()
    report = evolve_cycle(reference_engine())
    diag = speed_and_geodesic(report)
    elapsed = time.perf_counter() - started
    ok = (diag.max_speed_deviation <= 1e-9 and diag.max_distance_deviation <= 1e-9
          and diag.monotone and elapsed < 2.0)
    assert _report(6, "constant speed g and half-sine-squared distance law",
                   ok, f"(speed {diag.max_speed_deviation:.2e}, dist {diag.max_distance_deviation:.2e})")


def test_07_final_state_formula():
    started = time.perf_counter()
    worst = 0.0
    for beta1_omega1 in (0.5, 1.0, 2.0):
        beta1 = beta1_omega1 / 2.0
        cfg = OpticsEngineConfig(
            beta1=beta1, beta2=2 * beta1, omega1=2.0, g1=2.0, g2=2.0, delta=80.0,
        )
        report = run_optics_cycle(cfg)
        corrected = report.corrected_final_populations
        z1 = report.partition_function1
        expected = np.array([1.0 / z1, 1.0 - 1.0 / z1])
        worst = max(worst, float(np.max(np.abs(corrected - expected))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 10.0
    assert _report(7, "final-state populations (1/Z1, 1-1/Z1) after boundary correction",
                   ok, f"(worst gap {worst:.2e}, {elapsed:.1f}s)")


def test_08_adiabatic_elimination():
    started = time.perf_counter()
    g = 0.5
    cfg = OpticsEngineConfig(
        beta1=0.5, beta2=1.0, omega1=2.0, g1=g, g2=g, delta=20.0 * g,
        n_max1=4, n_max2=4, min_detuning_ratio=5.0,
    )
    points = adiabatic_elimination_error(
        cfg, uniform_exchange_profile(cfg), [r * g for r in (20, 40, 80, 160)]
    )
    devs = [p.population_deviation for p in points]
    monotone = all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    dev_slope, leak_slope = sweep_slopes(points)
    elapsed = time.perf_counter() - started
    ok = (monotone and -1.4 <= dev_slope <= -0.6 and -2.5 <= leak_slope <= -1.5
          and elapsed < 60.0)
    assert _report(8, "full-vs-effective deviation decay over the detuning sweep",
                   ok, f"(dev slope {dev_slope:.2f}, leak slope {leak_slope:.2f}, {elapsed:.1f}s)")


def test_09_oracle_equivalence():
    started = time.perf_counter()
    cfg = reference_engine(n_max1=2, n_max2=2, g=0.2)
    h = build_interaction_hamiltonian(cfg)
    assert h.dim == 18
    worst = 0.0
    for t in (0.3 * cfg.tau, cfg.tau):
        engine_u = evolution_operator(cfg, t)
        oracle_u = taylor_evolution(h.entries, t, tol=1e-14)
        worst = max(worst, float(np.max(np.abs(engine_u.entries - oracle_u))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 1.0
    assert _report(9, "sector-assembled evolution equals series-expansion exponential",
                   ok, f"(worst entry gap {worst:.2e})")


def test_10_designer_self_consistency():
    started = time.perf_counter()
    generator = PotentialAnsatz(np.array([1.0, 0.1, 0.0, 0.0]),
                                np.array([1.0, 0.0, 0.0, 0.0]))
    targets = DesignTargets.from_ansatz(generator, n_fit=6)
    start = generator.with_flat(generator.flat() * 1.1)
    initial_cost = design_cost(start, targets)
    schedule = AnnealSchedule(iterations=20000, seed=42)
    best, trace = mc_optimize(start, targets, schedule)
    _, trace_again = mc_optimize(start, targets, schedule)
    final_cost = design_cost(best, targets)
    recovered = final_cost < 0.01 * initial_cost
    deterministic = np.array_equal(trace, trace_again)
    elapsed = time.perf_counter() - started
    ok = recovered and deterministic and elapsed < 30.0
    assert _report(10, "designer recovers known tables at seed 42",
                   ok, f"(cost ratio {final_cost / initial_cost:.2%}, deterministic {deterministic}, {elapsed:.1f}s)")


def test_11_battery_bookkeeping():
    started = time.perf_counter()
    split = battery_split(1.0, 2.0, 1.0, lam=0.0)
    values = np.array([split.e_w1, split.e_w2, split.w_ext, split.q1, split.q2])
    expected = np.array([0.0, 0.5, 0.5, 1.0, -0.5])
    gap = float(np.max(np.abs(values - expected)))
    line_residual = abs(split.beta1 * split.e_w1 + split.beta2 * split.e_w2
                        - (split.beta2 - split.beta1) * split.a)
    elapsed = time.perf_counter() - started
    ok = gap <= 1e-12 and line_residual <= 1e-12 and elapsed < 1.0
    assert _report(11, "battery split at the cold-side endpoint",
                   ok, f"(worst gap {gap:.2e})")
