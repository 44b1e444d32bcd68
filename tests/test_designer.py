import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sltosim.designer import (
    AnnealSchedule,
    DesignTargets,
    PotentialAnsatz,
    _coefficient_sensitivities,
    _fit_rows,
    design_cost,
    fock_matrix_elements,
    mc_optimize,
    position_operator,
    validate_design,
)
from sltosim.linalg import SpectralPropagator, basis_state
from sltosim.optics import (
    OpticsEngineConfig,
    build_full_hamiltonian,
    coupling_profile_from_tables,
)


def quartic_generator() -> PotentialAnsatz:
    # V(y) = y^2 + 0.1 y^4, b(y) = y inside the default family
    return PotentialAnsatz(np.array([1.0, 0.1, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))


def dense_tables(ansatz: PotentialAnsatz, n_work: int) -> tuple[np.ndarray, np.ndarray]:
    """The tables read off the dense operators V(X) = sum c X^d and b(X)."""
    dim = n_work + 1
    x = np.diag(np.sqrt(np.arange(1, dim) / 2.0), 1)
    x = x + x.T
    v = sum((c * np.linalg.matrix_power(x, d)
             for d, c in zip(ansatz.v_degrees, ansatz.v_coeffs)), np.zeros_like(x))
    b = sum((c * np.linalg.matrix_power(x, d)
             for d, c in zip(ansatz.b_degrees, ansatz.b_coeffs)), np.zeros_like(x))
    j = np.arange(n_work - ansatz.b_degrees[-1])
    return np.diag(v)[: n_work - ansatz.v_degrees[-1] + 1], b[j, j + 1] / np.sqrt(j + 1)


def unit_kick_sensitivities(ansatz0: PotentialAnsatz, targets: DesignTargets) -> np.ndarray:
    """Norm of the fit-window tables of each unit coefficient vector."""
    n_fit = targets.n_fit
    size = ansatz0.flat().size
    sens = np.empty(size)
    for k in range(size):
        unit = np.zeros(size)
        unit[k] = 1.0
        f, th = fock_matrix_elements(ansatz0.with_flat(unit), targets.n_work)
        sens[k] = math.sqrt(
            float(np.sum(f[1 : n_fit + 1] ** 2) + np.sum(th[1 : n_fit + 1] ** 2))
        )
    return np.maximum(sens, 1e-30)


def reference_walk(ansatz0: PotentialAnsatz, targets: DesignTargets,
                   schedule: AnnealSchedule) -> tuple[np.ndarray, np.ndarray]:
    """The mc_optimize walk, scoring every proposal through design_cost."""
    rng = np.random.default_rng(schedule.seed)
    sens = unit_kick_sensitivities(ansatz0, targets)
    coeffs = ansatz0.flat()
    current = design_cost(ansatz0, targets)
    best_coeffs, best_cost = coeffs.copy(), current
    trace = [current]
    for _ in range(schedule.iterations):
        k = int(rng.integers(coeffs.size))
        step = rng.normal(0.0, schedule.proposal_scale * current / sens[k])
        proposal = coeffs.copy()
        proposal[k] += step
        cost = design_cost(ansatz0.with_flat(proposal), targets)
        dc = cost - current
        if dc < 0 or (schedule.mc_temperature > 0
                      and rng.random() < math.exp(-dc / schedule.mc_temperature)):
            coeffs, current = proposal, cost
            if cost < best_cost:
                best_cost, best_coeffs = cost, proposal.copy()
        trace.append(current)
    return best_coeffs, np.array(trace)


class TestFockMatrixElements:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("extra", [0, 5, 17])
    def test_matches_dense_operator_sum(self, seed, extra):
        rng = np.random.default_rng(seed)
        ansatz = PotentialAnsatz(rng.normal(size=rng.integers(1, 6)),
                                 rng.normal(size=rng.integers(1, 6)))
        n_work = ansatz.max_degree + 2 + extra
        f, theta = fock_matrix_elements(ansatz, n_work)
        f_dense, theta_dense = dense_tables(ansatz, n_work)
        assert f.shape == f_dense.shape and theta.shape == theta_dense.shape
        # rounding scale per entry: the tables with every term made positive
        f_abs, theta_abs = dense_tables(
            PotentialAnsatz(np.abs(ansatz.v_coeffs), np.abs(ansatz.b_coeffs)), n_work
        )
        assert np.all(np.abs(f - f_dense) <= 1e-13 * f_abs)
        assert np.all(np.abs(theta - theta_dense) <= 1e-13 * theta_abs)

    def test_harmonic_diagonal(self):
        # V(y) = y^2 has <n|V|n> = n + 1/2 exactly
        ansatz = PotentialAnsatz(np.array([1.0]), np.array([1.0]))
        f, _ = fock_matrix_elements(ansatz, 20)
        n = np.arange(f.size)
        assert np.max(np.abs(f - (n + 0.5))) <= 1e-12

    def test_linear_mode_function(self):
        # b(y) = y has <n-1|b|n> = sqrt(n/2), so theta(j) = 1/sqrt(2)
        ansatz = PotentialAnsatz(np.array([1.0]), np.array([1.0]))
        _, theta = fock_matrix_elements(ansatz, 20)
        assert np.max(np.abs(theta - 1 / math.sqrt(2))) <= 1e-12

    def test_zero_coefficients(self):
        ansatz = PotentialAnsatz(np.zeros(3), np.zeros(2))
        f, theta = fock_matrix_elements(ansatz, 15)
        assert np.max(np.abs(f)) == 0.0
        assert np.max(np.abs(theta)) == 0.0

    def test_tiny_workspace_rejected(self):
        with pytest.raises(ValueError):
            fock_matrix_elements(quartic_generator(), 5)

    def test_reported_entries_are_cutoff_independent(self):
        ansatz = quartic_generator()
        f_small, th_small = fock_matrix_elements(ansatz, 18)
        f_large, th_large = fock_matrix_elements(ansatz, 40)
        n = f_small.size
        assert np.max(np.abs(f_small - f_large[:n])) <= 1e-12
        m = th_small.size
        assert np.max(np.abs(th_small - th_large[:m])) <= 1e-12

    def test_position_operator_ladder(self):
        x = position_operator(6)
        assert abs(x[0, 1] - math.sqrt(0.5)) <= 1e-15
        assert abs(x[4, 5] - math.sqrt(2.5)) <= 1e-15
        assert np.max(np.abs(x - x.T)) == 0.0


class TestDesignCost:
    def test_exact_match_is_zero(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=6)
        assert design_cost(gen, targets) == 0.0

    def test_single_f_offset(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=6)
        shifted = DesignTargets(
            targets.f_target + np.array([0, 0, 3.0, 0, 0, 0]),
            targets.theta_target, q=targets.q, n_work=targets.n_work,
        )
        assert abs(design_cost(gen, shifted) - 3.0) <= 1e-12

    def test_two_theta_offsets_in_quartic_norm(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=6, q=4.0)
        shifted = DesignTargets(
            targets.f_target,
            targets.theta_target + np.array([1.0, 1.0, 0, 0, 0, 0]),
            q=4.0, n_work=targets.n_work,
        )
        assert abs(design_cost(gen, shifted) - 2.0 ** 0.25) <= 1e-12

    def test_norm_order_must_exceed_two(self):
        with pytest.raises(ValueError):
            DesignTargets(np.ones(4), np.ones(4), q=2.0)

    @pytest.mark.parametrize("f, theta, q", [
        ([1.0, math.nan, 1.0, 1.0], np.ones(4), 4.0),
        (np.ones(4), [1.0, 1.0, math.inf, 1.0], 4.0),
        (np.ones(4), np.ones(4), math.inf),
        (np.ones(4), np.ones(4), math.nan),
    ])
    def test_non_finite_targets_rejected(self, f, theta, q):
        with pytest.raises(ValueError, match="must be finite"):
            DesignTargets(np.array(f), np.array(theta), q=q)

    @given(st.integers(0, 10**6), st.floats(0.05, 0.5))
    @settings(max_examples=20, deadline=None)
    def test_cost_positive_away_from_match(self, seed, eps):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=5)
        rng = np.random.default_rng(seed)
        bumped = gen.flat()
        bumped[rng.integers(bumped.size)] += eps
        assert design_cost(gen.with_flat(bumped), targets) > 0.0


class TestParity:
    def test_flipping_mode_function_flips_theta_only(self):
        gen = quartic_generator()
        flipped = PotentialAnsatz(gen.v_coeffs, -gen.b_coeffs)
        f0, th0 = fock_matrix_elements(gen, 20)
        f1, th1 = fock_matrix_elements(flipped, 20)
        assert np.array_equal(f0, f1)
        assert np.array_equal(th0, -th1)

    def test_potential_untouched_by_mode_function(self):
        gen = quartic_generator()
        other = PotentialAnsatz(gen.v_coeffs, np.array([0.3, -0.2, 0.1, 0.05]))
        f0, _ = fock_matrix_elements(gen, 22)
        f1, _ = fock_matrix_elements(other, 22)
        assert np.array_equal(f0, f1)


class TestMcOptimize:
    @pytest.mark.parametrize("field", ["proposal_scale", "mc_temperature"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_schedule_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            AnnealSchedule(iterations=10, **{field: value})

    def test_fixed_point_start(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=6)
        best, trace = mc_optimize(gen, targets, AnnealSchedule(iterations=300, seed=5))
        assert np.all(trace == 0.0)
        assert design_cost(best, targets) == 0.0

    def test_greedy_trace_is_monotone(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=6)
        start = gen.with_flat(gen.flat() * 1.1)
        _, trace = mc_optimize(start, targets, AnnealSchedule(iterations=2000, seed=1))
        assert np.all(np.diff(trace) <= 0.0)

    def test_recovery_beats_coarse_threshold(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=6)
        start = gen.with_flat(gen.flat() * 1.1)
        c0 = design_cost(start, targets)
        best, _ = mc_optimize(start, targets, AnnealSchedule(iterations=4000, seed=0))
        assert design_cost(best, targets) < 0.1 * c0

    def test_identical_seeds_identical_traces(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=5)
        start = gen.with_flat(gen.flat() * 1.1)
        sched = AnnealSchedule(iterations=1500, seed=42)
        _, t1 = mc_optimize(start, targets, sched)
        _, t2 = mc_optimize(start, targets, sched)
        assert np.array_equal(t1, t2)

    def test_different_seeds_differ(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=5)
        start = gen.with_flat(gen.flat() * 1.1)
        _, t1 = mc_optimize(start, targets, AnnealSchedule(iterations=1500, seed=1))
        _, t2 = mc_optimize(start, targets, AnnealSchedule(iterations=1500, seed=2))
        assert not np.array_equal(t1, t2)

    def test_running_minimum_nonincreasing_with_temperature(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=5)
        start = gen.with_flat(gen.flat() * 1.2)
        _, trace = mc_optimize(
            start, targets,
            AnnealSchedule(iterations=3000, mc_temperature=0.01, seed=9),
        )
        running = np.minimum.accumulate(trace)
        assert np.all(np.diff(running) <= 0.0)
        # a positive temperature admits uphill moves
        assert np.any(np.diff(trace) > 0.0)

    def test_best_cost_never_above_trace_minimum(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=5)
        start = gen.with_flat(gen.flat() * 1.3)
        best, trace = mc_optimize(
            start, targets, AnnealSchedule(iterations=2000, mc_temperature=0.05, seed=4)
        )
        assert design_cost(best, targets) <= np.min(trace) + 1e-15


class TestLinearTables:
    """mc_optimize scores proposals from table rows built once per fit."""

    @staticmethod
    def fits():
        gen = quartic_generator()
        return [
            (PotentialAnsatz.zeros(), DesignTargets.inverse_intensity(0.0125, 6)),
            (gen.with_flat(gen.flat() * 1.1), DesignTargets.from_ansatz(gen, n_fit=9)),
        ]

    @pytest.mark.parametrize("fit", [0, 1])
    def test_sensitivities_are_unit_kick_norms(self, fit):
        ansatz0, targets = self.fits()[fit]
        assert np.array_equal(
            _coefficient_sensitivities(_fit_rows(ansatz0, targets)),
            unit_kick_sensitivities(ansatz0, targets),
        )

    @pytest.mark.parametrize("fit", [0, 1])
    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("temperature", [0.0, 0.01])
    def test_walk_equals_design_cost_reference(self, fit, seed, temperature):
        ansatz0, targets = self.fits()[fit]
        schedule = AnnealSchedule(iterations=400, mc_temperature=temperature, seed=seed)
        best, trace = mc_optimize(ansatz0, targets, schedule)
        ref_best, ref_trace = reference_walk(ansatz0, targets, schedule)
        assert np.array_equal(trace, ref_trace)
        assert np.array_equal(best.flat(), ref_best)


class TestWorkspaceGuards:
    @staticmethod
    def short_of_fit_range():
        # degree 8 fits in n_work = 10, but f then stops at n = 2 < n_fit
        return PotentialAnsatz.zeros(), DesignTargets.inverse_intensity(0.0125, 6, n_work=10)

    @staticmethod
    def too_small_for_degree():
        return (PotentialAnsatz.zeros(v_degree=12),
                DesignTargets.inverse_intensity(0.0125, 6, n_work=12))

    @pytest.mark.parametrize("case, message", [
        ("short_of_fit_range", "cannot reach fit index 6"),
        ("too_small_for_degree", "workspace cutoff 12 too small for degree 12"),
    ])
    def test_design_cost_rejects(self, case, message):
        ansatz, targets = getattr(self, case)()
        with pytest.raises(ValueError, match=message):
            design_cost(ansatz, targets)

    @pytest.mark.parametrize("case, message", [
        ("short_of_fit_range", "cannot reach fit index 6"),
        ("too_small_for_degree", "workspace cutoff 12 too small for degree 12"),
    ])
    def test_mc_optimize_rejects_before_drawing(self, case, message, monkeypatch):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"drew {name} before checking the workspace")

        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraws())
        ansatz, targets = getattr(self, case)()
        with pytest.raises(ValueError, match=message):
            mc_optimize(ansatz, targets, AnnealSchedule(iterations=10))


class TestValidateDesign:
    def test_exact_tables_show_no_degradation(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=6)
        cfg = OpticsEngineConfig(beta1=0.5, beta2=1.0, omega1=2.0,
                                 g1=0.5, g2=0.5, delta=20.0,
                                 n_max1=4, n_max2=4, min_detuning_ratio=5.0)
        report = validate_design(gen, targets, cfg)
        assert report.max_f_error <= 1e-12
        assert report.max_theta_error <= 1e-12
        assert report.fidelity_degradation <= 1e-10

    def test_uniform_theta_error_costs_quadratically(self):
        # scaling b(y) by (1 + eps) scales every theta element by the same
        # factor, shifting the per-sector exchange rate by ~2 eps; the
        # end-of-cycle infidelity must then grow like eps^2.  The generator
        # keeps f linear in n (pure y^2) so the exchange stays on resonance.
        gen = PotentialAnsatz(np.array([0.00625, 0, 0, 0]), np.array([1.0, 0, 0, 0]))
        targets = DesignTargets.from_ansatz(gen, n_fit=6)
        cfg = OpticsEngineConfig(beta1=0.5, beta2=1.0, omega1=2.0,
                                 g1=0.5, g2=0.5, delta=20.0,
                                 n_max1=4, n_max2=4, min_detuning_ratio=5.0)
        degradations = []
        for eps in (0.01, 0.02):
            bumped = PotentialAnsatz(gen.v_coeffs, gen.b_coeffs * (1 + eps))
            report = validate_design(bumped, targets, cfg)
            assert abs(report.max_theta_error / np.max(targets.theta_target) - eps) <= 1e-12
            degradations.append(report.fidelity_degradation)
        # quadratic growth: doubling the error roughly quadruples the loss
        assert 2.5 <= degradations[1] / degradations[0] <= 6.0
        # order of magnitude: around (pi/2 * 2 eps)^2 for eps = 1%
        assert 1e-5 <= degradations[0] <= 1e-2

    def test_probe_block_must_be_inside_fit_range(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=6)
        cfg = OpticsEngineConfig(beta1=0.5, beta2=1.0, omega1=2.0,
                                 g1=0.5, g2=0.5, delta=20.0,
                                 n_max1=4, n_max2=4, min_detuning_ratio=5.0)
        with pytest.raises(ValueError):
            validate_design(gen, targets, cfg, probe_block=(7, 0))

    @pytest.mark.parametrize("probe_block", [(3, 1), (1, 0), (6, 5)])
    def test_degradation_matches_dense_oracle(self, probe_block):
        # evolve |n0, m0, 1> in the whole dense space of the probe engine
        gen = PotentialAnsatz(np.array([0.00625, 0, 0, 0]), np.array([1.0, 0, 0, 0]))
        targets = DesignTargets.from_ansatz(gen, n_fit=6)
        bumped = PotentialAnsatz(gen.v_coeffs, gen.b_coeffs * 1.02)
        cfg = OpticsEngineConfig(beta1=0.5, beta2=1.0, omega1=2.0,
                                 g1=0.5, g2=0.5, delta=20.0,
                                 n_max1=4, n_max2=4, min_detuning_ratio=5.0)
        report = validate_design(bumped, targets, cfg, probe_block=probe_block)

        n_fit = targets.n_fit
        probe = OpticsEngineConfig(
            beta1=cfg.beta1, beta2=cfg.beta2, omega1=cfg.omega1, g1=cfg.g1, g2=cfg.g2,
            delta=cfg.delta, n_max1=n_fit, n_max2=n_fit, min_detuning_ratio=5.0,
        )
        f_act, theta_act = fock_matrix_elements(bumped, targets.n_work)
        finals = []
        for f, theta in ((targets.f_target, targets.theta_target),
                         (f_act[1:n_fit + 1], theta_act[1:n_fit + 1])):
            f_table = np.concatenate([[0.0], f])
            th_table = np.concatenate([[0.0], theta])
            profile = coupling_profile_from_tables(
                probe, th_table, th_table, f_table, f_table, require_rule=False
            )
            n0, m0 = probe_block
            psi0 = basis_state(probe.full_dim, (n0 * (probe.n_max2 + 1) + m0) * 3)
            prop = SpectralPropagator(build_full_hamiltonian(probe, profile))
            finals.append(prop.states(psi0, [probe.tau])[0])
        oracle = max(0.0, 1.0 - abs(np.vdot(finals[0], finals[1])) ** 2)
        assert abs(report.fidelity_degradation - oracle) <= 1e-10
