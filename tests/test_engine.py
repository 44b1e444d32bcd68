import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import taylor_evolution
from sltosim.engine import (
    CompactEngineConfig,
    DegenerateCycleError,
    NoGradientError,
    battery_split,
    build_interaction_hamiltonian,
    clausius_check,
    efficiency_and_power,
    enumerate_blocks,
    evolution_operator,
    evolve_cycle,
    speed_and_geodesic,
)
from sltosim.linalg import Operator, commutator_norm, hermitian_exponential


def small_config(**overrides) -> CompactEngineConfig:
    params = dict(beta1=0.5, beta2=1.0, omega1=2.0, omega2=1.0,
                  g=0.05, n_max1=5, n_max2=5)
    params.update(overrides)
    return CompactEngineConfig(**params)


class TestConfig:
    def test_resonance_enforced(self):
        with pytest.raises(ValueError):
            small_config(omega2=1.01)

    def test_gap_must_match_frequency_difference(self):
        with pytest.raises(ValueError):
            small_config(a1=5.0)

    @pytest.mark.parametrize("field", ["beta1", "beta2", "omega1", "omega2", "g", "a0", "a1"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            small_config(**{field: value})

    def test_inverted_gradient_rejected(self):
        with pytest.raises(NoGradientError):
            small_config(beta1=2.0, beta2=1.0, omega1=1.0, omega2=2.0)

    def test_equal_temperatures_allowed_as_degenerate_engine(self):
        cfg = small_config(beta1=1.0, beta2=1.0, omega1=1.0, omega2=1.0)
        assert cfg.w_ext == 0.0
        assert cfg.carnot_efficiency == 0.0

    def test_derived_gap(self):
        cfg = small_config(a0=0.3)
        assert abs(cfg.a1 - (0.3 + 1.0)) <= 1e-15


class TestBlockEnumeration:
    def test_exchange_partner_of_interior_sector(self):
        cfg = small_config()
        blocks = {(b.n, b.m): b for b in enumerate_blocks(cfg)}
        b = blocks[(3, 2)]
        assert b.coupled
        assert b.source_index == cfg.basis_index(3, 2, 0)
        assert b.target_index == cfg.basis_index(2, 3, 1)

    def test_vacuum_sectors_idle(self):
        cfg = small_config()
        for b in enumerate_blocks(cfg):
            if b.n == 0:
                assert not b.coupled and b.target_index == -1

    def test_cold_cutoff_sectors_idle(self):
        cfg = small_config()
        for b in enumerate_blocks(cfg):
            if b.m == cfg.n_max2:
                assert not b.coupled

    def test_pairing_is_a_bijection(self):
        cfg = small_config()
        coupled = [b for b in enumerate_blocks(cfg) if b.coupled]
        assert len(coupled) == cfg.n_max1 * cfg.n_max2
        targets = [b.target_index for b in coupled]
        assert len(set(targets)) == len(targets)

    def test_lexicographic_order(self):
        labels = [(b.n, b.m) for b in enumerate_blocks(small_config())]
        assert labels == sorted(labels)


class TestInteractionHamiltonian:
    def test_no_hot_quanta_gives_zero_operator(self):
        cfg = small_config(n_max1=0)
        h = build_interaction_hamiltonian(cfg)
        assert np.max(np.abs(h.entries)) == 0.0

    def test_single_sector_is_pauli_x_pair(self):
        cfg = small_config(n_max1=1, n_max2=1)
        h = build_interaction_hamiltonian(cfg)
        blocks = [b for b in enumerate_blocks(cfg) if b.coupled]
        assert len(blocks) == 1
        s, t = blocks[0].source_index, blocks[0].target_index
        sub = h.entries[np.ix_([s, t], [s, t])]
        assert np.max(np.abs(sub - cfg.g * np.array([[0, 1], [1, 0]]))) == 0.0

    def test_spectrum_is_three_valued(self):
        cfg = small_config()
        eigs = np.linalg.eigvalsh(build_interaction_hamiltonian(cfg).entries)
        dist = np.min(np.abs(eigs[:, None] - np.array([-cfg.g, 0.0, cfg.g])[None, :]), axis=1)
        assert np.max(dist) <= 1e-12

    def test_conserves_total_and_weighted_energy(self):
        cfg = small_config(n_max1=4, n_max2=4)
        h = build_interaction_hamiltonian(cfg)
        d_total = Operator(np.diag(cfg.total_energy_diagonal()).astype(complex), hermitian_hint=True)
        d_weighted = Operator(np.diag(cfg.weighted_energy_diagonal()).astype(complex), hermitian_hint=True)
        assert commutator_norm(h, d_total) <= 1e-12
        assert commutator_norm(h, d_weighted) <= 1e-12

    def test_operator_norm_equals_coupling(self):
        cfg = small_config()
        h = build_interaction_hamiltonian(cfg)
        assert abs(np.linalg.norm(h.entries, 2) - cfg.g) <= 1e-12


class TestEvolutionOperator:
    def test_matches_spectral_exponential(self):
        cfg = small_config(n_max1=3, n_max2=3)
        h = build_interaction_hamiltonian(cfg)
        for t in (0.0, 0.3 * cfg.tau, cfg.tau):
            direct = hermitian_exponential(h, t)
            assembled = evolution_operator(cfg, t)
            assert np.max(np.abs(direct.entries - assembled.entries)) <= 1e-12

    def test_matches_series_oracle_at_small_cutoff(self):
        cfg = small_config(n_max1=2, n_max2=2)
        h = build_interaction_hamiltonian(cfg)
        assert h.dim == 18
        u = evolution_operator(cfg, cfg.tau)
        oracle = taylor_evolution(h.entries, cfg.tau)
        assert np.max(np.abs(u.entries - oracle)) <= 1e-10


class TestEvolveCycle:
    def test_requires_cycle_duration_in_grid(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            evolve_cycle(cfg, times=np.linspace(0, cfg.tau / 2, 11))

    def test_requires_positive_coupling(self):
        with pytest.raises(ValueError):
            evolve_cycle(small_config(g=0.0))

    def test_full_transfer_amplitude_at_cycle_end(self):
        report = evolve_cycle(small_config())
        final_amp = report.amplitude_trace[-1]
        assert abs(final_amp[0]) <= 1e-12
        assert abs(final_amp[1] - (-1j)) <= 1e-10

    def test_half_way_point_is_balanced(self):
        report = evolve_cycle(small_config())
        mid = len(report.times) // 2  # gt = pi/4 on the default grid
        c, s = report.amplitude_trace[mid]
        assert abs(abs(c) ** 2 - 0.5) <= 1e-12
        assert abs(abs(s) ** 2 - 0.5) <= 1e-12
        assert abs(report.entanglement_trace[mid, 1] - math.log(2)) <= 1e-12

    def test_amplitudes_track_cosine_law(self):
        report = evolve_cycle(small_config())
        assert report.amplitude_residual <= 1e-10

    def test_probability_conservation_per_sector(self):
        report = evolve_cycle(small_config())
        norms = np.sum(np.abs(report.amplitude_trace) ** 2, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_success_weight_against_geometric_oracle(self):
        cfg = small_config(beta1=0.5, beta2=1.0, omega1=2.0, omega2=1.0,
                           n_max1=40, n_max2=40)
        report = evolve_cycle(cfg)
        q1 = math.exp(-cfg.beta1 * cfg.omega1)
        q2 = math.exp(-cfg.beta2 * cfg.omega2)
        p1 = (1 - q1) / (1 - q1 ** (cfg.n_max1 + 1)) * q1 ** np.arange(cfg.n_max1 + 1)
        p2 = (1 - q2) / (1 - q2 ** (cfg.n_max2 + 1)) * q2 ** np.arange(cfg.n_max2 + 1)
        oracle = p1[1:].sum() * p2[:-1].sum()
        assert abs(report.success_weight - oracle) <= 1e-12
        # with generous cutoffs only the vacuum sectors fail, leaving e^{-1}
        assert abs(report.success_weight - math.exp(-1.0)) <= 1e-9

    def test_entanglement_vanishes_at_endpoints_only(self):
        report = evolve_cycle(small_config())
        s_ent = report.entanglement_trace[:, 1]
        assert s_ent[0] <= 1e-9
        assert s_ent[-1] <= 1e-9
        assert np.all(s_ent[1:-1] > 1e-6)

    def test_final_population_equals_success_weight(self):
        report = evolve_cycle(small_config())
        assert abs(report.final_system_populations[1] - report.success_weight) <= 1e-12

    def test_weights_partition_unity(self):
        report = evolve_cycle(small_config())
        total = report.success_weight + report.vacuum_weight + report.boundary_weight
        assert abs(total - 1.0) <= 1e-12

    def test_commutator_residuals_on_structured_support(self):
        report = evolve_cycle(small_config())
        assert report.commutator_residual_energy <= 1e-10
        assert report.commutator_residual_weighted <= 1e-10

    def test_commutator_residuals_dense_cross_check(self):
        cfg = small_config(n_max1=3, n_max2=3)
        d_total = Operator(np.diag(cfg.total_energy_diagonal()).astype(complex), hermitian_hint=True)
        d_weighted = Operator(np.diag(cfg.weighted_energy_diagonal()).astype(complex), hermitian_hint=True)
        worst_e = worst_w = 0.0
        for t in np.linspace(0, cfg.tau, 21):
            u = evolution_operator(cfg, t)
            worst_e = max(worst_e, commutator_norm(u, d_total))
            worst_w = max(worst_w, commutator_norm(u, d_weighted))
        assert worst_e <= 1e-10
        assert worst_w <= 1e-10

    def test_bath_energy_books_balance(self):
        cfg = small_config()
        report = evolve_cycle(cfg)
        de1 = report.bath1_energy_trace[-1] - report.bath1_energy_trace[0]
        de2 = report.bath2_energy_trace[-1] - report.bath2_energy_trace[0]
        # ensemble heats are success-weighted single-quantum exchanges
        assert abs(de1 + report.q1_ensemble) <= 1e-12
        assert abs(de2 + report.q2_ensemble) <= 1e-12

    def test_degenerate_equal_temperature_cycle(self):
        cfg = small_config(beta1=1.0, beta2=1.0, omega1=1.0, omega2=1.0)
        report = evolve_cycle(cfg)
        assert report.w_ext == 0.0
        assert report.eta == 0.0
        assert report.q1 > 0.0


class TestClausius:
    def test_cycle_report_residual(self):
        report = evolve_cycle(small_config())
        assert clausius_check(report) <= 1e-9

    def test_zero_heat_report(self):
        report = evolve_cycle(small_config())
        silent = dataclasses.replace(report, q1=0.0, q2=0.0, eta=0.0)
        assert clausius_check(silent) == 0.0

    def test_single_quantum_exchange_balances(self):
        report = evolve_cycle(small_config())
        ideal = dataclasses.replace(report, q1=report.omega1, q2=-report.omega2)
        assert clausius_check(ideal) <= 1e-12

    def test_detuned_cold_frequency_shows_up_linearly(self):
        report = evolve_cycle(small_config())
        detuned = dataclasses.replace(report, q2=-report.omega2 * (1 + 1e-3))
        expected = report.beta2 * report.omega2 * 1e-3
        assert abs(clausius_check(detuned) - expected) <= 1e-12


class TestEfficiencyAndPower:
    def test_reference_point(self):
        cfg = CompactEngineConfig(beta1=1.0, beta2=2.0, omega1=2.0, omega2=1.0,
                                  g=0.2, n_max1=6, n_max2=6)
        report = evolve_cycle(cfg)
        eta, power = efficiency_and_power(report)
        assert abs(report.w_ext - 1.0) <= 1e-12
        assert abs(report.q1 - 2.0) <= 1e-9
        assert abs(eta - 0.5) <= 1e-9
        assert abs(eta - (1 - cfg.beta1 / cfg.beta2)) <= 1e-9

    def test_unit_time_cycle(self):
        g = math.pi / 2
        cfg = small_config(g=g)
        report = evolve_cycle(cfg)
        assert abs(report.tau - 1.0) <= 1e-12
        assert abs(report.power - report.w_ext) <= 1e-12

    def test_power_formula(self):
        report = evolve_cycle(small_config())
        assert abs(report.power - 2 * report.g * report.w_ext / math.pi) <= 1e-12

    def test_degenerate_cycle_raises(self):
        report = evolve_cycle(small_config())
        broken = dataclasses.replace(report, q1=0.0, q2=0.0, eta=0.0)
        with pytest.raises(DegenerateCycleError):
            efficiency_and_power(broken)

    def test_equal_temperatures_give_zero_efficiency(self):
        cfg = small_config(beta1=1.0, beta2=1.0, omega1=1.0, omega2=1.0)
        eta, _ = efficiency_and_power(evolve_cycle(cfg))
        assert eta == 0.0


class TestSpeedAndGeodesic:
    def test_constant_speed_at_coupling_rate(self):
        report = evolve_cycle(small_config())
        diag = speed_and_geodesic(report)
        assert diag.max_speed_deviation <= 1e-9
        assert diag.max_distance_deviation <= 1e-9
        assert diag.monotone
        assert diag.passed

    def test_distance_hits_endpoints(self):
        report = evolve_cycle(small_config())
        s = report.fs_distance_trace[:, 1]
        assert abs(s[0]) <= 1e-12
        assert abs(s[-1] - 0.5) <= 1e-10
        mid = len(s) // 2
        assert abs(s[mid] - 0.25) <= 1e-10


class TestBatterySplit:
    def test_cold_side_endpoint_against_linear_solve(self):
        split = battery_split(1.0, 2.0, 1.0, lam=0.0)
        # independent oracle: solve beta1 e1 + beta2 e2 = (beta2-beta1) a, e1 = 0
        e1, e2 = np.linalg.solve(np.array([[1.0, 2.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
        assert abs(split.e_w1 - e1) <= 1e-12
        assert abs(split.e_w2 - e2) <= 1e-12
        assert (split.w_ext, split.q1, split.q2) == (0.5, 1.0, -0.5)
        assert abs(split.eta - 0.5) <= 1e-12

    def test_hot_side_endpoint_against_linear_solve(self):
        split = battery_split(1.0, 2.0, 1.0, lam=1.0)
        e1, e2 = np.linalg.solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([1.0, 0.0]))
        assert abs(split.e_w1 - e1) <= 1e-12
        assert abs(split.e_w2 - e2) <= 1e-12
        assert (split.w_ext, split.q1, split.q2) == (1.0, 2.0, -1.0)

    def test_equal_temperatures_force_zero_split(self):
        split = battery_split(1.0, 1.0, 1.0, lam=0.3)
        assert split.e_w1 == split.e_w2 == 0.0
        assert split.q1 == split.q2 == 0.0

    def test_inverted_gradient_raises(self):
        with pytest.raises(NoGradientError):
            battery_split(2.0, 1.0, 1.0)

    def test_lambda_range_enforced(self):
        with pytest.raises(ValueError):
            battery_split(1.0, 2.0, 1.0, lam=1.5)

    @given(
        st.floats(0.1, 2.0), st.floats(0.01, 3.0), st.floats(0.1, 5.0), st.floats(0.0, 1.0)
    )
    @settings(max_examples=60, deadline=None)
    def test_efficiency_is_lambda_independent(self, b1, gap, a, lam):
        b2 = b1 + gap
        split = battery_split(b1, b2, a, lam=lam)
        assert abs(split.eta - (1 - b1 / b2)) <= 1e-9
        assert abs(b1 * split.q1 + b2 * split.q2) <= 1e-9
        assert abs(split.w_ext - (split.q1 + split.q2)) <= 1e-9
