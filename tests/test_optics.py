import math

import numpy as np
import pytest

from conftest import taylor_evolution
from sltosim.engine import CompactEngineConfig, charge_block, evolve_cycle
from sltosim.linalg import (
    DensityMatrix,
    Operator,
    ShapeError,
    SpectralPropagator,
    SubsystemLayout,
    basis_state,
    commutator_norm,
    partial_trace,
)
from sltosim.optics import (
    LambdaAtom,
    OpticsEngineConfig,
    adiabatic_elimination_error,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    coupling_profile_from_tables,
    effective_compact_config,
    full_charge_block,
    inverse_intensity_profile,
    run_optics_cycle,
    stimulated_emission_bookkeeping,
    sweep_slopes,
    uniform_exchange_profile,
)
from sltosim.thermal import TruncatedMode


def small_optics(**overrides) -> OpticsEngineConfig:
    params = dict(beta1=0.5, beta2=1.0, omega1=2.0, g1=0.5, g2=0.5,
                  detuning=20.0, n_max1=4, n_max2=4, min_detuning_ratio=5.0)
    params.update(overrides)
    return OpticsEngineConfig.resonant(**params)


class TestConfig:
    def test_atom_level_ordering_enforced(self):
        with pytest.raises(ValueError):
            LambdaAtom(e2=2.0, e3=1.0)

    def test_equal_temperatures_rejected(self):
        with pytest.raises(ValueError):
            small_optics(beta1=1.0, beta2=1.0)

    def test_two_mode_resonance_enforced(self):
        cfg = small_optics()
        with pytest.raises(ValueError):
            OpticsEngineConfig(
                mode1=cfg.mode1, mode2=cfg.mode2,
                atom=LambdaAtom(e2=cfg.omega0 * 1.01, e3=cfg.atom.e3),
                g1=cfg.g1, g2=cfg.g2, min_detuning_ratio=5.0,
            )

    def test_ladder_resonance_enforced(self):
        cfg = small_optics()
        with pytest.raises(ValueError):
            OpticsEngineConfig(
                mode1=cfg.mode1,
                mode2=TruncatedMode(cfg.mode2.omega * 1.01, cfg.mode2.beta, cfg.mode2.n_max),
                atom=cfg.atom, g1=cfg.g1, g2=cfg.g2, min_detuning_ratio=5.0,
            )

    def test_detuning_ratio_floor(self):
        with pytest.raises(ValueError):
            small_optics(min_detuning_ratio=20.0, detuning=5.0)

    def test_derived_quantities(self):
        cfg = small_optics()
        assert abs(cfg.omega0 - 1.0) <= 1e-15
        assert abs(cfg.delta - 20.0) <= 1e-12
        assert abs(cfg.g - cfg.g1 * cfg.g2 / cfg.delta) <= 1e-15


class TestCouplingProfile:
    def test_vacuum_regularization_enforced(self):
        cfg = small_optics()
        theta = np.ones(cfg.mode1.dim)
        with pytest.raises(ValueError):
            coupling_profile_from_tables(cfg, theta, np.ones(cfg.mode2.dim))

    def test_shift_rule_derived_from_theta(self):
        cfg = small_optics()
        prof = inverse_intensity_profile(cfg)
        n = np.arange(1, cfg.mode1.dim, dtype=float)
        assert np.max(np.abs(prof.f1[1:] - (cfg.g1**2 / cfg.delta) / n)) <= 1e-15
        assert prof.f1[0] == 0.0
        assert prof.rule_residual == 0.0

    def test_shift_rule_violation_rejected(self):
        cfg = small_optics()
        prof = inverse_intensity_profile(cfg)
        bad_f = prof.f1.copy()
        bad_f[2] *= 1.5
        with pytest.raises(ValueError):
            coupling_profile_from_tables(cfg, prof.theta1, prof.theta2, bad_f, prof.f2)

    def test_table_length_checked(self):
        cfg = small_optics()
        with pytest.raises(ShapeError):
            coupling_profile_from_tables(cfg, np.zeros(3), np.zeros(cfg.mode2.dim))

    def test_uniform_profile_elements(self):
        cfg = small_optics()
        prof = uniform_exchange_profile(cfg)
        # transition element theta(n-1) sqrt(n) is 1 everywhere above the
        # regularized lowest step
        for n in range(2, cfg.mode1.dim):
            assert abs(prof.theta1[n - 1] * math.sqrt(n) - 1.0) <= 1e-12
        assert prof.theta1[0] == 0.0


class TestFullHamiltonian:
    def test_zero_couplings_leave_diagonal(self):
        cfg = small_optics(g1=0.0, g2=0.0)
        prof = uniform_exchange_profile(cfg)
        h = build_full_hamiltonian(cfg, prof)
        off = h.entries - np.diag(np.diagonal(h.entries))
        assert np.max(np.abs(off)) == 0.0

    def test_vacuum_column_uncoupled(self):
        cfg = small_optics()
        h = build_full_hamiltonian(cfg, inverse_intensity_profile(cfg))
        d2 = cfg.mode2.dim
        col = (0 * d2 + 2) * 3 + 0  # |0, 2, atom 1>
        column = h.entries[:, col].copy()
        column[col] = 0.0
        assert np.max(np.abs(column)) == 0.0

    def test_matrix_element_convention(self):
        # <n-1, m, 3| H |n, m, 1> = g1 theta1(n-1) sqrt(n)
        cfg = small_optics()
        h = build_full_hamiltonian(cfg, inverse_intensity_profile(cfg))
        d2 = cfg.mode2.dim

        def idx(n, m, atom):
            return (n * d2 + m) * 3 + atom

        # the regularized lowest transition is dead: theta(0) * sqrt(1) = 0
        assert h.entries[idx(0, 0, 2), idx(1, 0, 0)] == 0.0
        # first active transition: theta(1) sqrt(2) = sqrt(2) for the 1/sqrt(n) table
        got = h.entries[idx(1, 0, 2), idx(2, 0, 0)]
        assert abs(got - cfg.g1 * math.sqrt(2)) <= 1e-12

    def test_detuning_sits_on_upper_level(self):
        cfg = small_optics(g1=0.0, g2=0.0)
        h = build_full_hamiltonian(cfg, uniform_exchange_profile(cfg))
        d2 = cfg.mode2.dim
        assert abs(h.entries[(0 * d2 + 0) * 3 + 2, (0 * d2 + 0) * 3 + 2] - cfg.delta) <= 1e-12

    def test_profile_cutoff_mismatch_rejected(self):
        cfg = small_optics()
        other = small_optics(n_max1=6, n_max2=6)
        with pytest.raises(ShapeError):
            build_full_hamiltonian(cfg, uniform_exchange_profile(other))


class TestEffectiveHamiltonian:
    def test_first_sector_is_pauli_pair(self):
        cfg = small_optics()
        h = build_effective_hamiltonian(cfg)
        d2 = cfg.mode2.dim

        def idx(n, m, atom):
            return (n * d2 + m) * 2 + atom

        assert abs(h.entries[idx(0, 1, 1), idx(1, 0, 0)] - cfg.g) <= 1e-15
        assert abs(h.entries[idx(1, 0, 0), idx(0, 1, 1)] - cfg.g) <= 1e-15

    def test_vacuum_sectors_uncoupled(self):
        cfg = small_optics()
        h = build_effective_hamiltonian(cfg)
        d2 = cfg.mode2.dim
        for m in range(cfg.mode2.dim):
            col = (0 * d2 + m) * 2 + 0
            assert np.max(np.abs(h.entries[:, col])) == 0.0

    def test_spectrum_three_valued(self):
        cfg = small_optics()
        eigs = np.linalg.eigvalsh(build_effective_hamiltonian(cfg).entries)
        dist = np.min(np.abs(eigs[:, None] - np.array([-cfg.g, 0, cfg.g])[None, :]), axis=1)
        assert np.max(dist) <= 1e-12

    def test_conservation_laws_dense(self):
        cfg = small_optics()
        compact = effective_compact_config(cfg)
        h = build_effective_hamiltonian(cfg)
        d_total = Operator(np.diag(compact.total_energy_diagonal()).astype(complex),
                           hermitian_hint=True)
        d_weighted = Operator(np.diag(compact.weighted_energy_diagonal()).astype(complex),
                              hermitian_hint=True)
        prop = SpectralPropagator(h)
        for t in np.linspace(0, compact.tau, 7):
            u = prop.at(t)
            assert commutator_norm(u, d_total) <= 1e-10
            assert commutator_norm(u, d_weighted) <= 1e-10


class TestOpticsCycle:
    def test_final_state_formula_with_boundary_correction(self):
        cfg = OpticsEngineConfig.resonant(beta1=0.5, beta2=1.0, omega1=2.0,
                                          g1=2.0, g2=2.0, detuning=80.0)
        report = run_optics_cycle(cfg)
        corrected = report.corrected_final_populations
        z1 = report.partition_function1
        assert abs(corrected[0] - 1.0 / z1) <= 1e-6
        assert abs(corrected[1] - (1.0 - 1.0 / z1)) <= 1e-6

    def test_hot_limit_excites_almost_surely(self):
        # beta1 -> 0 keeps barely any weight in the hot vacuum
        cfg = OpticsEngineConfig.resonant(beta1=0.05, beta2=1.0, omega1=2.0,
                                          g1=2.0, g2=2.0, detuning=80.0,
                                          n_max1=300, n_max2=40)
        report = run_optics_cycle(cfg)
        assert report.final_system_populations[1] > 0.85
        assert abs(report.final_system_populations[1]
                   - (1 - 1 / report.partition_function1)) <= 1e-2

    def test_sector_amplitudes_match_rotation(self):
        report = run_optics_cycle(small_optics())
        mid = len(report.times) // 2
        c, s = report.amplitude_trace[mid]
        assert abs(c - math.cos(math.pi / 4)) <= 1e-12
        assert abs(s - (-1j) * math.sin(math.pi / 4)) <= 1e-12

    def test_structured_cycle_matches_dense_reduction(self):
        cfg = small_optics(n_max1=3, n_max2=3)
        report = run_optics_cycle(cfg)
        compact = effective_compact_config(cfg)
        # dense path: evolve the product state and trace out both modes
        from sltosim.thermal import gibbs_state
        rho1, _ = gibbs_state(cfg.mode1)
        rho2, _ = gibbs_state(cfg.mode2)
        atom = np.zeros((2, 2), dtype=complex)
        atom[0, 0] = 1.0
        joint = np.kron(np.kron(rho1.entries, rho2.entries), atom)
        u = SpectralPropagator(build_effective_hamiltonian(cfg)).at(cfg.tau).entries
        final = DensityMatrix(u @ joint @ u.conj().T)
        layout = SubsystemLayout((cfg.mode1.dim, cfg.mode2.dim, 2))
        rho_s = partial_trace(final, layout, keep=[2])
        off_diag = abs(rho_s.entries[0, 1])
        assert off_diag <= 1e-10
        assert np.max(np.abs(np.real(np.diagonal(rho_s.entries))
                             - report.final_system_populations)) <= 1e-10
        assert compact.dim == cfg.mode1.dim * cfg.mode2.dim * 2

    def test_agreement_with_ladder_engine(self):
        cfg = small_optics()
        optics_report = run_optics_cycle(cfg)
        ladder = CompactEngineConfig(
            beta1=cfg.mode1.beta, beta2=cfg.mode2.beta,
            omega1=cfg.mode1.omega, omega2=cfg.mode2.omega,
            g=cfg.g, n_max1=cfg.mode1.n_max, n_max2=cfg.mode2.n_max,
        )
        ladder_report = evolve_cycle(ladder)
        assert abs(optics_report.eta - ladder_report.eta) <= 1e-10
        assert abs(optics_report.tau - ladder_report.tau) <= 1e-10
        assert abs(optics_report.power - ladder_report.power) <= 1e-10

    def test_work_gap_is_mode_frequency_difference(self):
        report = run_optics_cycle(small_optics())
        assert abs(report.w_ext - 1.0) <= 1e-12


class TestStimulatedEmission:
    def test_no_success_no_work(self):
        import dataclasses
        report = run_optics_cycle(small_optics())
        silent = dataclasses.replace(
            report,
            final_system_populations=np.array([1.0, 0.0]),
        )
        record = stimulated_emission_bookkeeping(silent)
        assert record.expected_work == 0.0

    def test_certain_success_extracts_full_quantum(self):
        import dataclasses
        report = run_optics_cycle(small_optics())
        certain = dataclasses.replace(
            report,
            final_system_populations=np.array([0.0, 1.0]),
        )
        record = stimulated_emission_bookkeeping(certain)
        assert abs(record.expected_work - report.w_ext) <= 1e-12
        assert abs(record.eta - 0.5) <= 1e-12

    def test_reference_parameters(self):
        record = stimulated_emission_bookkeeping(run_optics_cycle(small_optics()))
        assert abs(record.omega0 - 1.0) <= 1e-12
        assert abs(record.eta - 0.5) <= 1e-12
        assert abs(record.power - 2 * small_optics().g / math.pi) <= 1e-12


class TestAdiabaticElimination:
    def test_uncoupled_sector_shows_no_deviation(self):
        cfg = small_optics()
        points = adiabatic_elimination_error(
            cfg, uniform_exchange_profile(cfg), [20.0], initial_block=(0, 2)
        )
        assert points[0].population_deviation <= 1e-10
        assert points[0].leak_max <= 1e-10

    def test_zero_coupling_gives_zero_deviation(self):
        cfg = small_optics(g1=0.0, g2=0.0)
        points = adiabatic_elimination_error(
            cfg, uniform_exchange_profile(cfg), [10.0, 20.0]
        )
        for p in points:
            assert p.population_deviation <= 1e-12
            assert p.leak_max <= 1e-12

    def test_ratio_floor_enforced(self):
        cfg = small_optics()
        with pytest.raises(ValueError):
            adiabatic_elimination_error(cfg, uniform_exchange_profile(cfg), [1.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_detuning_rejected(self, bad):
        cfg = small_optics()
        with pytest.raises(ValueError):
            adiabatic_elimination_error(cfg, uniform_exchange_profile(cfg), [20.0, bad])

    def test_sample_cap_lowers_reported_density(self):
        cfg = small_optics()
        points = adiabatic_elimination_error(
            cfg, uniform_exchange_profile(cfg), [10.0, 320.0]
        )
        assert points[0].samples < 200_000
        assert points[0].samples_per_period >= 8.0
        # ratio 640 asks for about 8.2e5 samples and gets the cap
        assert points[1].samples == 200_000
        assert 1.8 <= points[1].samples_per_period <= 2.0

    def test_block_outside_cutoffs_rejected(self):
        cfg = small_optics()
        with pytest.raises(ValueError):
            adiabatic_elimination_error(
                cfg, uniform_exchange_profile(cfg), [20.0], initial_block=(9, 0)
            )

    def test_doubling_detuning_quarters_leak(self):
        cfg = small_optics()
        points = adiabatic_elimination_error(
            cfg, uniform_exchange_profile(cfg), [10.0, 20.0], initial_block=(2, 1)
        )
        factor = points[0].leak_max / points[1].leak_max
        assert 3.0 <= factor <= 5.0

    def test_shift_balanced_sector_is_second_order(self):
        # sectors with n = m + 1 cancel the residual level-shift mismatch,
        # leaving the pure second-order population deviation
        cfg = small_optics()
        deltas = [10.0, 20.0, 40.0, 80.0]
        points = adiabatic_elimination_error(
            cfg, uniform_exchange_profile(cfg), deltas, initial_block=(2, 1)
        )
        dev_slope, leak_slope = sweep_slopes(points)
        assert -2.3 <= dev_slope <= -1.7
        assert -2.3 <= leak_slope <= -1.7

    def test_generic_sector_meets_stated_bands(self):
        cfg = small_optics()
        deltas = [10.0, 20.0, 40.0, 80.0]
        points = adiabatic_elimination_error(
            cfg, uniform_exchange_profile(cfg), deltas
        )
        devs = [p.population_deviation for p in points]
        assert all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
        dev_slope, leak_slope = sweep_slopes(points)
        assert -1.4 <= dev_slope <= -0.6
        assert -2.5 <= leak_slope <= -1.5


class TestChargeBlockOracle:
    """The <= 3-state charge blocks against the dense builders."""

    @staticmethod
    def assert_block_of(dense: np.ndarray, block, n_levels: int, d2: int):
        idx = [(n * d2 + m) * n_levels + level for n, m, level in block.members]
        assert block.members[0][2] == 0
        assert np.array_equal(block.h.entries, dense[np.ix_(idx, idx)])
        outside = np.delete(dense[idx], idx, axis=1)
        assert not np.any(outside)

    @pytest.mark.parametrize("cutoffs", [(4, 4), (6, 5)])
    @pytest.mark.parametrize("make_profile", [uniform_exchange_profile,
                                              inverse_intensity_profile])
    def test_blocks_are_dense_submatrices(self, cutoffs, make_profile):
        cfg = small_optics(n_max1=cutoffs[0], n_max2=cutoffs[1])
        full = build_full_hamiltonian(cfg, make_profile(cfg)).entries
        eff = build_effective_hamiltonian(cfg).entries
        d2 = cfg.mode2.dim
        for n in range(cfg.mode1.dim):
            for m in range(d2):
                block = full_charge_block(cfg, make_profile(cfg), n, m)
                self.assert_block_of(full, block, 3, d2)
                assert len(block.members) == (1 if n == 0 else 2 if m == cfg.mode2.n_max else 3)
                pair = charge_block(effective_compact_config(cfg), n, m)
                self.assert_block_of(eff, pair, 2, d2)
                assert len(pair.members) == (1 if n == 0 or m == cfg.mode2.n_max else 2)

    def test_sector_outside_cutoffs_rejected(self):
        cfg = small_optics()
        with pytest.raises(ValueError):
            full_charge_block(cfg, uniform_exchange_profile(cfg), 5, 0)
        with pytest.raises(ValueError):
            charge_block(effective_compact_config(cfg), 0, -1)

    @staticmethod
    def dense_level_populations(h, n0, m0, times, d1, d2, n_levels):
        psi0 = basis_state(d1 * d2 * n_levels, (n0 * d2 + m0) * n_levels)
        amps = SpectralPropagator(h).states(psi0, times)
        return (np.abs(amps.reshape(len(times), d1, d2, n_levels)) ** 2).sum(axis=(1, 2))

    # balanced, generic, vacuum, dead lowest leg, no |n-1, m+1, 2> member
    @pytest.mark.parametrize("block", [(3, 2), (3, 1), (0, 0), (1, 2), (2, 4)])
    @pytest.mark.parametrize("make_profile", [uniform_exchange_profile,
                                              inverse_intensity_profile])
    def test_sweep_matches_dense_propagation(self, block, make_profile):
        cfg = small_optics()
        deltas = [10.0, 25.0]
        points = adiabatic_elimination_error(cfg, make_profile(cfg), deltas,
                                             initial_block=block)
        d1, d2 = cfg.mode1.dim, cfg.mode2.dim
        for delta, point in zip(deltas, points):
            cfg_d = small_optics(detuning=delta)
            times = np.linspace(0.0, cfg_d.tau, point.samples)
            full = self.dense_level_populations(
                build_full_hamiltonian(cfg_d, make_profile(cfg_d)), *block, times, d1, d2, 3
            )
            eff = self.dense_level_populations(
                build_effective_hamiltonian(cfg_d), *block, times, d1, d2, 2
            )
            deviation = np.max(np.abs(full[:, :2] - eff))
            assert abs(point.population_deviation - deviation) <= 1e-10
            assert abs(point.leak_max - np.max(full[:, 2])) <= 1e-10


class TestFullModelOracle:
    def test_norm_preserved_over_full_cycle(self):
        from sltosim.linalg import basis_state
        cfg = small_optics()
        h = build_full_hamiltonian(cfg, uniform_exchange_profile(cfg))
        d2 = cfg.mode2.dim
        psi0 = basis_state(cfg.full_dim, (2 * d2 + 1) * 3 + 0)
        amps = SpectralPropagator(h).states(psi0, np.linspace(0, cfg.tau, 200))
        norms = np.linalg.norm(amps, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-10

    def test_single_sector_chain_against_series_oracle(self):
        cfg = small_optics(n_max1=2, n_max2=2)
        prof = uniform_exchange_profile(cfg)
        h = build_full_hamiltonian(cfg, prof)
        t = 0.1  # keeps ||H t|| small enough for the plain power series
        u = SpectralPropagator(h).at(t)
        oracle = taylor_evolution(h.entries, t, tol=1e-14)
        assert np.max(np.abs(u.entries - oracle)) <= 1e-10
