import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import taylor_evolution
from sltosim import engine
from sltosim.engine import (
    CompactEngineConfig,
    CycleReport,
    NoGradientError,
    battery_split,
    build_interaction_hamiltonian,
    enumerate_blocks,
    evolution_operator,
    evolve_cycle,
    pair_generator,
    speed_and_geodesic,
)
from sltosim.linalg import (
    DensityMatrix,
    Operator,
    SpectralPropagator,
    StateVector,
    basis_state,
    commutator_norm,
    energy_uncertainty,
    fubini_study_distance,
    von_neumann_entropy,
)
from sltosim.optics import OpticsEngineConfig, run_optics_cycle
from sltosim.thermal import gibbs_probabilities, truncation_for_tail


def small_config(**overrides) -> CompactEngineConfig:
    params = dict(beta1=0.5, beta2=1.0, omega1=2.0, g=0.05, n_max1=5, n_max2=5)
    params.update(overrides)
    return CompactEngineConfig(**params)


class TestConfig:
    def test_resonances_hold_by_construction(self):
        cfg = small_config(beta1=4.0, beta2=35.0, omega1=2242.0, n_max1=2, n_max2=2)
        assert cfg.omega2 == 4.0 * 2242.0 / 35.0
        assert abs(cfg.beta1 * cfg.omega1 - cfg.beta2 * cfg.omega2) <= 1e-12 * cfg.beta1 * cfg.omega1
        assert cfg.w_ext == cfg.omega1 - cfg.omega2

    def test_derived_omega2_must_be_finite(self):
        with pytest.raises(ValueError, match="derived omega2"):
            small_config(beta1=10.0, beta2=20.0, omega1=1e308)

    def test_upper_level_below_lower_rejected(self):
        # at beta1 = beta2 the rounding of beta1*omega1/beta2 puts omega2 one ulp above omega1
        assert 0.7 * 2.89 / 0.7 == math.nextafter(2.89, 3.0)
        with pytest.raises(ValueError, match="derived a1"):
            small_config(beta1=0.7, beta2=0.7, omega1=2.89)

    def test_missing_cutoffs_come_from_the_tail(self):
        cfg = small_config(n_max1=None, n_max2=None, tail_delta=1e-4)
        assert cfg.n_max1 == truncation_for_tail(cfg.omega1, cfg.beta1, 1e-4).n_max_used
        assert cfg.n_max2 == truncation_for_tail(cfg.omega2, cfg.beta2, 1e-4).n_max_used

    @pytest.mark.parametrize("field", ["beta1", "beta2", "omega1", "g", "a0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            small_config(**{field: value})

    def test_inverted_gradient_rejected(self):
        with pytest.raises(NoGradientError):
            small_config(beta1=2.0, beta2=1.0, omega1=1.0)

    def test_equal_temperatures_allowed_as_degenerate_engine(self):
        cfg = small_config(beta1=1.0, beta2=1.0, omega1=1.0)
        assert cfg.w_ext == 0.0
        assert cfg.carnot_efficiency == 0.0

    def test_derived_gap(self):
        cfg = small_config(a0=0.3)
        assert abs(cfg.a1 - (0.3 + 1.0)) <= 1e-15

    @pytest.mark.parametrize("cutoffs", [(0, 0), (0, 3), (4, 4), (11, 7)])
    @pytest.mark.parametrize("a0", [0.0, 0.25, -3.7])
    def test_charge_diagonals_equal_the_loop(self, cutoffs, a0):
        cfg = small_config(beta1=0.3, beta2=1.1, omega1=2.9, a0=a0,
                           n_max1=cutoffs[0], n_max2=cutoffs[1])
        total, weighted = loop_diagonals(cfg)
        assert np.array_equal(cfg.total_energy_diagonal(), total)
        assert np.array_equal(cfg.weighted_energy_diagonal(), weighted)

    @settings(max_examples=150, deadline=None)
    @given(beta1=st.floats(0.01, 10.0), ratio=st.floats(1.01, 20.0),
           omega1=st.floats(1e-3, 1e3), a0=st.floats(-1e3, 1e3),
           n_max1=st.integers(0, 9), n_max2=st.integers(0, 9))
    def test_charge_diagonals_equal_the_loop_on_random_configs(self, beta1, ratio, omega1, a0,
                                                               n_max1, n_max2):
        cfg = small_config(beta1=beta1, beta2=beta1 * ratio, omega1=omega1, a0=a0,
                           n_max1=n_max1, n_max2=n_max2)
        total, weighted = loop_diagonals(cfg)
        assert np.array_equal(cfg.total_energy_diagonal(), total)
        assert np.array_equal(cfg.weighted_energy_diagonal(), weighted)

    def test_overflowing_charge_is_inf_without_a_warning(self):
        # n*omega1 + m*omega2 = 1.5e308 and a1 = 1.5e308 are finite, their sum is not
        cfg = small_config(omega1=1e308, a0=1e308, n_max1=1, n_max2=1)
        total, weighted = cfg.charges(1, 1, 1)
        assert total == math.inf and weighted == 1e308
        with pytest.raises(ValueError, match=r"the cycle's largest level energy "
                                             r"n_max1\*omega1 \+ n_max2\*omega2 \+ a1 is inf; "):
            evolve_cycle(cfg)


def loop_diagonals(cfg: CompactEngineConfig) -> tuple[np.ndarray, np.ndarray]:
    """Both charge diagonals written out state by state, in Python floats."""
    total, weighted = np.empty(cfg.dim), np.empty(cfg.dim)
    for n in range(cfg.n_max1 + 1):
        for m in range(cfg.n_max2 + 1):
            for level, a in enumerate((cfg.a0, cfg.a1)):
                k = cfg.basis_index(n, m, level)
                total[k] = n * cfg.omega1 + m * cfg.omega2 + a
                weighted[k] = cfg.beta1 * n * cfg.omega1 + cfg.beta2 * m * cfg.omega2
    return total, weighted


def pair_rows(cfg: CompactEngineConfig) -> np.ndarray:
    """The rows of the member table whose sector has a partner."""
    members = enumerate_blocks(cfg)
    return members[members[:, 1, 0] >= 0]


class TestBlockEnumeration:
    def test_table_shape_and_dtype(self):
        members = enumerate_blocks(small_config(n_max1=4, n_max2=3))
        assert members.shape == (20, 2, 3)
        assert members.dtype.kind == "i"

    def test_exchange_partner_of_interior_sector(self):
        cfg = small_config()
        members = enumerate_blocks(cfg)
        row = members[3 * (cfg.n_max2 + 1) + 2]
        assert row.tolist() == [[3, 2, 0], [2, 3, 1]]
        assert np.array_equal(pair_generator(cfg.g).entries, [[0, cfg.g], [cfg.g, 0]])

    def test_vacuum_sectors_idle(self):
        cfg = small_config()
        members = enumerate_blocks(cfg)
        vacuum = members[members[:, 0, 0] == 0]
        assert len(vacuum) == cfg.n_max2 + 1
        assert np.all(vacuum[:, 1] == -1)
        dense = build_interaction_hamiltonian(cfg).entries
        idx = cfg.basis_index(vacuum[:, 0, 0], vacuum[:, 0, 1], vacuum[:, 0, 2])
        assert not np.any(dense[idx]) and not np.any(dense[:, idx])

    def test_cold_cutoff_sectors_idle(self):
        cfg = small_config()
        members = enumerate_blocks(cfg)
        boundary = members[members[:, 0, 1] == cfg.n_max2]
        assert len(boundary) == cfg.n_max1 + 1
        assert np.all(boundary[:, 1] == -1)

    def test_pairing_is_a_bijection(self):
        cfg = small_config()
        targets = pair_rows(cfg)[:, 1]
        assert len(targets) == cfg.n_max1 * cfg.n_max2
        assert len(np.unique(targets, axis=0)) == len(targets)
        # every target lies inside the cutoffs and is an excited-level state
        assert np.all(targets[:, 0] >= 0) and np.all(targets[:, 1] <= cfg.n_max2)
        assert np.all(targets[:, 2] == 1)

    def test_lexicographic_order(self):
        members = enumerate_blocks(small_config())
        labels = [tuple(row) for row in members[:, 0, :2].tolist()]
        assert labels == sorted(labels) == [(n, m) for n in range(6) for m in range(6)]
        assert np.all(members[:, 0, 2] == 0)

    def test_members_conserve_both_charges(self):
        cfg = small_config(n_max1=4, n_max2=3)
        d_total = cfg.total_energy_diagonal()
        d_weighted = cfg.weighted_energy_diagonal()
        pairs = pair_rows(cfg)
        idx = cfg.basis_index(pairs[..., 0], pairs[..., 1], pairs[..., 2])
        assert np.max(np.abs(d_total[idx[:, 0]] - d_total[idx[:, 1]])) <= 1e-12
        assert np.max(np.abs(d_weighted[idx[:, 0]] - d_weighted[idx[:, 1]])) <= 1e-12

    @pytest.mark.parametrize("g", [0.05, 0.3, 1.7, 0.0])
    def test_blocks_are_dense_submatrices(self, g):
        """A pair row's block is ``pair_generator(g)`` and an idle row's a 1x1
        zero block, each to the bit the dense coupling's submatrix on the row's
        members, and nothing couples a row's members to other states."""
        cfg = small_config(n_max1=4, n_max2=3, g=g)
        dense = build_interaction_hamiltonian(cfg).entries
        for row in enumerate_blocks(cfg).tolist():
            members = [member for member in row if member[0] >= 0]
            idx = [cfg.basis_index(*member) for member in members]
            block = pair_generator(g).entries if len(members) == 2 else np.zeros((1, 1))
            assert np.array_equal(dense[np.ix_(idx, idx)], block)
            assert not np.any(np.delete(dense[idx], idx, axis=1))

    def test_no_hot_quanta_leaves_every_sector_idle(self):
        cfg = small_config(n_max1=0)
        assert enumerate_blocks(cfg).shape == (6, 2, 3)
        assert pair_rows(cfg).size == 0

    def test_single_cold_level_leaves_every_sector_idle(self):
        cfg = small_config(n_max2=0)
        assert pair_rows(cfg).size == 0
        assert enumerate_blocks(cfg)[:, 0].tolist() == [[n, 0, 0] for n in range(6)]

    def test_one_one_cutoffs_have_one_pair(self):
        members = enumerate_blocks(small_config(n_max1=1, n_max2=1))
        assert members.tolist() == [
            [[0, 0, 0], [-1, -1, -1]],
            [[0, 1, 0], [-1, -1, -1]],
            [[1, 0, 0], [0, 1, 1]],
            [[1, 1, 0], [-1, -1, -1]],
        ]


# one config of each engine, cutoffs (3, 2)
SECTOR_CONFIGS = {
    "compact": lambda: small_config(n_max1=3, n_max2=2),
    "optics": lambda: OpticsEngineConfig(beta1=0.5, beta2=1.0, omega1=2.0, g1=0.5, g2=0.5,
                                         delta=20.0, n_max1=3, n_max2=2,
                                         min_detuning_ratio=5.0),
}


class TestCheckSector:
    @pytest.mark.parametrize("kind", SECTOR_CONFIGS)
    def test_every_sector_inside_the_cutoffs_accepted(self, kind):
        cfg = SECTOR_CONFIGS[kind]()
        for n in range(cfg.n_max1 + 1):
            for m in range(cfg.n_max2 + 1):
                assert engine.check_sector(cfg, n, m) is None

    @pytest.mark.parametrize("kind", SECTOR_CONFIGS)
    @pytest.mark.parametrize("n, m", [(-1, 0), (0, -1), (4, 0), (0, 3), (4, 3)])
    def test_one_step_past_an_edge_rejected(self, kind, n, m):
        message = re.escape(f"sector ({n}, {m}) outside the cutoffs")
        with pytest.raises(ValueError, match=f"^{message}$"):
            engine.check_sector(SECTOR_CONFIGS[kind](), n, m)


class TestInteractionHamiltonian:
    def test_no_hot_quanta_gives_zero_operator(self):
        cfg = small_config(n_max1=0)
        h = build_interaction_hamiltonian(cfg)
        assert np.max(np.abs(h.entries)) == 0.0

    def test_single_sector_is_pauli_x_pair(self):
        cfg = small_config(n_max1=1, n_max2=1)
        h = build_interaction_hamiltonian(cfg)
        pairs = pair_rows(cfg)
        assert len(pairs) == 1
        s, t = (cfg.basis_index(*member) for member in pairs[0])
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
            direct = SpectralPropagator(h).at(t)
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
    def test_requires_positive_coupling(self):
        with pytest.raises(ValueError, match=r"coupling g = 0\.0 is outside"):
            evolve_cycle(small_config(g=0.0))

    @pytest.mark.parametrize("g", [1e-320, 1e-170, 1.4e-154, 1.4e154, 1e155, 1e200])
    def test_refuses_a_coupling_whose_square_leaves_the_normal_floats(self, g):
        with pytest.raises(ValueError, match=re.escape(f"coupling g = {g!r} is outside")):
            evolve_cycle(small_config(g=g))

    @pytest.mark.parametrize("g", [1.5e-154, 1.3e154])
    def test_runs_at_the_edges_of_the_coupling_range(self, g):
        report = evolve_cycle(small_config(g=g))
        assert report.times[-1] == report.tau == math.pi / (2 * g)
        np.testing.assert_allclose(report.speed_trace, g, rtol=1e-12)
        assert abs(report.amplitude_trace[-1, 1] - (-1j)) <= 1e-10

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
        assert abs(report.entanglement_trace[mid] - math.log(2)) <= 1e-12

    def test_amplitudes_track_cosine_law(self):
        report = evolve_cycle(small_config())
        assert report.amplitude_residual <= 1e-10

    def test_probability_conservation_per_sector(self):
        report = evolve_cycle(small_config())
        norms = np.sum(np.abs(report.amplitude_trace) ** 2, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_success_weight_against_geometric_oracle(self):
        cfg = small_config(beta1=0.5, beta2=1.0, omega1=2.0, n_max1=40, n_max2=40)
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
        s_ent = report.entanglement_trace
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

    @pytest.mark.parametrize("cutoffs", [(1, 1), (4, 4), (11, 7), (40, 40)])
    def test_bath_energy_moves_by_one_weighted_quantum(self, cutoffs):
        cfg = small_config(g=0.37, n_max1=cutoffs[0], n_max2=cutoffs[1])
        report = evolve_cycle(cfg)
        assert report.times[-1] == cfg.tau
        moved = report.success_weight * np.abs(report.amplitude_trace[-1, 1]) ** 2
        de1 = report.bath1_energy_trace[-1] - report.bath1_energy_trace[0]
        de2 = report.bath2_energy_trace[-1] - report.bath2_energy_trace[0]
        assert de1 == pytest.approx(-cfg.omega1 * moved, rel=1e-12, abs=1e-15)
        assert de2 == pytest.approx(cfg.omega2 * moved, rel=1e-12, abs=1e-15)

    def test_bath_traces_match_the_outer_product_form(self):
        # the (grid x pairs) matrices the two weighted sums replace
        cfg = small_config(g=0.37, n_max1=40, n_max2=40)
        report = evolve_cycle(cfg)
        members = enumerate_blocks(cfg)
        coupled = members[:, 1, 0] >= 0
        pairs, idle = members[coupled], members[~coupled, 0]
        p1 = gibbs_probabilities(cfg.omega1, cfg.beta1, cfg.n_max1)
        p2 = gibbs_probabilities(cfg.omega2, cfg.beta2, cfg.n_max2)
        pair_w = p1[pairs[:, 0, 0]] * p2[pairs[:, 0, 1]]
        idle_w = p1[idle[:, 0]] * p2[idle[:, 1]]
        transfer = np.abs(report.amplitude_trace[:, 1]) ** 2
        for q, omega, trace in ((0, cfg.omega1, report.bath1_energy_trace),
                                (1, cfg.omega2, report.bath2_energy_trace)):
            outer = (np.outer(1.0 - transfer, pairs[:, 0, q])
                     + np.outer(transfer, pairs[:, 1, q])) @ pair_w
            expected = outer * omega + float(idle_w @ idle[:, q]) * omega
            np.testing.assert_allclose(trace, expected, rtol=1e-14, atol=0.0)

    def test_norm_drift_in_a_propagated_row_raises(self, monkeypatch):
        class Drifting(SpectralPropagator):
            def states(self, psi0, times):
                amps = super().states(psi0, times)
                amps[1:] *= 1 + 1e-8  # row 0 stays a valid state
                return amps

        monkeypatch.setattr(engine, "SpectralPropagator", Drifting)
        with pytest.raises(engine.InvariantError,
                           match=r"norm .* at t = .* differs from 1 by > 1e-10"):
            evolve_cycle(small_config())

    def test_degenerate_equal_temperature_cycle(self):
        cfg = small_config(beta1=1.0, beta2=1.0, omega1=1.0)
        report = evolve_cycle(cfg)
        assert report.w_ext == 0.0
        assert report.eta == 0.0
        assert report.q1 > 0.0


def loop_cycle(cfg: CompactEngineConfig, times: np.ndarray) -> dict:
    """Every CycleReport field and property, from a state-by-state loop over the grid.

    The reference for ``evolve_cycle``: one validated StateVector and
    DensityMatrix per sample, the linalg entropy, spread and distance
    helpers, sector data indexed through the dense energy diagonals, and
    bath energies from the pairing rule n -> n - 1, m -> m + 1.
    """
    tau_index = int(np.flatnonzero(np.isclose(times, cfg.tau, rtol=1e-9, atol=0.0))[0])
    sectors = [(n, m) for n in range(cfg.n_max1 + 1) for m in range(cfg.n_max2 + 1)]
    pairs = [(n, m) for n, m in sectors if n >= 1 and m < cfg.n_max2]
    idle = [(n, m) for n, m in sectors if not (n >= 1 and m < cfg.n_max2)]
    p1 = gibbs_probabilities(cfg.omega1, cfg.beta1, cfg.n_max1)
    p2 = gibbs_probabilities(cfg.omega2, cfg.beta2, cfg.n_max2)
    pair_n = np.array([n for n, _ in pairs], dtype=int)
    pair_m = np.array([m for _, m in pairs], dtype=int)
    pair_w = p1[pair_n] * p2[pair_m]
    idle_n = np.array([n for n, _ in idle], dtype=int)
    idle_m = np.array([m for _, m in idle], dtype=int)
    idle_w = p1[idle_n] * p2[idle_m]
    success_weight = float(pair_w.sum())

    gen2 = pair_generator(cfg.g)
    amps = SpectralPropagator(gen2).states(basis_state(2, 0), times)
    transfer = np.abs(amps[:, 1]) ** 2
    ideal = np.stack([np.cos(cfg.g * times), -1j * np.sin(cfg.g * times)], axis=1)

    entanglement = np.empty_like(times)
    speed = np.empty_like(times)
    fs_dist = np.empty_like(times)
    psi0 = StateVector(amps[0])
    for k in range(times.size):
        psi = StateVector(amps[k])
        pr = np.clip(np.array([1.0 - transfer[k], transfer[k]]), 0.0, 1.0)
        pr = pr / pr.sum()
        entanglement[k] = von_neumann_entropy(DensityMatrix(np.diag(pr.astype(np.complex128))))
        speed[k] = energy_uncertainty(gen2, psi)
        fs_dist[k] = fubini_study_distance(psi0, psi)

    pop_excited = success_weight * transfer
    population_trace = np.stack([1.0 - pop_excited, pop_excited], axis=1)
    bath1 = (((1.0 - transfer) * (pair_n @ pair_w) + transfer * ((pair_n - 1) @ pair_w))
             * cfg.omega1 + float(idle_w @ idle_n) * cfg.omega1)
    bath2 = (((1.0 - transfer) * (pair_m @ pair_w) + transfer * ((pair_m + 1) @ pair_w))
             * cfg.omega2 + float(idle_w @ idle_m) * cfg.omega2)

    d_total = cfg.total_energy_diagonal()
    d_weighted = cfg.weighted_energy_diagonal()
    gap_total = gap_weighted = 0.0
    for n, m in pairs:
        src, tgt = cfg.basis_index(n, m, 0), cfg.basis_index(n - 1, m + 1, 1)
        gap_total = max(gap_total, abs(d_total[src] - d_total[tgt]))
        gap_weighted = max(gap_weighted, abs(d_weighted[src] - d_weighted[tgt]))
    residual_energy = np.abs(amps[:, 1]) * gap_total
    residual_weighted = np.abs(amps[:, 1]) * gap_weighted

    ps_tau = float(transfer[tau_index])
    q1, q2 = (cfg.omega1 * ps_tau, -cfg.omega2 * ps_tau) if pairs else (0.0, 0.0)
    return {
        "beta1": cfg.beta1, "beta2": cfg.beta2, "omega1": cfg.omega1, "omega2": cfg.omega2,
        "g": cfg.g, "w_ext": cfg.w_ext, "q1": q1, "q2": q2,
        "q1_ensemble": success_weight * q1, "q2_ensemble": success_weight * q2,
        "eta": cfg.w_ext / q1 if q1 > 0 else 0.0,
        "tau": cfg.tau, "power": cfg.w_ext / cfg.tau,
        "clausius_residual": abs(cfg.beta1 * q1 + cfg.beta2 * q2),
        "commutator_residual_energy": float(np.max(residual_energy)),
        "commutator_residual_weighted": float(np.max(residual_weighted)),
        "amplitude_residual": float(np.max(np.abs(amps - ideal))) if pairs else 0.0,
        "success_weight": success_weight,
        "vacuum_weight": float(p1[0]),
        "boundary_weight": float((1.0 - p1[0]) * p2[cfg.n_max2]),
        "partition_function1": 1.0 / (1.0 - math.exp(-cfg.beta1 * cfg.omega1)),
        "partition_function2": 1.0 / (1.0 - math.exp(-cfg.beta2 * cfg.omega2)),
        "times": times,
        "population_trace": population_trace,
        "entanglement_trace": entanglement,
        "speed_trace": speed,
        "fs_distance_trace": fs_dist,
        "amplitude_trace": amps,
        "bath1_energy_trace": bath1,
        "bath2_energy_trace": bath2,
        "residual_energy_trace": residual_energy,
        "residual_weighted_trace": residual_weighted,
        "final_system_populations": population_trace[tau_index],
    }


class TestCycleAgainstLoopOracle:
    #: the quantities CycleReport computes from its fields rather than stores
    PROPERTIES = ("q1_ensemble", "q2_ensemble", "eta", "power", "clausius_residual",
                  "commutator_residual_energy", "commutator_residual_weighted",
                  "partition_function1", "partition_function2")

    @pytest.mark.parametrize("cutoffs", [(0, 3), (4, 4), (11, 7), (40, 40)])
    def test_every_field_equals_the_loop(self, cutoffs):
        cfg = small_config(g=0.37, a0=0.25, n_max1=cutoffs[0], n_max2=cutoffs[1])
        report = evolve_cycle(cfg)
        expected = loop_cycle(cfg, np.linspace(0.0, cfg.tau, engine.DEFAULT_GRID_POINTS))
        names = [field.name for field in dataclasses.fields(CycleReport)] + list(self.PROPERTIES)
        assert set(names) == set(expected)
        for name in names:
            assert np.array_equal(getattr(report, name), expected[name]), name


class TestClausius:
    def test_cycle_report_residual(self):
        report = evolve_cycle(small_config())
        assert report.clausius_residual <= 1e-9

    def test_zero_heat_report(self):
        report = evolve_cycle(small_config())
        silent = dataclasses.replace(report, q1=0.0, q2=0.0)
        assert silent.clausius_residual == 0.0

    def test_single_quantum_exchange_balances(self):
        report = evolve_cycle(small_config())
        ideal = dataclasses.replace(report, q1=report.omega1, q2=-report.omega2)
        assert ideal.clausius_residual <= 1e-12

    def test_detuned_cold_frequency_shows_up_linearly(self):
        report = evolve_cycle(small_config())
        detuned = dataclasses.replace(report, q2=-report.omega2 * (1 + 1e-3))
        expected = report.beta2 * report.omega2 * 1e-3
        assert abs(detuned.clausius_residual - expected) <= 1e-12


class TestEfficiencyAndPower:
    def test_reference_point(self):
        cfg = CompactEngineConfig(beta1=1.0, beta2=2.0, omega1=2.0, g=0.2, n_max1=6, n_max2=6)
        report = evolve_cycle(cfg)
        assert abs(report.w_ext - 1.0) <= 1e-12
        assert abs(report.q1 - 2.0) <= 1e-9
        assert abs(report.eta - 0.5) <= 1e-9
        assert abs(report.eta - (1 - cfg.beta1 / cfg.beta2)) <= 1e-9

    def test_unit_time_cycle(self):
        g = math.pi / 2
        cfg = small_config(g=g)
        report = evolve_cycle(cfg)
        assert abs(report.tau - 1.0) <= 1e-12
        assert abs(report.power - report.w_ext) <= 1e-12

    def test_power_formula(self):
        report = evolve_cycle(small_config())
        assert abs(report.power - 2 * report.g * report.w_ext / math.pi) <= 1e-12

    def test_cycle_without_hot_heat_has_zero_efficiency(self):
        report = evolve_cycle(small_config())
        broken = dataclasses.replace(report, q1=0.0, q2=0.0)
        assert broken.eta == 0.0
        assert broken.power == report.power

    def test_equal_temperatures_give_zero_efficiency(self):
        cfg = small_config(beta1=1.0, beta2=1.0, omega1=1.0)
        assert evolve_cycle(cfg).eta == 0.0


def assert_cycle_invariants(report: CycleReport):
    """The paper's claims for one cycle, at the tolerances the report checks use."""
    assert abs(report.eta - (1 - report.beta1 / report.beta2)) <= 1e-9
    assert abs(report.power - 2 * report.g * report.w_ext / math.pi) <= 1e-10
    assert report.clausius_residual <= 1e-9
    assert report.commutator_residual_energy <= 1e-10
    assert report.commutator_residual_weighted <= 1e-10
    assert report.amplitude_residual <= 1e-10
    hot = report.beta1 * report.omega1
    assert abs(hot - report.beta2 * report.omega2) <= 1e-12 * hot


free_parameters = dict(
    beta2=st.floats(0.2, 3.0), ratio=st.floats(0.05, 0.95), omega1=st.floats(0.2, 5.0),
    n_max1=st.integers(1, 12), n_max2=st.integers(1, 12),
)


class TestCycleProperties:
    """Every config drawn from the free parameters alone satisfies the cycle claims."""

    @given(g=st.floats(0.01, 2.0), a0=st.floats(-3.0, 3.0), **free_parameters)
    @settings(max_examples=40, deadline=None)
    def test_exchange_engine(self, beta2, ratio, omega1, g, n_max1, n_max2, a0):
        cfg = CompactEngineConfig(beta1=ratio * beta2, beta2=beta2, omega1=omega1, g=g,
                                  n_max1=n_max1, n_max2=n_max2, a0=a0)
        assert_cycle_invariants(evolve_cycle(cfg))

    @given(leg=st.floats(0.05, 2.0), detuning_ratio=st.floats(20.0, 200.0), **free_parameters)
    @settings(max_examples=40, deadline=None)
    def test_cavity_engine(self, beta2, ratio, omega1, leg, detuning_ratio, n_max1, n_max2):
        # one step up from the rounded product keeps delta / leg >= detuning_ratio,
        # so the drawn ratio 20.0 meets the configured minimum instead of rounding below it
        delta = math.nextafter(detuning_ratio * leg, math.inf)
        cfg = OpticsEngineConfig(beta1=ratio * beta2, beta2=beta2, omega1=omega1, g1=leg,
                                 g2=leg, delta=delta,
                                 n_max1=n_max1, n_max2=n_max2)
        assert_cycle_invariants(run_optics_cycle(cfg))


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
        s = report.fs_distance_trace
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
