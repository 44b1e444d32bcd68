import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, taylor_evolution
from sltosim import cli, engine, optics
from sltosim.engine import (
    CompactEngineConfig,
    InvariantError,
    check_unit_sum,
    enumerate_blocks,
    evolve_cycle,
)
from sltosim.linalg import (
    DensityMatrix,
    Operator,
    ShapeError,
    SpectralPropagator,
    basis_state,
    commutator_norm,
    group_populations,
)
from sltosim.optics import (
    MAX_SAMPLES,
    OpticsEngineConfig,
    SweepPoint,
    adiabatic_elimination_error,
    build_effective_hamiltonian,
    CouplingProfile,
    build_full_hamiltonian,
    effective_compact_config,
    full_charge_blocks,
    inverse_intensity_profile,
    run_optics_cycle,
    sweep_slopes,
    uniform_exchange_profile,
)
from sltosim.thermal import gibbs_probabilities, truncation_for_tail


def small_optics(**overrides) -> OpticsEngineConfig:
    params = dict(beta1=0.5, beta2=1.0, omega1=2.0, g1=0.5, g2=0.5,
                  delta=20.0, n_max1=4, n_max2=4, min_detuning_ratio=5.0)
    params.update(overrides)
    return OpticsEngineConfig(**params)


def full_block(cfg: OpticsEngineConfig, profile, n: int, m: int):
    """Members of sector (n, m) and its ``build_full_hamiltonian`` block at the
    config's detuning, a stack of one."""
    return full_charge_blocks(cfg, n, m, profile, np.array([cfg.delta]))


class TestConfig:
    def test_equal_temperatures_rejected(self):
        with pytest.raises(ValueError):
            small_optics(beta1=1.0, beta2=1.0)

    def test_resonances_hold_by_construction(self):
        cfg = small_optics(beta1=4.0, beta2=35.0, omega1=2242.0)
        assert cfg.omega2 == 4.0 * 2242.0 / 35.0
        assert abs(cfg.beta1 * cfg.omega1 - cfg.beta2 * cfg.omega2) <= 1e-12 * cfg.beta1 * cfg.omega1
        assert cfg.omega0 == cfg.omega1 - cfg.omega2
        compact = effective_compact_config(cfg)
        assert (compact.omega2, compact.w_ext) == (cfg.omega2, cfg.omega0)

    def test_derived_cold_frequency_must_stay_below_hot(self):
        # beta1 one ulp below beta2: the rounded omega2 is not below omega1
        beta1 = math.nextafter(1.58, 0.0)
        assert beta1 * 2.08 / 1.58 == 2.08
        with pytest.raises(ValueError, match="derived omega2"):
            small_optics(beta1=beta1, beta2=1.58, omega1=2.08)

    def test_cutoffs_at_least_one(self):
        with pytest.raises(ValueError, match="n_max2 must be >= 1, got 0"):
            small_optics(n_max2=0)

    def test_missing_cutoffs_come_from_the_tail(self):
        cfg = small_optics(n_max1=None, n_max2=None, tail_delta=1e-4)
        assert cfg.n_max1 == truncation_for_tail(cfg.omega1, cfg.beta1, 1e-4).n_max_used
        assert cfg.n_max2 == truncation_for_tail(cfg.omega2, cfg.beta2, 1e-4).n_max_used

    @pytest.mark.parametrize("field", ["beta1", "beta2", "omega1", "g1", "g2", "delta",
                                       "min_detuning_ratio"])
    def test_non_finite_inputs_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            small_optics(**{field: math.nan})

    def test_detuning_ratio_floor(self):
        with pytest.raises(ValueError):
            small_optics(min_detuning_ratio=20.0, delta=5.0)

    def test_equal_temperatures_refused_as_no_gradient(self):
        # the rounded omega2 lies above omega1, which the effective engine would
        # refuse by its level a1, a field the caller never gave
        assert 3.0 * 0.1 / 3.0 > 0.1
        with pytest.raises(ValueError, match=r"^need beta1 < beta2"):
            small_optics(beta1=3.0, beta2=3.0, omega1=0.1)

    @pytest.mark.parametrize("fault", [
        {"beta1": math.nan}, {"beta2": math.nan}, {"omega1": math.nan},
        {"beta1": math.inf}, {"beta2": math.inf}, {"omega1": math.inf},
        {"tail_delta": 0.0}, {"tail_delta": 2.0},
        {"beta1": -0.5}, {"beta2": 0.0}, {"omega1": -2.0},
        {"beta1": 1e-17, "omega1": 1.0},  # beta*omega = 1e-17 has no finite cutoff
        {"n_max1": 2_000_000},  # the sector cap
    ], ids=lambda fault: ",".join(f"{k}={v}" for k, v in fault.items()))
    def test_ladder_faults_refused_as_the_effective_engine_refuses_them(self, fault):
        ladders = {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0, "n_max1": 4, "n_max2": 4, **fault}
        with pytest.raises(ValueError) as compact:
            CompactEngineConfig(g=0.0125, **ladders)
        with pytest.raises(ValueError) as cavity:
            small_optics(**ladders)
        assert str(cavity.value) == str(compact.value)

    def test_effective_engine_built_once(self, monkeypatch):
        cfg = small_optics()
        built = []
        post_init = CompactEngineConfig.__post_init__

        def counted(compact):
            built.append(compact)
            post_init(compact)

        monkeypatch.setattr(CompactEngineConfig, "__post_init__", counted)
        run_optics_cycle(cfg)
        assert built == []
        assert effective_compact_config(cfg) is effective_compact_config(cfg)

    def test_derived_quantities(self):
        cfg = small_optics()
        assert abs(cfg.omega0 - 1.0) <= 1e-15
        assert abs(cfg.delta - 20.0) <= 1e-12
        assert abs(cfg.g - cfg.g1 * cfg.g2 / cfg.delta) <= 1e-15


class TestCouplingProfile:
    def test_vacuum_regularization_enforced(self):
        cfg = small_optics()
        theta = np.ones((cfg.n_max1 + 1))
        with pytest.raises(ValueError):
            CouplingProfile(theta, np.ones((cfg.n_max2 + 1)))

    def test_shift_rule_derived_from_theta(self):
        # f1(n) + f2(0) is the diagonal of the block of |n, 0, 1>, and f2(0) = 0
        cfg = small_optics()
        prof = inverse_intensity_profile(cfg)
        f1 = [full_block(cfg, prof, n, 0)[1][0, 0, 0].real for n in range(cfg.n_max1 + 1)]
        n = np.arange(1, (cfg.n_max1 + 1), dtype=float)
        assert np.max(np.abs(f1[1:] - (cfg.g1**2 / cfg.delta) / n)) <= 1e-15
        assert f1[0] == 0.0

    def test_table_length_checked(self):
        cfg = small_optics()
        with pytest.raises(ShapeError):
            full_block(cfg, CouplingProfile(np.zeros(3), np.zeros((cfg.n_max2 + 1))), 1, 0)

    def test_uniform_profile_elements(self):
        cfg = small_optics()
        prof = uniform_exchange_profile(cfg)
        # transition element theta(n-1) sqrt(n) is 1 everywhere above the
        # regularized lowest step
        for n in range(2, (cfg.n_max1 + 1)):
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
        d2 = (cfg.n_max2 + 1)
        col = (0 * d2 + 2) * 3 + 0  # |0, 2, atom 1>
        column = h.entries[:, col].copy()
        column[col] = 0.0
        assert np.max(np.abs(column)) == 0.0

    def test_matrix_element_convention(self):
        # <n-1, m, 3| H |n, m, 1> = g1 theta1(n-1) sqrt(n)
        cfg = small_optics()
        h = build_full_hamiltonian(cfg, inverse_intensity_profile(cfg))
        d2 = (cfg.n_max2 + 1)

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
        d2 = (cfg.n_max2 + 1)
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
        d2 = (cfg.n_max2 + 1)

        def idx(n, m, atom):
            return (n * d2 + m) * 2 + atom

        assert abs(h.entries[idx(0, 1, 1), idx(1, 0, 0)] - cfg.g) <= 1e-15
        assert abs(h.entries[idx(1, 0, 0), idx(0, 1, 1)] - cfg.g) <= 1e-15

    def test_vacuum_sectors_uncoupled(self):
        cfg = small_optics()
        h = build_effective_hamiltonian(cfg)
        d2 = (cfg.n_max2 + 1)
        for m in range((cfg.n_max2 + 1)):
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
        cfg = OpticsEngineConfig(beta1=0.5, beta2=1.0, omega1=2.0,
                                 g1=2.0, g2=2.0, delta=80.0)
        report = run_optics_cycle(cfg)
        corrected = report.corrected_final_populations
        z1 = report.partition_function1
        assert abs(corrected[0] - 1.0 / z1) <= 1e-6
        assert abs(corrected[1] - (1.0 - 1.0 / z1)) <= 1e-6

    def test_hot_limit_excites_almost_surely(self):
        # beta1 -> 0 keeps barely any weight in the hot vacuum
        cfg = OpticsEngineConfig(beta1=0.05, beta2=1.0, omega1=2.0,
                                 g1=2.0, g2=2.0, delta=80.0,
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
        rho1 = np.diag(gibbs_probabilities(cfg.omega1, cfg.beta1, cfg.n_max1))
        rho2 = np.diag(gibbs_probabilities(cfg.omega2, cfg.beta2, cfg.n_max2))
        atom = np.zeros((2, 2), dtype=complex)
        atom[0, 0] = 1.0
        joint = np.kron(np.kron(rho1, rho2), atom)
        u = SpectralPropagator(build_effective_hamiltonian(cfg)).at(cfg.tau).entries
        final = DensityMatrix(u @ joint @ u.conj().T)
        baths = (cfg.n_max1 + 1) * (cfg.n_max2 + 1)
        rho_s = np.einsum("iaib->ab", final.entries.reshape(baths, 2, baths, 2))
        off_diag = abs(rho_s[0, 1])
        assert off_diag <= 1e-10
        assert np.max(np.abs(np.real(np.diagonal(rho_s))
                             - report.final_system_populations)) <= 1e-10
        assert compact.dim == (cfg.n_max1 + 1) * (cfg.n_max2 + 1) * 2

    def test_agreement_with_ladder_engine(self):
        cfg = small_optics()
        optics_report = run_optics_cycle(cfg)
        ladder = CompactEngineConfig(
            beta1=cfg.beta1, beta2=cfg.beta2, omega1=cfg.omega1,
            g=cfg.g, n_max1=cfg.n_max1, n_max2=cfg.n_max2,
        )
        ladder_report = evolve_cycle(ladder)
        assert abs(optics_report.eta - ladder_report.eta) <= 1e-10
        assert abs(optics_report.tau - ladder_report.tau) <= 1e-10
        assert abs(optics_report.power - ladder_report.power) <= 1e-10

    def test_work_gap_is_mode_frequency_difference(self):
        report = run_optics_cycle(small_optics())
        assert abs(report.w_ext - 1.0) <= 1e-12


class TestAdiabaticElimination:
    def test_ratio_floor_read_from_the_config(self):
        cfg = small_optics(min_detuning_ratio=8.0)
        # g1 = g2 = 0.5: the detuning 3 is at ratio 6
        with pytest.raises(ValueError, match=r"^detuning 3\.0 gives ratio 6\.00 < 8; "):
            adiabatic_elimination_error(cfg, uniform_exchange_profile(cfg), [3.0, 20.0])

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

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.floats(0.01, 10.0))
    @example(0.22468215560642968)  # 5*g/g rounds below 5 here
    def test_detuning_formed_at_the_floor_is_accepted(self, g):
        cfg = small_optics(g1=g, g2=g, delta=5.0 * g, min_detuning_ratio=5.0)
        points = adiabatic_elimination_error(cfg, uniform_exchange_profile(cfg),
                                             [5.0 * g, 9.0 * g])
        assert [p.delta for p in points] == [5.0 * g, 9.0 * g]

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
        with pytest.raises(ValueError, match=r"sector \(9, 0\) outside the cutoffs"):
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


def sweep_points(deltas, deviations, leaks) -> list[SweepPoint]:
    return [SweepPoint(delta=d, ratio=d, population_deviation=y, leak_max=z, samples=2001,
                       samples_per_period=8.0)
            for d, y, z in zip(deltas, deviations, leaks, strict=True)]


#: 2-8 distinct detunings 0.1 * 1.1^k, at least log(1.1) apart, and a positive series
#: of the same length
detunings_and_series = st.lists(st.integers(0, 120), min_size=2, max_size=8,
                                unique=True).flatmap(lambda ks: st.tuples(
    st.just([0.1 * 1.1**k for k in ks]),
    st.lists(st.floats(1e-12, 1e3), min_size=len(ks), max_size=len(ks))))


class TestSweepSlopes:
    @settings(max_examples=300, deadline=None)
    @given(detunings_and_series)
    def test_closed_form_matches_polyfit(self, case):
        """The slope matches np.polyfit's within 1e-12 relative, or, for a slope
        that cancels to near 0, within max|y| / sqrt(sum dx^2) * 1e-12: about what
        changing the logs y by one part in 10^12 can move a slope by."""
        deltas, values = case
        x = np.log(deltas)
        slopes = sweep_slopes(sweep_points(deltas, values, values[::-1]))
        for slope, series in zip(slopes, (values, values[::-1]), strict=True):
            y = np.log(series)
            reference = float(np.polyfit(x, y, 1)[0])
            tol = 1e-12 * max(abs(reference),
                              np.max(np.abs(y)) / math.sqrt(np.sum((x - x.mean()) ** 2)))
            assert abs(slope - reference) <= tol

    @settings(max_examples=100, deadline=None)
    @given(detunings_and_series, st.data())
    def test_non_positive_entry_has_no_slope(self, case, data):
        deltas, values = case
        at = data.draw(st.integers(0, len(values) - 1))
        values[at] = data.draw(st.sampled_from([0.0, -0.0, -1e-300, -0.5]))
        dev_slope, leak_slope = sweep_slopes(sweep_points(deltas, values, [1.0] * len(values)))
        assert dev_slope is None
        assert leak_slope == 0.0

    @pytest.mark.parametrize("deltas", [[20.0, 20.0], [9.0, 9.0, 9.0]])
    def test_equal_detunings_have_no_slope(self, deltas):
        points = sweep_points(deltas, [0.1] * len(deltas), [0.01] * len(deltas))
        with pytest.raises(ValueError, match="need at least two distinct detunings"):
            sweep_slopes(points)


class TestChargeBlockOracle:
    """The <= 3-state charge blocks against the dense builders."""

    @staticmethod
    def assert_block_of(dense: np.ndarray, members, h: np.ndarray, n_levels: int, d2: int):
        idx = [(n * d2 + m) * n_levels + level for n, m, level in members]
        assert members[0][2] == 0
        assert np.array_equal(h, dense[np.ix_(idx, idx)])
        outside = np.delete(dense[idx], idx, axis=1)
        assert not np.any(outside)

    @pytest.mark.parametrize("cutoffs", [(4, 4), (6, 5)])
    @pytest.mark.parametrize("make_profile", [uniform_exchange_profile,
                                              inverse_intensity_profile])
    def test_blocks_are_dense_submatrices(self, cutoffs, make_profile):
        cfg = small_optics(n_max1=cutoffs[0], n_max2=cutoffs[1])
        full = build_full_hamiltonian(cfg, make_profile(cfg)).entries
        eff = build_effective_hamiltonian(cfg).entries
        d2 = (cfg.n_max2 + 1)
        for n in range((cfg.n_max1 + 1)):
            for m in range(d2):
                members, h = full_block(cfg, make_profile(cfg), n, m)
                self.assert_block_of(full, members, h[0], 3, d2)
                assert len(members) == (1 if n == 0 else 2 if m == cfg.n_max2 else 3)
                # the sweep's effective rule: members 0 and 2 of a block of three
                # pair up, every other member is idle, and none couples outside
                pair = [member for member in members if member[2] < 2]
                block = np.zeros((len(pair), len(pair)))
                if len(members) == 3:
                    block[0, 1] = block[1, 0] = cfg.g
                self.assert_block_of(eff, pair, block, 2, d2)

    @pytest.mark.parametrize("make_profile", [uniform_exchange_profile,
                                              inverse_intensity_profile])
    def test_stack_rows_are_their_own_dense_submatrices(self, make_profile):
        """A stack of distinct detunings, with the per-detuning rule f tables:
        row r of every sector's full stack is, to the bit, the block of the
        dense builder at detuning r."""
        deltas = np.array([10.0, 17.3, 80.0])
        configs = [small_optics(delta=delta) for delta in deltas]
        profile = make_profile(configs[0])
        # the rows' shift tables do differ: f1(1) + f2(0) is the block of |1, 0, 1>
        shifts = full_charge_blocks(configs[0], 1, 0, profile, deltas)[1][:, 0, 0]
        assert len(set(shifts.tolist())) == len(deltas)
        dense = [build_full_hamiltonian(cfg_d, profile).entries for cfg_d in configs]
        cfg, d2 = configs[0], configs[0].n_max2 + 1
        for n in range(cfg.n_max1 + 1):
            for m in range(d2):
                members, h = full_charge_blocks(cfg, n, m, profile, deltas)
                assert h.shape[0] == len(deltas)
                for r, full in enumerate(dense):
                    self.assert_block_of(full, members, h[r], 3, d2)

    @pytest.mark.parametrize("block", [(3, 1), (2, 4), (0, 0)])
    def test_sweep_stacks_the_per_detuning_blocks(self, monkeypatch, block):
        """The one stack the sweep diagonalizes is exactly its R full blocks:
        row r is, to the bit, the stack of one built from the config at
        detuning r and the same profile.  No effective block is in it."""
        stacks = []

        def record_eigh(h, eigh=np.linalg.eigh):
            stacks.append(h.copy())
            return eigh(h)

        monkeypatch.setattr(np.linalg, "eigh", record_eigh)
        cfg = small_optics()
        profile = inverse_intensity_profile(cfg)
        deltas = [10.0, 17.3, 80.0]
        adiabatic_elimination_error(cfg, profile, deltas, initial_block=block)
        (stack,) = stacks
        expected = np.concatenate([full_block(small_optics(delta=delta), profile, *block)[1]
                                   for delta in deltas])
        assert stack.shape == expected.shape
        assert np.array_equal(stack, expected)

    def test_one_sweep_makes_one_eigh_and_one_grid_pass(self, monkeypatch):
        calls = []

        def counted(name, function):
            def wrapped(*args):
                calls.append(name)
                return function(*args)
            return wrapped

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(optics, "group_populations",
                            counted("group_populations", group_populations))
        cfg = small_optics()
        points = adiabatic_elimination_error(cfg, uniform_exchange_profile(cfg),
                                             [10.0, 14.0, 20.0, 40.0])
        assert len(points) == 4
        assert sorted(calls) == ["eigh", "group_populations"]

    def test_sector_outside_cutoffs_rejected(self):
        cfg = small_optics()
        with pytest.raises(ValueError, match=r"sector \(5, 0\) outside the cutoffs"):
            full_block(cfg, uniform_exchange_profile(cfg), 5, 0)

    @pytest.mark.parametrize("n, m", [(-1, 0), (0, -1), (5, 0), (0, 5)])
    def test_every_caller_names_the_sector_alike(self, n, m):
        cfg = small_optics()
        profile = uniform_exchange_profile(cfg)
        calls = [
            lambda: full_block(cfg, profile, n, m),
            lambda: adiabatic_elimination_error(cfg, profile, [20.0], initial_block=(n, m)),
        ]
        messages = set()
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            messages.add(str(err.value))
        assert messages == {f"sector {(n, m)} outside the cutoffs"}

    @staticmethod
    def dense_level_populations(h, n0, m0, times, d1, d2, n_levels, chunk=8192):
        psi0 = basis_state(d1 * d2 * n_levels, (n0 * d2 + m0) * n_levels)
        prop = SpectralPropagator(h)
        out = []
        for start in range(0, len(times), chunk):  # bounds the (samples x dim) amplitudes
            amps = prop.states(psi0, times[start:start + chunk])
            out.append((np.abs(amps.reshape(-1, d1, d2, n_levels)) ** 2).sum(axis=(1, 2)))
        return np.concatenate(out)

    # balanced, generic, vacuum, dead lowest leg, no |n-1, m+1, 2> member
    @pytest.mark.parametrize("block", [(3, 2), (3, 1), (0, 0), (1, 2), (2, 4)])
    @pytest.mark.parametrize("make_profile", [uniform_exchange_profile,
                                              inverse_intensity_profile])
    def test_sweep_matches_dense_propagation(self, block, make_profile):
        population_gap, leak_gap = self.sweep_against_dense(block, make_profile)
        assert population_gap <= 1e-10 and leak_gap <= 1e-10

    def test_half_speed_exchange_fails_the_cycle_and_the_sweep(self, monkeypatch):
        """The pair's closed form is one function that both the cycle's
        ``amplitudes`` check and the sweep's effective model read: at half
        speed the check fails, and the sweep parts from the dense oracle."""
        exchange = engine.exchange_amplitudes
        assert optics.exchange_amplitudes is exchange
        for module in (engine, optics):
            monkeypatch.setattr(module, "exchange_amplitudes",
                                lambda g, times: exchange(g / 2, times))
        report = evolve_cycle(CompactEngineConfig(0.5, 1.0, 2.0, 0.1, 3, 3))
        assert not cli._cycle_checks(report)["amplitudes"]["passed"]
        population_gap, leak_gap = self.sweep_against_dense((3, 1), uniform_exchange_profile)
        assert population_gap > 0.1 and leak_gap <= 1e-10

    def sweep_against_dense(self, block, make_profile) -> tuple[float, float]:
        """The largest gaps between the sweep's population deviations and leaks
        and those of dense propagation under both dense builders."""
        cfg = small_optics()
        # ratios 20, 50 and 160; at 160, tau is about 500 and phases reach about 4e4 rad
        deltas = [10.0, 25.0, 80.0]
        points = adiabatic_elimination_error(cfg, make_profile(cfg), deltas,
                                             initial_block=block)
        d1, d2 = (cfg.n_max1 + 1), (cfg.n_max2 + 1)
        population_gap = leak_gap = 0.0
        for delta, point in zip(deltas, points):
            cfg_d = small_optics(delta=delta)
            periods = cfg_d.tau * (delta + 4.0 * max(cfg.g1, cfg.g2)) / (2.0 * math.pi)
            assert point.samples == min(MAX_SAMPLES, max(2001, math.ceil(8 * periods)))
            times = np.linspace(0.0, cfg_d.tau, point.samples)
            full = self.dense_level_populations(
                build_full_hamiltonian(cfg_d, make_profile(cfg_d)), *block, times, d1, d2, 3
            )
            eff = self.dense_level_populations(
                build_effective_hamiltonian(cfg_d), *block, times, d1, d2, 2
            )
            deviation = np.max(np.abs(full[:, :2] - eff))
            population_gap = max(population_gap, abs(point.population_deviation - deviation))
            leak_gap = max(leak_gap, abs(point.leak_max - np.max(full[:, 2])))
        return population_gap, leak_gap


class TestLevelPopulations:
    """``linalg.group_populations`` on stacked block eigenpairs against |probe
    amplitudes|^2 summed per level."""

    @staticmethod
    def reference(members, h: np.ndarray, times, n_levels: int) -> np.ndarray:
        """|probe amplitudes|^2 from ``SpectralPropagator.states``, summed per level."""
        propagator = SpectralPropagator(Operator(h, hermitian_hint=True))
        probs = np.abs(propagator.states(basis_state(len(members), 0), times)) ** 2
        out = np.zeros((len(times), n_levels))
        for k, (_, _, level) in enumerate(members):
            out[:, level] += probs[:, k]
        return out

    def assert_matches(self, members, h: np.ndarray, windows, n_samples, n_levels: int):
        """Every row of the stack ``h`` over its own uniform grid, from one
        stacked ``eigh``, summing to 1 and matching the reference."""
        levels = [level for _, _, level in members]
        out = group_populations(*np.linalg.eigh(h), levels, n_levels, windows, n_samples)
        for pops, row, window, n in zip(out, h, windows, n_samples, strict=True):
            assert pops.shape == (n, n_levels)
            check_unit_sum(pops, window, "reference block")
            np.testing.assert_allclose(
                pops, self.reference(members, row, np.linspace(0.0, window, n), n_levels),
                rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("sector", [(0, 2), (3, 1)])  # idle 1x1, coupled 2x2 pair
    def test_effective_blocks(self, sector):
        # two couplings, each row over its own grid: the dense effective
        # Hamiltonian's submatrices on the sector's members at two detunings
        configs = [small_optics(), small_optics(delta=54.0)]
        cfg = effective_compact_config(configs[0])
        row = enumerate_blocks(cfg)[sector[0] * (cfg.n_max2 + 1) + sector[1]].tolist()
        members = [member for member in row if member[0] >= 0]
        idx = [cfg.basis_index(*member) for member in members]
        h = np.stack([build_effective_hamiltonian(c).entries[np.ix_(idx, idx)]
                      for c in configs])
        assert len(members) == (1 if sector == (0, 2) else 2)
        self.assert_matches(members, h, [1.7 * cfg.tau, 4.1 * cfg.tau], [401, 257], 2)

    @pytest.mark.parametrize("cutoff", range(1, 7))
    @pytest.mark.parametrize("make_profile", [uniform_exchange_profile,
                                              inverse_intensity_profile])
    def test_every_full_block(self, cutoff, make_profile):
        cfg = small_optics(n_max1=cutoff, n_max2=cutoff, delta=12.0)
        profile = make_profile(cfg)
        for n in range(cutoff + 1):
            for m in range(cutoff + 1):
                self.assert_matches(*full_block(cfg, profile, n, m), [cfg.tau], [501], 3)

    def test_complex_hermitian_block_takes_the_sine_terms(self):
        h = random_hermitian(3, np.random.default_rng(15))
        assert np.any(np.linalg.eigh(h)[1].imag)  # complex coefficients
        self.assert_matches(((2, 1, 0), (1, 1, 2), (1, 2, 1)), h[None], [9.0], [301], 3)

    # sample counts: anywhere in 1..20000, and the edges of the grid split
    # (1, 2, perfect squares and their neighbours)
    N_SAMPLES = st.one_of(
        st.integers(1, 20_000),
        st.sampled_from([1, 2, 3, 4, 5, 19_999, 20_000]),
        st.integers(1, 141).flatmap(lambda s: st.sampled_from([s * s - 1, s * s, s * s + 1]))
        .filter(lambda n: 1 <= n <= 20_000),
    )

    @settings(max_examples=150, deadline=None)
    @given(dim=st.integers(1, 3), complex_entries=st.booleans(), seed=st.integers(0, 2**32 - 1),
           grids=st.lists(st.tuples(N_SAMPLES, st.floats(0.0, 5e4)), min_size=1, max_size=3),
           n_groups=st.integers(1, 3))
    @example(dim=3, complex_entries=True, seed=1, grids=[(2, 5e4), (20_000, 5e4), (141**2, 3e4)],
             n_groups=3)
    @example(dim=3, complex_entries=False, seed=2, grids=[(1, 0.0), (8836, 4.9e4), (8837, 10.0)],
             n_groups=2)
    def test_grid_split_matches_probe_states(self, dim, complex_entries, seed, grids, n_groups):
        """``linalg.group_populations`` on a stack of blocks, each over its own
        uniform grid, against |probe amplitudes|^2 summed per group, with phases
        up to 5e4 rad."""
        rng = np.random.default_rng(seed)
        groups = rng.integers(0, n_groups, size=dim)
        blocks, windows = [], []
        for _, phase in grids:
            h = random_hermitian(dim, rng)
            h = h if complex_entries else h.real.copy()
            # a window whose largest phase difference is about ``phase``
            windows.append(phase / max(float(np.ptp(np.linalg.eigvalsh(h))), 1e-3))
            blocks.append(h)
        self.assert_stack_matches(blocks, windows, [n for n, _ in grids], groups, n_groups)

    def test_long_stack_matches_probe_states(self):
        """72 complex 3x3 blocks in one stack: runs of blocks that share one
        grid, as a sweep's full and effective rows do, between sample counts
        mixed from 1 to 20000."""
        rng = np.random.default_rng(24)
        grids = ([(4001, 900.0)] * 12 + [(1, 0.0)] * 2
                 + [(2, 3.0), (17, 0.5), (141**2 + 1, 40.0)] * 6
                 + [(20_000, 2000.0)] * 2 + [(8836, 7.0), (5, 1e4), (2001, 0.0)] * 10
                 + [(9, 2.5)] * 8)
        blocks = [random_hermitian(3, rng) for _ in grids]
        assert len(blocks) >= 64 and all(np.any(h.imag) for h in blocks)
        self.assert_stack_matches(blocks, [w for _, w in grids], [n for n, _ in grids],
                                  rng.integers(0, 3, size=3), 3)

    def assert_stack_matches(self, blocks, windows, n_samples, groups, n_groups: int):
        """The stack of ``blocks`` from one stacked ``eigh``, each over its own
        grid, against the reference within 1e-12 plus 4 eps per radian of its
        largest phase."""
        members = tuple((0, 0, int(level)) for level in groups)
        eigvals, eigvecs = np.linalg.eigh(np.stack(blocks))
        out = list(group_populations(eigvals, eigvecs, groups, n_groups, windows, n_samples))
        assert len(out) == len(blocks)
        for pops, block, window, n in zip(out, blocks, windows, n_samples):
            assert pops.shape == (n, n_groups)
            lam = np.linalg.eigvalsh(block)
            phase = window * max(float(np.ptp(lam)), float(np.max(np.abs(lam))))
            ref = self.reference(members, block, np.linspace(0.0, window, n), n_groups)
            np.testing.assert_allclose(pops, ref, rtol=0.0,
                                       atol=1e-12 + 4 * np.finfo(float).eps * phase)

    def test_non_orthonormal_eigenbasis_raises(self, monkeypatch):
        # every row of the sweep's stack is skewed; the first detuning's fails first
        def skewed(eigvals, eigvecs, *args):
            eigvecs = eigvecs + 1e-6 * eigvecs[:, :, ::-1]
            return group_populations(eigvals, eigvecs, *args)

        monkeypatch.setattr(optics, "group_populations", skewed)
        cfg = small_optics()
        with pytest.raises(InvariantError, match=r"level populations sum to .* at t = 0\.0 "
                                                 r"\(detuning 20\.0, block \(3, 1\), "
                                                 r"full model\), not 1 within 1e-10"):
            adiabatic_elimination_error(cfg, uniform_exchange_profile(cfg), [20.0, 40.0])


class TestFullModelOracle:
    def test_norm_preserved_over_full_cycle(self):
        from sltosim.linalg import basis_state
        cfg = small_optics()
        h = build_full_hamiltonian(cfg, uniform_exchange_profile(cfg))
        d2 = (cfg.n_max2 + 1)
        psi0 = basis_state(h.dim, (2 * d2 + 1) * 3 + 0)
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
