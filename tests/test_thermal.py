import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
from sltosim.linalg import Operator
from sltosim.thermal import (
    DegeneracyModel,
    bath_property_suite,
    degeneracy_conservation_check,
    gibbs_density,
    gibbs_probabilities,
    gibbs_state,
    truncated_mass,
    truncation_for_tail,
)


class TestGibbsState:
    def test_half_quarter_ladder(self):
        # beta*omega = ln 2 makes the ladder a halving sequence
        rho, _ = gibbs_state(omega=1.0, beta=math.log(2), n_max=45)
        p = np.real(np.diagonal(rho.entries))
        assert abs(p[0] - 0.5) <= 1e-9
        assert abs(p[1] - 0.25) <= 1e-9

    def test_zero_temperature_limit(self):
        rho, _ = gibbs_state(omega=1.0, beta=500.0, n_max=10)
        assert abs(rho.entries[0, 0].real - 1.0) <= 1e-12

    def test_partition_function_value(self):
        _, z = gibbs_state(omega=1.0, beta=1.0, n_max=5)
        assert abs(z - 1.0 / (1.0 - math.exp(-1.0))) <= 1e-12
        assert abs(z - 1.5820) <= 5e-5

    def test_output_is_diagonal_and_normalized(self):
        rho, _ = gibbs_state(omega=2.0, beta=0.7, n_max=12)
        off = rho.entries - np.diag(np.diagonal(rho.entries))
        assert np.max(np.abs(off)) == 0.0
        assert abs(np.trace(rho.entries) - 1.0) <= 1e-12
        assert np.min(np.real(np.diagonal(rho.entries))) > 0.0

    @given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_probabilities_follow_geometric_law(self, omega, beta, n_max):
        p = gibbs_probabilities(omega, beta, n_max)
        q = math.exp(-beta * omega)
        expected = (1 - q) / (1 - q ** (n_max + 1)) * q ** np.arange(n_max + 1)
        assert np.max(np.abs(p - expected)) <= 1e-12


class TestTruncationForTail:
    def test_unit_exponent_tail(self):
        report = truncation_for_tail(omega=1.0, beta=1.0, delta=math.exp(-5))
        assert report.n_max_used == 4

    def test_vacuous_constraint_returns_minimum(self):
        report = truncation_for_tail(omega=1.0, beta=1.0, delta=0.999999)
        assert report.n_max_used == 1

    def test_halving_ladder(self):
        report = truncation_for_tail(omega=1.0, beta=math.log(2), delta=2.0**-10)
        assert report.n_max_used == 9

    def test_delta_out_of_range(self):
        for delta in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                truncation_for_tail(1.0, 1.0, delta)

    def test_report_mass_meets_target(self):
        report = truncation_for_tail(omega=2.0, beta=0.25, delta=1e-6)
        assert report.achieved_mass >= 1 - 1e-6
        # minimality: one level less must miss the target
        assert truncated_mass(2.0, 0.25, report.n_max_used - 1) < 1 - 1e-6

    def test_underflowing_tail_needs_one_level(self):
        # exp(-800) underflows to 0: the whole Gibbs mass sits in the ground level
        report = truncation_for_tail(1.0, 800.0, 1e-6)
        assert (report.n_max_used, report.achieved_mass) == (1, 1.0)

    @pytest.mark.parametrize("omega, beta", [(math.nan, 1.0), (1.0, math.inf), (0.0, 1.0)])
    def test_non_finite_or_non_positive_mode_rejected(self, omega, beta):
        with pytest.raises(ValueError, match="finite and positive"):
            truncation_for_tail(omega, beta, 1e-6)

    def test_vanishing_exponent_rejected(self):
        # beta*omega = 1e-18 rounds exp(-beta*omega) to 1: no cutoff reaches any tail
        with pytest.raises(ValueError, match="too small for a finite cutoff"):
            truncation_for_tail(1e-9, 1e-9, 1e-6)

    @given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_mass_monotone_in_cutoff(self, omega, beta, n_max):
        assert truncated_mass(omega, beta, n_max + 1) >= truncated_mass(omega, beta, n_max)


class TestDegeneracyConservation:
    def test_zero_transfer(self):
        ok, residual = degeneracy_conservation_check(
            DegeneracyModel(1.0), DegeneracyModel(2.0), 0.0, 0.0
        )
        assert ok and residual == 0.0

    def test_balanced_transfer(self):
        ok, residual = degeneracy_conservation_check(
            DegeneracyModel(1.0), DegeneracyModel(2.0), -2.0, 1.0
        )
        assert ok and abs(residual) <= 1e-12

    def test_unbalanced_transfer(self):
        ok, residual = degeneracy_conservation_check(
            DegeneracyModel(1.0), DegeneracyModel(2.0), -1.0, 1.0
        )
        assert not ok
        assert abs(residual - 1.0) <= 1e-12

    @given(
        st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(-5.0, 5.0),
        st.floats(1.0, 30.0), st.floats(1.0, 30.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_balanced_transfers_conserve_count_product(self, b1, b2, de1, e1, e2):
        m1, m2 = DegeneracyModel(b1), DegeneracyModel(b2)
        de2 = -b1 * de1 / b2
        before = m1.count(e1) * m2.count(e2)
        after = m1.count(e1 + de1) * m2.count(e2 + de2)
        assert abs(after - before) / before <= 1e-9


class TestBathPropertySuite:
    def test_zero_shift_ratio_one(self):
        report = bath_property_suite(
            DegeneracyModel(1.0), DegeneracyModel(2.0), [(0.0, 0.0)]
        )
        assert report.scaling_max_rel_error <= 1e-12

    def test_exponential_shift_value(self):
        m1, m2 = DegeneracyModel(1.0), DegeneracyModel(2.0)
        ratio = (m1.count(10.3) * m2.count(10.1)) / (m1.count(10.0) * m2.count(10.0))
        assert abs(ratio - math.exp(0.5)) / math.exp(0.5) <= 1e-12
        report = bath_property_suite(m1, m2, [(0.3, 0.1)])
        assert report.scaling_max_rel_error <= 1e-9

    def test_resonance_grid_single_quantum_exchange(self):
        report = bath_property_suite(
            DegeneracyModel(0.5), DegeneracyModel(1.0), [(0.1, 0.2)],
            resonance_grid=(2.0, 1.0),
        )
        assert report.grid_residual is not None
        assert abs(report.grid_residual) == 0.0
        assert report.passed

    @pytest.mark.parametrize("grid", [(0.0, 1.0), (2.0, -1.0), (math.nan, 1.0),
                                      (2.0, math.inf)])
    def test_resonance_grid_off_the_ladder_rejected(self, grid):
        with pytest.raises(ValueError, match="finite and positive"):
            bath_property_suite(DegeneracyModel(0.5), DegeneracyModel(1.0), [(0.1, 0.2)],
                                resonance_grid=grid)


class TestGibbsDensity:
    def test_matches_direct_exponential(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(5, rng)
        beta = 0.8
        expected_w = np.linalg.eigvalsh(h)
        rho = gibbs_density(Operator(h, hermitian_hint=True), beta)
        # eigenvalues of the state must be the Boltzmann weights of h
        got = np.sort(np.linalg.eigvalsh(rho.entries))
        w = np.exp(-beta * expected_w)
        w = np.sort(w / w.sum())
        assert np.max(np.abs(got - w)) <= 1e-12
