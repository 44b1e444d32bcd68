import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
from sltosim.linalg import Operator
from sltosim.thermal import (
    gibbs_density,
    gibbs_weights,
    gibbs_probabilities,
    truncated_mass,
    truncation_for_tail,
)


class TestGibbsState:
    def test_half_quarter_ladder(self):
        # beta*omega = ln 2 makes the ladder a halving sequence
        p = gibbs_probabilities(omega=1.0, beta=math.log(2), n_max=45)
        assert abs(p[0] - 0.5) <= 1e-9
        assert abs(p[1] - 0.25) <= 1e-9

    def test_zero_temperature_limit(self):
        p = gibbs_probabilities(omega=1.0, beta=500.0, n_max=10)
        assert abs(p[0] - 1.0) <= 1e-12

    def test_output_is_normalized_and_positive(self):
        p = gibbs_probabilities(omega=2.0, beta=0.7, n_max=12)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.min(p) > 0.0

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

    @pytest.mark.parametrize("beta", [-1000.0, -1.0, 1000.0])
    def test_either_sign_of_beta_matches_stable_boltzmann_weights(self, beta):
        # weights exp(-beta e - max(-beta e)), normalized: no term can overflow
        h = random_hermitian(5, np.random.default_rng(12))
        eigvals, eigvecs = np.linalg.eigh(h)
        log_w = -beta * eigvals
        w = np.exp(log_w - log_w.max())
        w /= w.sum()
        rho = gibbs_density(Operator(h, hermitian_hint=True), beta)
        # the state's diagonal in the eigenbasis of h
        got = np.real(np.einsum("ji,jk,ki->i", eigvecs.conj(), rho.entries, eigvecs))
        assert np.max(np.abs(got - w)) <= 1e-12

    @pytest.mark.parametrize("beta", [-3.0, 0.0, 0.7, 40.0])
    def test_weights_of_a_shuffled_diagonal_are_its_density_diagonal(self, beta):
        # ties included: the weights are normalized over the ascending spectrum
        rng = np.random.default_rng(13)
        for size in (1, 7, 8, 9, 30):
            energies = np.round(rng.normal(size=size) * 2.0, 1)
            rng.shuffle(energies)
            rho = gibbs_density(Operator(np.diag(energies).astype(complex),
                                         hermitian_hint=True), beta).entries
            assert np.array_equal(gibbs_weights(energies, beta), np.diagonal(rho).real)
            assert not np.any(rho - np.diag(np.diagonal(rho).real))
