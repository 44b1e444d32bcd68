import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import loop_kron, random_density, random_hermitian, random_state, taylor_evolution
from sltosim.linalg import (
    DensityMatrix,
    DimensionLimitError,
    HermiticityError,
    Operator,
    ShapeError,
    SpectralPropagator,
    StateVector,
    basis_state,
    commutator_norm,
    energy_uncertainty,
    fubini_study_distance,
    identity,
    tensor_product,
    von_neumann_entropy,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestTensorProduct:
    def test_identity_times_identity(self):
        out = tensor_product(identity(2), identity(3))
        assert np.array_equal(out.entries, np.eye(6))

    def test_basis_vectors_slow_left_convention(self):
        out = tensor_product(basis_state(2, 0), basis_state(2, 1))
        assert out.dim == 4
        assert np.array_equal(out.amplitudes, [0, 1, 0, 0])

    def test_diagonal_against_loop_oracle(self):
        a = np.diag([0.0, 1.0]).astype(complex)
        b = np.diag([0.0, 2.0]).astype(complex)
        out = tensor_product(Operator(a), Operator(b))
        assert np.array_equal(out.entries, loop_kron(a, b))
        assert np.array_equal(np.diagonal(out.entries), [0, 0, 0, 2])

    def test_kind_mismatch_rejected(self):
        with pytest.raises(TypeError):
            tensor_product(identity(2), basis_state(2, 0))

    def test_dimension_limit(self):
        with pytest.raises(DimensionLimitError):
            tensor_product(identity(160), identity(160), max_dim=20000)

    @given(st.integers(2, 4), st.integers(2, 4), st.integers(2, 3), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, da, db, dc, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (Operator(random_hermitian(d, rng)) for d in (da, db, dc))
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        assert np.max(np.abs(left.entries - right.entries)) <= 1e-13

    def test_hermitian_hint_propagates(self):
        out = tensor_product(identity(2), identity(2))
        assert out.hermitian_hint


class TestHermitianExponential:
    def test_zero_time_is_identity(self):
        h = Operator(random_hermitian(5, np.random.default_rng(0)), hermitian_hint=True)
        u = SpectralPropagator(h).at(0.0)
        assert np.max(np.abs(u.entries - np.eye(5))) <= 1e-12

    def test_sigma_x_quarter_period(self):
        g = 0.7
        h = Operator(g * SIGMA_X, hermitian_hint=True)
        u = SpectralPropagator(h).at(math.pi / (2 * g))
        assert np.max(np.abs(u.entries - (-1j) * SIGMA_X)) <= 1e-12

    def test_single_exchange_sector_swap(self):
        # one coupled sector: |E,0> -> -i |E',1> at a quarter period
        g = 0.31
        h = Operator(g * SIGMA_X, hermitian_hint=True)
        u = SpectralPropagator(h).at(math.pi / (2 * g))
        final = u.entries @ np.array([1.0, 0.0])
        assert abs(final[0]) <= 1e-12
        assert abs(final[1] - (-1j)) <= 1e-12

    @given(st.integers(2, 8), st.floats(-3.0, 3.0), st.integers(0, 10**6))
    @example(dim=8, t=3.0, seed=0)
    @settings(max_examples=30, deadline=None)
    def test_matches_series_oracle(self, dim, t, seed):
        h = random_hermitian(dim, np.random.default_rng(seed))
        u = SpectralPropagator(Operator(h, hermitian_hint=True)).at(t)
        assert np.max(np.abs(u.entries - taylor_evolution(h, t))) <= 1e-10

    @given(st.integers(2, 8), st.floats(-20.0, 20.0), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_unitarity_and_round_trip(self, dim, t, seed):
        h = Operator(random_hermitian(dim, np.random.default_rng(seed)), hermitian_hint=True)
        u = SpectralPropagator(h).at(t)
        assert np.max(np.abs(u.entries @ u.entries.conj().T - np.eye(dim))) <= 1e-10
        back = SpectralPropagator(h).at(-t)
        assert np.max(np.abs(u.entries @ back.entries - np.eye(dim))) <= 1e-10

    def test_requires_hermitian_hint(self):
        h = Operator(SIGMA_X)  # no hint
        with pytest.raises(HermiticityError):
            SpectralPropagator(h).at(1.0)

    def test_hint_on_nonhermitian_rejected(self):
        with pytest.raises(HermiticityError):
            Operator(np.array([[0, 1], [0, 0]], dtype=complex), hermitian_hint=True)


class TestSpectralPropagator:
    def test_reused_propagator_matches_series_oracle(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(6, rng)
        prop = SpectralPropagator(Operator(h, hermitian_hint=True))
        for t in (0.0, 0.4, -1.7):
            assert np.max(np.abs(prop.at(t).entries - taylor_evolution(h, t))) <= 1e-10

    def test_states_preserve_norm(self):
        rng = np.random.default_rng(6)
        h = Operator(random_hermitian(7, rng), hermitian_hint=True)
        psi0 = StateVector(random_state(7, rng))
        amps = SpectralPropagator(h).states(psi0, np.linspace(0, 5, 40))
        norms = np.linalg.norm(amps, axis=1)
        assert np.max(np.abs(norms - 1)) <= 1e-10


class TestEntropy:
    def test_pure_state_zero(self):
        psi = random_state(5, np.random.default_rng(4))
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        assert 0.0 <= von_neumann_entropy(rho) <= 1e-10

    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) - math.log(2)) <= 1e-12

    def test_partial_exchange_angle(self):
        c = math.cos(math.pi / 6) ** 2
        s = math.sin(math.pi / 6) ** 2
        rho = DensityMatrix(np.diag([c, s]).astype(complex))
        expected = -c * math.log(c) - s * math.log(s)
        assert abs(von_neumann_entropy(rho) - expected) <= 1e-12

    @given(st.integers(2, 5), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_unitary_invariance(self, dim, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(dim, rng)
        u = SpectralPropagator(
            Operator(random_hermitian(dim, rng), hermitian_hint=True)
        ).at(1.3).entries
        rotated = DensityMatrix(u @ rho @ u.conj().T)
        assert abs(
            von_neumann_entropy(DensityMatrix(rho)) - von_neumann_entropy(rotated)
        ) <= 1e-9


class TestFubiniStudy:
    def test_identical_states(self):
        psi = StateVector(random_state(4, np.random.default_rng(8)))
        assert abs(fubini_study_distance(psi, psi)) <= 1e-12

    def test_orthogonal_states(self):
        assert abs(fubini_study_distance(basis_state(3, 0), basis_state(3, 1)) - 0.5) <= 1e-12

    def test_exchange_trajectory_half_sine_squared(self):
        for gt in np.linspace(0, math.pi / 2, 25):
            psi = StateVector([math.cos(gt), -1j * math.sin(gt)])
            d = fubini_study_distance(basis_state(2, 0), psi)
            assert abs(d - 0.5 * math.sin(gt) ** 2) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            fubini_study_distance(basis_state(2, 0), basis_state(3, 0))


class TestCommutatorNorm:
    def test_self_commutator_vanishes(self):
        a = Operator(random_hermitian(5, np.random.default_rng(9)))
        assert commutator_norm(a, a) <= 1e-14

    def test_pauli_pair(self):
        # [sigma_x, sigma_z] = -2i sigma_y has max-entry magnitude 2
        assert abs(commutator_norm(Operator(SIGMA_X), Operator(SIGMA_Z)) - 2.0) <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            commutator_norm(identity(2), identity(3))


class TestEnergyUncertainty:
    def test_eigenvector_has_zero_uncertainty(self):
        h = Operator(np.diag([0.0, 1.0, 3.0]).astype(complex), hermitian_hint=True)
        assert energy_uncertainty(h, basis_state(3, 2)) <= 1e-12

    def test_equal_superposition_gives_half_gap(self):
        h = Operator(np.diag([0.0, 2.6]).astype(complex), hermitian_hint=True)
        psi = StateVector(np.array([1, 1]) / math.sqrt(2))
        assert abs(energy_uncertainty(h, psi) - 1.3) <= 1e-12

    def test_constant_along_exchange_trajectory(self):
        g = 0.4
        h = Operator(g * SIGMA_X, hermitian_hint=True)
        for gt in np.linspace(0, math.pi / 2, 20):
            psi = StateVector([math.cos(gt), -1j * math.sin(gt)])
            assert abs(energy_uncertainty(h, psi) - g) <= 1e-12


class TestTypeInvariants:
    def test_state_vector_norm_enforced(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 1.0])

    def test_density_matrix_trace_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_density_matrix_positivity_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_operators_are_immutable(self):
        op = identity(3)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0
