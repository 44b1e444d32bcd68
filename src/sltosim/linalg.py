"""Dense complex linear algebra and quantum-state utilities.

Everything downstream (thermal states, engine cycles, detuning sweeps)
is built on the small set of types and pure functions defined here.
Conventions, fixed once for the whole package:

* hbar = 1; energies and frequencies share one unit, time is its inverse.
* Kronecker products put the left factor on the slow index.
* Matrix exponentials of Hermitian generators go through a full
  eigendecomposition, never a truncated series, so unitarity holds to
  near machine precision at the dimensions we care about.

Tolerance ladder: structural checks at 1e-12, unitarity/conservation
checks at 1e-10, physics assertions at 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

ATOL_STRUCTURE = 1e-12
ATOL_UNITARY = 1e-10
ATOL_PHYSICS = 1e-9

#: refuse Kronecker products beyond this composite dimension
MAX_TENSOR_DIM = 20000

#: eigenvalues below this are treated as exact zeros inside logarithms
EIGENVALUE_FLOOR = 1e-14


class ShapeError(ValueError):
    """Operand dimensions are inconsistent."""


class DimensionLimitError(ValueError):
    """A tensor product would exceed the configured dimension cap."""


class HermiticityError(ValueError):
    """An operator contract required a Hermitian matrix."""


def _complex_matrix(entries) -> np.ndarray:
    a = np.array(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return a


def max_abs(a: np.ndarray) -> float:
    """Max-entry magnitude, 0.0 for empty arrays."""
    return float(np.max(np.abs(a))) if a.size else 0.0


@dataclass(frozen=True)
class Operator:
    """Dense complex square matrix with an optional Hermiticity promise.

    If ``hermitian_hint`` is set the constructor verifies it to 1e-12;
    operations that require Hermiticity (exponentials, uncertainties)
    insist on the hint so the contract is explicit at call sites.
    """

    entries: np.ndarray
    hermitian_hint: bool = False

    def __post_init__(self):
        a = _complex_matrix(self.entries)
        if self.hermitian_hint:
            dev = max_abs(a - a.conj().T)
            if dev > ATOL_STRUCTURE:
                raise HermiticityError(
                    f"hermitian_hint set but max |A - A^†| = {dev:.3e}"
                )
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state; norm is checked to 1e-10 at construction."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=np.complex128)
        if a.ndim != 1 or a.size == 0:
            raise ShapeError(f"expected a nonempty vector, got shape {a.shape}")
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state vector norm {norm!r} differs from 1 by > 1e-10")
        a.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix (all verified)."""

    entries: np.ndarray

    def __post_init__(self):
        a = _complex_matrix(self.entries)
        if max_abs(a - a.conj().T) > ATOL_STRUCTURE:
            raise HermiticityError("density matrix is not Hermitian to 1e-12")
        tr = complex(np.trace(a))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr!r} differs from 1 by > 1e-10")
        lo = float(np.min(np.linalg.eigvalsh((a + a.conj().T) / 2)))
        if lo < -1e-10:
            raise ValueError(f"density matrix has eigenvalue {lo:.3e} < -1e-10")
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=np.complex128), hermitian_hint=True)


def basis_state(dim: int, index: int) -> StateVector:
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return StateVector(v)


Tensorable = Union[Operator, DensityMatrix, StateVector]


def tensor_product(a: Tensorable, b: Tensorable, max_dim: int = MAX_TENSOR_DIM):
    """Kronecker product of two objects of the same kind (left factor slow)."""
    if type(a) is not type(b):
        raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")
    new_dim = a.dim * b.dim
    if new_dim > max_dim:
        raise DimensionLimitError(
            f"tensor product dimension {new_dim} exceeds limit {max_dim}"
        )
    if isinstance(a, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix):
        return DensityMatrix(np.kron(a.entries, b.entries))
    return Operator(
        np.kron(a.entries, b.entries),
        hermitian_hint=a.hermitian_hint and b.hermitian_hint,
    )


class SpectralPropagator:
    """Eigendecomposition of a Hermitian generator, reused across many times.

    ``at(t)`` is the unitary exp(-i t h); ``states`` evolves a fixed
    initial vector over a whole time grid in one pass.
    """

    def __init__(self, h: Operator):
        if not h.hermitian_hint:
            raise HermiticityError("SpectralPropagator requires hermitian_hint")
        self.h = h
        self.eigvals, self.eigvecs = np.linalg.eigh(h.entries)

    def at(self, t: float) -> Operator:
        u = (self.eigvecs * np.exp(-1j * t * self.eigvals)) @ self.eigvecs.conj().T
        return Operator(u)

    def states(self, psi0: StateVector, times: Sequence[float]) -> np.ndarray:
        """Amplitudes of exp(-i t h) |psi0> for each t; shape (len(times), dim)."""
        c0 = self.eigvecs.conj().T @ psi0.amplitudes
        phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), self.eigvals))
        return (phases * c0) @ self.eigvecs.T


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum(p ln p) over eigenvalues above the clipping floor, in nats."""
    p = np.linalg.eigvalsh(rho.entries)
    p = p[p > EIGENVALUE_FLOOR]
    return float(-np.sum(p * np.log(p))) + 0.0 if p.size else 0.0


def fubini_study_distance(psi: StateVector, phi: StateVector) -> float:
    """(1 - |<psi|phi>|^2) / 2 for normalized pure states."""
    if psi.dim != phi.dim:
        raise ShapeError(f"dimension mismatch {psi.dim} vs {phi.dim}")
    overlap = np.vdot(psi.amplitudes, phi.amplitudes)
    return float(0.5 * (1.0 - abs(overlap) ** 2))


def commutator_norm(a: Operator, b: Operator) -> float:
    """Max-entry magnitude of AB - BA."""
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch {a.dim} vs {b.dim}")
    return max_abs(a.entries @ b.entries - b.entries @ a.entries)


def energy_uncertainty(h: Operator, psi: StateVector) -> float:
    """sqrt(<h^2> - <h>^2) on a pure state; small negative variance clips to 0."""
    if not h.hermitian_hint:
        raise HermiticityError("energy_uncertainty requires hermitian_hint")
    if h.dim != psi.dim:
        raise ShapeError(f"dimension mismatch {h.dim} vs {psi.dim}")
    hpsi = h.entries @ psi.amplitudes
    mean = np.real(np.vdot(psi.amplitudes, hpsi))
    second = np.real(np.vdot(hpsi, hpsi))
    return float(np.sqrt(max(second - mean**2, 0.0)))
