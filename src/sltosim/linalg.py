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

import itertools
import math
from dataclasses import InitVar, dataclass
from typing import Iterator, Sequence, Union

import numpy as np

ATOL_STRUCTURE = 1e-12

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


def _complex_matrix(entries, copy: bool = True) -> np.ndarray:
    a = np.array(entries, dtype=np.complex128) if copy else np.asarray(entries, np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return a


def max_abs(a: np.ndarray) -> float:
    """Max-entry magnitude, 0.0 for empty arrays."""
    return float(np.max(np.abs(a))) if a.size else 0.0


@dataclass(frozen=True)
class Operator:
    """Dense complex square matrix with an optional Hermiticity promise.

    If ``hermitian_hint`` is set the constructor verifies it to 1e-12, and
    a NaN or infinite entry fails it; operations that require Hermiticity
    (exponentials, uncertainties) insist on the hint so the contract is
    explicit at call sites.  The entries are copied unless ``copy=False``
    hands over a complex128 array that the caller no longer writes to,
    since the operator makes it read-only.
    """

    entries: np.ndarray
    hermitian_hint: bool = False
    copy: InitVar[bool] = True

    def __post_init__(self, copy: bool):
        a = _complex_matrix(self.entries, copy)
        if self.hermitian_hint:
            if not np.isfinite(a).all():
                raise HermiticityError("not Hermitian, non-finite entry")
            dev = max_abs(a - a.conj().T)
            if dev > ATOL_STRUCTURE:
                raise HermiticityError(
                    f"not Hermitian, max |A - A^†| = {dev:.3e}"
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

    ``at(t)`` is the unitary exp(-i t h), and ``states`` evolves a fixed
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


def group_populations(eigvals: np.ndarray, eigvecs: np.ndarray, groups: Sequence[int],
                      n_groups: int, windows: Sequence[float],
                      n_samples: Sequence[int]) -> Iterator[np.ndarray]:
    """Populations of exp(-i t h_r)|0>, summed over groups of basis states, for a
    stack of Hermitian blocks h_r given by their eigenpairs (eigvals (R, k),
    eigvecs (R, k, k)), each over its own uniform grid t_j = j * step_r with
    step_r = windows[r] / (n_samples[r] - 1), j < n_samples[r], the grid of
    ``np.linspace(0, windows[r], n_samples[r])``.  Yields one
    (n_samples[r], n_groups) array per block in turn, basis state j counted
    in ``groups[j]``, so only one block's grid is held at a time.

    With a_jk = V_jk conj(V_0k) over the eigenpairs (lam_k, v_k), basis
    state j holds sum_k |a_jk|^2 + 2 sum_{k<l} Re(a_jk conj(a_jl)
    e^{-i w_kl t}), w_kl = lam_k - lam_l.  Each group's sums fold into a
    constant and one complex coefficient c per eigenvalue pair.  Splitting
    j = a*B + b with B = ceil(sqrt(n)) for the largest n, angle addition gives

        Re(c e^{-i w t_j}) = (c_r cos u_a + c_i sin u_a) cos v_b
                             + (c_i cos u_a - c_r sin u_a) sin v_b,

    u_a = w t_{aB}, v_b = w t_b.  So a group's grid is one (A x 2P) @
    (2P x B) product over the P pairs, with the constant riding along as
    one more column against a row of ones, and the trig work is a sine
    and a cosine of P (A + B) angles instead of a cosine of P n; the
    imaginary parts need no separate sine pass.  No amplitude is formed and
    nothing here enforces unitarity: callers check that the populations
    still sum to 1.

    The elementwise stages keep the sample axes innermost: the angles u
    are (R, P, A) and v (R, P, B), so each cosine, sine, product and sum
    runs long contiguous loops over the samples rather than loops of
    length P over the pairs.  The pair columns are written through a
    transposed view into ``left``, which keeps its (R, groups, A, 2P + 1)
    layout, so each block's product sees the same operands in the same
    memory order and the populations do not change by a bit.
    """
    n_blocks, dim = eigvals.shape
    members = np.zeros((n_groups, dim))
    members[groups, np.arange(dim)] = 1.0
    a = eigvecs * eigvecs[:, :1].conj()
    k, l = np.array(list(itertools.combinations(range(dim), 2)), dtype=np.intp).reshape(-1, 2).T
    coef = 2.0 * (members @ (a[:, :, k] * a[:, :, l].conj()))  # (R, groups, P)
    const = members @ (a.real**2 + a.imag**2).sum(axis=2)[..., None]  # (R, groups, 1)

    n_top = max(n_samples, default=1)
    inner_len = math.isqrt(n_top - 1) + 1  # B = ceil(sqrt(n_top)), so A * B >= n_top
    outer_len = -(-n_top // inner_len)
    n_pairs = len(k)
    step = (np.asarray(windows, dtype=float)
            / np.maximum(np.asarray(n_samples) - 1, 1))[:, None, None]
    omega = eigvals[:, k] - eigvals[:, l]  # (R, P)
    # t_{aB} and t_b as the products j * step that np.linspace forms
    u = omega[:, :, None] * (step * (inner_len * np.arange(outer_len)))  # (R, P, A)
    v = omega[:, :, None] * (step * np.arange(inner_len))  # (R, P, B)
    cos_u, sin_u = np.cos(u)[:, None], np.sin(u)[:, None]  # (R, 1, P, A)
    cr, ci = coef.real[..., None], coef.imag[..., None]  # (R, groups, P, 1)
    # the matmul operand (R, groups, A, 2P + 1), filled column by column through
    # its (R, groups, 2P + 1, A) view so the sums run along the samples
    left = np.empty((n_blocks, n_groups, outer_len, 2 * n_pairs + 1))
    cols = left.transpose(0, 1, 3, 2)
    np.add(cr * cos_u, ci * sin_u, out=cols[:, :, :n_pairs])
    np.subtract(ci * cos_u, cr * sin_u, out=cols[:, :, n_pairs:-1])
    cols[:, :, -1] = const
    right = np.concatenate([np.cos(v), np.sin(v), np.ones((n_blocks, 1, inner_len))],
                           axis=1)  # (R, 2P + 1, B)
    for r, n in enumerate(n_samples):
        rows = -(-n // inner_len)
        pops = left[r, :, :rows].reshape(n_groups * rows, -1) @ right[r]
        yield pops.reshape(n_groups, -1)[:, :n].T


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
