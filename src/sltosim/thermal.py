"""Thermal states of truncated bosonic modes.

A bath is a single harmonic ladder cut off at a finite Fock level.  The
cutoff is chosen so the discarded Gibbs tail is below a target mass, and
the achieved mass is reported so downstream consumers can separate
truncation artifacts from physics.  ``gibbs_density`` gives the thermal
state of an arbitrary Hermitian operator, for the SLTO verifier, and
``gibbs_weights`` the Gibbs weights of a spectrum, which are that
state's diagonal when the operator is diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix


@dataclass(frozen=True)
class TailReport:
    """Smallest cutoff whose truncated Gibbs mass reaches 1 - delta."""

    delta: float
    achieved_mass: float
    n_max_used: int

    def __post_init__(self):
        if self.achieved_mass < 1.0 - self.delta:
            raise ValueError(
                f"achieved mass {self.achieved_mass} below target {1.0 - self.delta}"
            )


def gibbs_probabilities(omega: float, beta: float, n_max: int) -> np.ndarray:
    """Occupations 0..n_max of the truncated, renormalized Gibbs state."""
    w = np.exp(-beta * omega * np.arange(n_max + 1, dtype=float))
    return w / w.sum()


def gibbs_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta e)/Z over a spectrum given in any order, at any real beta.

    Z is summed in ascending-energy order, as over ``eigh``'s sorted
    spectrum, so a diagonal operator's weights are the diagonal of its
    ``gibbs_density`` without an eigendecomposition.
    """
    # shifting by the energy of largest weight keeps every exponent <= 0
    w = np.exp(-beta * (energies - (energies.min() if beta >= 0 else energies.max())))
    return w / w[np.argsort(energies, kind="stable")].sum()


def gibbs_density(h, beta: float) -> DensityMatrix:
    """exp(-beta h)/Z for an arbitrary Hermitian operator, at any real beta."""
    eigvals, eigvecs = np.linalg.eigh(h.entries)
    rho = (eigvecs * gibbs_weights(eigvals, beta)) @ eigvecs.conj().T
    return DensityMatrix(rho)


def truncated_mass(omega: float, beta: float, n_max: int) -> float:
    """Gibbs weight on levels 0..n_max; equals 1 - q^(n_max+1) with q = e^{-beta omega}."""
    q = math.exp(-beta * omega)
    return 1.0 - q ** (n_max + 1)


def boltzmann_factor(omega: float, beta: float, name: str = "beta*omega") -> float:
    """e^{-beta omega}, refused as ``name`` when it rounds to 1: such a ladder has
    no finite cutoff and no finite partition function 1 / (1 - e^{-beta omega})."""
    q = math.exp(-beta * omega)  # 0.0 once beta*omega > ~745: no tail at all
    if q == 1.0:
        raise ValueError(f"{name} = {beta * omega} is too small for a finite cutoff")
    return q


def truncation_for_tail(omega: float, beta: float, delta: float) -> TailReport:
    """Smallest n_max >= 1 whose truncated Gibbs mass is at least 1 - delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not (0 < omega < math.inf and 0 < beta < math.inf):
        raise ValueError(f"omega and beta must be finite and positive, got {omega}, {beta}")
    q = boltzmann_factor(omega, beta)
    # tail mass q^(n+1) <= delta  =>  n >= log(delta)/log(q) - 1
    n = max(1, math.ceil(math.log(delta) / math.log(q)) - 1) if q > 0 else 1
    while truncated_mass(omega, beta, n) < 1.0 - delta:  # guard fp edge cases
        n += 1
    while n > 1 and truncated_mass(omega, beta, n - 1) >= 1.0 - delta:
        n -= 1
    return TailReport(delta=delta, achieved_mass=truncated_mass(omega, beta, n), n_max_used=n)
