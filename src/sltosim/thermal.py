"""Thermal states of truncated bosonic modes and large-bath bookkeeping.

A bath is a single harmonic ladder cut off at a finite Fock level.  The
cutoff is chosen so the discarded Gibbs tail is below a target mass, and
the achieved mass is reported so downstream consumers can separate
truncation artifacts from physics.  Large non-bosonic baths enter only
through an exponential degeneracy model, which makes the entropy /
weighted-energy equivalence exact and testable at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import DensityMatrix


@dataclass(frozen=True)
class DegeneracyModel:
    """Microcanonical degeneracy d(E) = d0 * exp(beta * E) of a large bath."""

    beta: float
    d0: float = 1.0

    def __post_init__(self):
        if self.beta <= 0 or self.d0 <= 0:
            raise ValueError("beta and d0 must be positive")

    def count(self, energy: float) -> float:
        return self.d0 * math.exp(self.beta * energy)


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


class GibbsState(NamedTuple):
    rho: DensityMatrix
    partition_function: float  # untruncated: 1 / (1 - e^{-beta omega})


def gibbs_probabilities(omega: float, beta: float, n_max: int) -> np.ndarray:
    """Occupations 0..n_max of the truncated, renormalized Gibbs state."""
    w = np.exp(-beta * omega * np.arange(n_max + 1, dtype=float))
    return w / w.sum()


def gibbs_state(omega: float, beta: float, n_max: int) -> GibbsState:
    """Truncated thermal state plus the untruncated partition function."""
    p = gibbs_probabilities(omega, beta, n_max)
    z = 1.0 / (1.0 - math.exp(-beta * omega))
    return GibbsState(DensityMatrix(np.diag(p.astype(np.complex128))), z)


def gibbs_density(h, beta: float) -> DensityMatrix:
    """exp(-beta h)/Z for an arbitrary Hermitian operator."""
    eigvals, eigvecs = np.linalg.eigh(h.entries)
    w = np.exp(-beta * (eigvals - eigvals.min()))  # shift avoids overflow
    w = w / w.sum()
    rho = (eigvecs * w) @ eigvecs.conj().T
    return DensityMatrix(rho)


def truncated_mass(omega: float, beta: float, n_max: int) -> float:
    """Gibbs weight on levels 0..n_max; equals 1 - q^(n_max+1) with q = e^{-beta omega}."""
    q = math.exp(-beta * omega)
    return 1.0 - q ** (n_max + 1)


def truncation_for_tail(omega: float, beta: float, delta: float) -> TailReport:
    """Smallest n_max >= 1 whose truncated Gibbs mass is at least 1 - delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not (0 < omega < math.inf and 0 < beta < math.inf):
        raise ValueError(f"omega and beta must be finite and positive, got {omega}, {beta}")
    q = math.exp(-beta * omega)  # 0.0 once beta*omega > ~745: no tail at all
    if q == 1.0:
        raise ValueError(f"beta*omega = {beta * omega} is too small for a finite cutoff")
    # tail mass q^(n+1) <= delta  =>  n >= log(delta)/log(q) - 1
    n = max(1, math.ceil(math.log(delta) / math.log(q)) - 1) if q > 0 else 1
    while truncated_mass(omega, beta, n) < 1.0 - delta:  # guard fp edge cases
        n += 1
    while n > 1 and truncated_mass(omega, beta, n - 1) >= 1.0 - delta:
        n -= 1
    return TailReport(delta=delta, achieved_mass=truncated_mass(omega, beta, n), n_max_used=n)


def degeneracy_conservation_check(
    model1: DegeneracyModel, model2: DegeneracyModel, de1: float, de2: float
) -> tuple[bool, float]:
    """Whether the transfer (de1, de2) conserves the degeneracy product.

    For exponential degeneracies, d1(E1+de1) d2(E2+de2) = d1(E1) d2(E2)
    holds iff beta1*de1 + beta2*de2 = 0; the residual returned is that
    weighted-energy combination.
    """
    residual = model1.beta * de1 + model2.beta * de2
    return abs(residual) <= 1e-10, residual


@dataclass(frozen=True)
class BathPropertyReport:
    scaling_max_rel_error: float
    pairs_checked: int
    grid_residual: float | None

    @property
    def passed(self) -> bool:
        ok = self.scaling_max_rel_error <= 1e-9
        if self.grid_residual is not None:
            ok = ok and abs(self.grid_residual) <= 1e-10
        return ok


def bath_property_suite(
    model1: DegeneracyModel,
    model2: DegeneracyModel,
    sample_energies: Sequence[tuple[float, float]],
    base_energies: Sequence[tuple[float, float]] = ((10.0, 10.0), (25.0, 40.0)),
    resonance_grid: tuple[float, float] | None = None,
) -> BathPropertyReport:
    """Check the exponential-scaling identity of combined-bath degeneracies.

    For each sampled transfer (es1, es2) added on top of each base point,
    the combined degeneracy must scale by exp(beta1*es1 + beta2*es2).
    If a resonance grid (omega1, omega2) is given, additionally report the
    weighted-energy residual of the single-quantum exchange (-omega1,
    +omega2); its frequencies must be finite and positive, so the exchange
    lands back on the grid from any source with one hot quantum.
    """
    worst = 0.0
    checked = 0
    for e1, e2 in base_energies:
        g_base = model1.count(e1) * model2.count(e2)
        for es1, es2 in sample_energies:
            g_shift = model1.count(e1 + es1) * model2.count(e2 + es2)
            expected = g_base * math.exp(model1.beta * es1 + model2.beta * es2)
            worst = max(worst, abs(g_shift - expected) / expected)
            checked += 1
    grid_residual = None
    if resonance_grid is not None:
        omega1, omega2 = resonance_grid
        if not all(math.isfinite(w) and w > 0 for w in (omega1, omega2)):
            raise ValueError(f"resonance grid frequencies must be finite and positive, "
                             f"got {(omega1, omega2)}")
        grid_residual = model1.beta * (-omega1) + model2.beta * omega2
    return BathPropertyReport(
        scaling_max_rel_error=worst,
        pairs_checked=checked,
        grid_residual=grid_residual,
    )
