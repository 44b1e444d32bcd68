"""Two-level engine running a one-step cycle between two bosonic ladders.

The working system is a two-level system S whose gap equals the spacing
difference of two thermal ladders B1 (hot) and B2 (cold) held at
resonance beta1*omega1 = beta2*omega2.  ``CompactEngineConfig`` holds
only what these two resonances leave free (beta1, beta2, omega1, the
coupling g, the cutoffs and the lower level a0) and derives omega2 and
the upper level a1, so both resonances hold by construction.
Total-energy sectors pair the basis states |n, m, 0> and |n-1, m+1, 1>,
and the driving Hamiltonian couples every pair with one uniform
strength g.  Each pair is then an exact 2x2 problem: over a half Rabi
period the hot ladder loses one quantum, the cold ladder gains one, and
S is excited, extracting the energy difference as work.  Boundary
sectors (n = 0, or m at the cold cutoff) have no partner and stay idle,
which keeps both conservation laws exact at finite truncation; their
weight is reported instead of being approximated away.

``enumerate_blocks`` lists every sector's members as one int table of
shape (sectors, 2, 3): row k is the pair (|n, m, 0>, |n-1, m+1, 1>) in
lexicographic (n, m) order, with -1 in the partner slot of an idle
sector.  A ``ChargeBlock`` is one sector as a small Hermitian matrix on
its members: ``charge_block`` builds the engine's 2x2 pair or 1x1 idle
block for one (n, m), and the cavity model in ``optics`` builds its
<= 3-state blocks with the same type.  Dense full-space matrices are
assembled only for export (``evolution_operator``) and as the test
oracle (``build_interaction_hamiltonian``).

``evolve_cycle`` propagates the one 2x2 pair block over the whole time
grid and takes every per-sample diagnostic from its amplitude rows in
closed form (entanglement entropy, energy spread, Fubini-Study
distance).  Sector weights, bath energies and the charge gaps behind the
commutator residuals are read from the member table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    EIGENVALUE_FLOOR,
    Operator,
    SpectralPropagator,
    StateVector,
    basis_state,
    max_abs,
)
# unused here; bench/tracing.py patches these by name
from .linalg import DensityMatrix, energy_uncertainty, fubini_study_distance, von_neumann_entropy
from .thermal import gibbs_probabilities, truncation_for_tail

#: default number of uniform time samples on [0, tau]
DEFAULT_GRID_POINTS = 101

#: caps checked before allocating: the (n, m) sectors of an engine (a cycle takes
#: about 1.7 kB per sector) and the dimension of the dense ``evolution_operator``
MAX_SECTORS = 250_000
MAX_DENSE_DIM = 8192


class NoGradientError(ValueError):
    """beta1 > beta2 leaves no temperature gradient to run the engine on."""


class InvariantError(RuntimeError):
    """A computed quantity broke an invariant that valid input cannot break."""


@dataclass(frozen=True)
class CompactEngineConfig:
    """Free parameters of the two-ladder engine; the resonances fix the rest.

    omega2 = beta1*omega1/beta2 (so beta1*omega1 = beta2*omega2) and the
    excited level a1 = a0 + (omega1 - omega2) are derived, never stored.
    A cutoff left as None is the smallest one whose Gibbs tail is below
    ``tail_delta``.  Constraints: every energy, temperature and the
    coupling finite, beta1 <= beta2 (equality gives the degenerate engine
    with zero work), and a derived omega2 that is finite and positive.
    """

    beta1: float
    beta2: float
    omega1: float
    g: float
    n_max1: int | None = None
    n_max2: int | None = None
    a0: float = 0.0
    tail_delta: float = 1e-6

    def __post_init__(self):
        for name in ("beta1", "beta2", "omega1", "g", "a0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if min(self.beta1, self.beta2, self.omega1) <= 0:
            raise ValueError("temperatures and frequencies must be positive")
        if self.beta1 > self.beta2:
            raise NoGradientError(
                f"beta1 = {self.beta1} must not exceed beta2 = {self.beta2}"
            )
        if not 0 < self.omega2 < math.inf:
            raise ValueError(f"derived omega2 = beta1*omega1/beta2 = {self.omega2} "
                             "must be finite and positive")
        # at beta1 = beta2 the rounding of beta*omega/beta can put omega2 above omega1
        if not self.a0 <= self.a1 < math.inf:
            raise ValueError(f"derived a1 = {self.a1} must be finite and not below a0")
        if self.g < 0:
            raise ValueError(f"coupling g must be non-negative, got {self.g}")
        for name, omega, beta in (("n_max1", self.omega1, self.beta1),
                                  ("n_max2", self.omega2, self.beta2)):
            if getattr(self, name) is None:
                n_max = truncation_for_tail(omega, beta, self.tail_delta).n_max_used
                object.__setattr__(self, name, n_max)
        if self.n_max1 < 0 or self.n_max2 < 0:
            raise ValueError("cutoffs must be non-negative")
        if (self.n_max1 + 1) * (self.n_max2 + 1) > MAX_SECTORS:
            raise ValueError(f"cutoffs n_max1 = {self.n_max1}, n_max2 = {self.n_max2} "
                             f"give more than the cap of {MAX_SECTORS} sectors")

    @property
    def omega2(self) -> float:
        return self.beta1 * self.omega1 / self.beta2

    @property
    def a1(self) -> float:
        return self.a0 + (self.omega1 - self.omega2)

    @property
    def dim(self) -> int:
        return (self.n_max1 + 1) * (self.n_max2 + 1) * 2

    @property
    def tau(self) -> float:
        return math.pi / (2.0 * self.g) if self.g > 0 else math.inf

    @property
    def w_ext(self) -> float:
        return self.a1 - self.a0

    @property
    def carnot_efficiency(self) -> float:
        return 1.0 - self.beta1 / self.beta2

    def basis_index(self, n: int, m: int, s: int) -> int:
        return (n * (self.n_max2 + 1) + m) * 2 + s

    def total_energy_diagonal(self) -> np.ndarray:
        """Diagonal of H_B1 + H_B2 + H_S in the product basis."""
        d = np.empty(self.dim)
        for n in range(self.n_max1 + 1):
            for m in range(self.n_max2 + 1):
                base = n * self.omega1 + m * self.omega2
                d[self.basis_index(n, m, 0)] = base + self.a0
                d[self.basis_index(n, m, 1)] = base + self.a1
        return d

    def weighted_energy_diagonal(self) -> np.ndarray:
        """Diagonal of beta1*H_B1 + beta2*H_B2 in the product basis."""
        d = np.empty(self.dim)
        for n in range(self.n_max1 + 1):
            for m in range(self.n_max2 + 1):
                val = self.beta1 * n * self.omega1 + self.beta2 * m * self.omega2
                d[self.basis_index(n, m, 0)] = val
                d[self.basis_index(n, m, 1)] = val
        return d


@dataclass(frozen=True)
class ChargeBlock:
    """A Hamiltonian on one conserved-charge block of the product basis.

    Row k is the basis state ``members[k] = (n, m, level)``: the two
    ladder occupations and the level of the working system (for the
    cavity atom, level 0, 1, 2 is |1>, |2>, |3>).  Row 0 is the block's
    probe state |n, m, 0>.
    """

    h: Operator
    members: tuple[tuple[int, int, int], ...]

    def probe_states(self, times: Sequence[float]) -> np.ndarray:
        """Amplitudes of exp(-i t h)|probe> on the members; one row per time."""
        psi0 = basis_state(len(self.members), 0)
        return SpectralPropagator(self.h).states(psi0, times)

    def level_populations(self, times: Sequence[float], n_levels: int) -> np.ndarray:
        """Probe populations summed per system level; one row per time."""
        probs = np.abs(self.probe_states(times)) ** 2
        out = np.zeros((probs.shape[0], n_levels))
        for k, (_, _, level) in enumerate(self.members):
            out[:, level] += probs[:, k]
        return out


def pair_generator(g: float) -> Operator:
    """The 2x2 generator g*sigma_x shared by every coupled sector."""
    return Operator(np.array([[0.0, g], [g, 0.0]], dtype=np.complex128), hermitian_hint=True)


def _sector_members(cfg: CompactEngineConfig, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The pairing rule over the sectors (n[k], m[k]): row k of the (k, 2, 3) int
    table is (|n, m, 0>, |n-1, m+1, 1>), each state as (n, m, level), with -1 in
    the partner slot of a sector without one (n = 0, or m at the cold cutoff)."""
    coupled = ((n >= 1) & (m < cfg.n_max2))[:, None]
    source = np.stack([n, m, 0 * n], axis=1)
    target = np.where(coupled, np.stack([n - 1, m + 1, 0 * n + 1], axis=1), -1)
    return np.stack([source, target], axis=1)


def enumerate_blocks(cfg: CompactEngineConfig) -> np.ndarray:
    """Every (n, m) sector's members as one (sectors, 2, 3) int table in
    lexicographic (n, m) order; ``pair_generator(cfg.g)`` couples each row's
    pair, and a row with -1 in its partner slot is an idle sector."""
    n, m = np.divmod(np.arange((cfg.n_max1 + 1) * (cfg.n_max2 + 1)), cfg.n_max2 + 1)
    return _sector_members(cfg, n, m)


def charge_block(cfg: CompactEngineConfig, n: int, m: int) -> ChargeBlock:
    """The block of sector (n, m): the 2x2 pair, or a 1x1 zero block when idle."""
    if not (0 <= n <= cfg.n_max1 and 0 <= m <= cfg.n_max2):
        raise ValueError(f"sector {(n, m)} outside the cutoffs")
    source, target = _sector_members(cfg, np.array([n]), np.array([m]))[0].tolist()
    if target[0] < 0:
        idle = Operator(np.zeros((1, 1), dtype=np.complex128), hermitian_hint=True)
        return ChargeBlock(idle, (tuple(source),))
    return ChargeBlock(pair_generator(cfg.g), (tuple(source), tuple(target)))


def build_interaction_hamiltonian(cfg: CompactEngineConfig) -> Operator:
    """Dense uniform-strength exchange coupling |n, m, 0> <-> |n-1, m+1, 1>.

    Written out index by index rather than from ``enumerate_blocks``, so
    it stays an independent reference for the blocks.
    """
    h = np.zeros((cfg.dim, cfg.dim), dtype=np.complex128)
    for n in range(1, cfg.n_max1 + 1):
        for m in range(cfg.n_max2):
            s, t = cfg.basis_index(n, m, 0), cfg.basis_index(n - 1, m + 1, 1)
            h[t, s] = h[s, t] = cfg.g
    return Operator(h, hermitian_hint=True)


def evolution_operator(cfg: CompactEngineConfig, t: float) -> Operator:
    """Dense engine unitary at time t: the pair propagator on every coupled sector."""
    if cfg.dim > MAX_DENSE_DIM:
        raise ValueError(f"cutoffs n_max1 = {cfg.n_max1}, n_max2 = {cfg.n_max2} give dense "
                         f"dimension {cfg.dim}, above the cap {MAX_DENSE_DIM}")
    u2 = SpectralPropagator(pair_generator(cfg.g)).at(t).entries
    members = enumerate_blocks(cfg)
    pairs = members[members[:, 1, 0] >= 0]
    idx = cfg.basis_index(pairs[..., 0], pairs[..., 1], pairs[..., 2])  # (pairs, 2)
    u = np.eye(cfg.dim, dtype=np.complex128)
    u[idx[:, :, None], idx[:, None, :]] = u2
    return Operator(u)


@dataclass(frozen=True)
class CycleReport:
    """All thermodynamic outputs of one engine cycle.

    Heats q1, q2 are per successful exchange (conditioned on the coupled
    sectors); q1_ensemble, q2_ensemble are success-weighted.  Every trace
    is sampled on ``times``, one entry (or row) per sample.  Each
    quantity is stored once: efficiency, power, the ensemble heats, the
    Clausius and commutator residuals and the partition functions are
    read-only properties computed from the stored fields.  Residuals are
    maxima over the sampled grid.
    """

    beta1: float
    beta2: float
    omega1: float
    omega2: float
    g: float
    w_ext: float
    q1: float
    q2: float
    tau: float
    amplitude_residual: float
    success_weight: float
    vacuum_weight: float
    boundary_weight: float
    times: np.ndarray
    population_trace: np.ndarray
    entanglement_trace: np.ndarray
    speed_trace: np.ndarray
    fs_distance_trace: np.ndarray
    amplitude_trace: np.ndarray
    bath1_energy_trace: np.ndarray
    bath2_energy_trace: np.ndarray
    residual_energy_trace: np.ndarray
    residual_weighted_trace: np.ndarray
    final_system_populations: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def q1_ensemble(self) -> float:
        return self.success_weight * self.q1

    @property
    def q2_ensemble(self) -> float:
        return self.success_weight * self.q2

    @property
    def eta(self) -> float:
        """w_ext / q1, and 0.0 for a cycle that moved no hot heat."""
        return self.w_ext / self.q1 if self.q1 > 0 else 0.0

    @property
    def power(self) -> float:
        return self.w_ext / self.tau

    @property
    def clausius_residual(self) -> float:
        """|beta1*q1 + beta2*q2| for the per-exchange heats."""
        return abs(self.beta1 * self.q1 + self.beta2 * self.q2)

    @property
    def commutator_residual_energy(self) -> float:
        return float(np.max(self.residual_energy_trace))

    @property
    def commutator_residual_weighted(self) -> float:
        return float(np.max(self.residual_weighted_trace))

    @property
    def partition_function1(self) -> float:
        """Untruncated hot-ladder partition function 1 / (1 - e^{-beta1 omega1})."""
        return 1.0 / (1.0 - math.exp(-self.beta1 * self.omega1))

    @property
    def partition_function2(self) -> float:
        return 1.0 / (1.0 - math.exp(-self.beta2 * self.omega2))

    @property
    def corrected_final_populations(self) -> np.ndarray:
        """Final system populations with the idle cutoff-boundary weight
        reassigned to the successful branch (the boundary sectors would
        have exchanged at any larger cutoff)."""
        p = self.final_system_populations.copy()
        p[0] -= self.boundary_weight
        p[1] += self.boundary_weight
        return p


def _require_tau(times: np.ndarray, tau: float) -> int:
    hits = np.flatnonzero(np.isclose(times, tau, rtol=1e-9, atol=0.0))
    if hits.size == 0:
        raise ValueError(f"times must include the cycle duration tau = {tau!r}")
    return int(hits[0])


def evolve_cycle(
    cfg: CompactEngineConfig, times: Sequence[float] | None = None
) -> CycleReport:
    """Run one cycle from gibbs x gibbs x |0><0| and collect every diagnostic.

    Every coupled sector evolves under the same 2x2 generator, so the
    whole ensemble is one propagated pair.  The diagnostics come in
    closed form from its amplitude rows over the grid: the entropy of
    diag(1 - p, p), the energy spread of g*sigma_x and the Fubini-Study
    distance from the first row.  Sector weights, bath energies and the
    charge gaps behind the commutator residuals come from the member
    table that ``enumerate_blocks`` returns.
    """
    if cfg.g == 0:
        raise ValueError("the cycle needs a positive coupling (tau is undefined at g = 0)")
    times = (np.linspace(0.0, cfg.tau, DEFAULT_GRID_POINTS) if times is None
             else np.array(times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    tau_index = _require_tau(times, cfg.tau)
    members = enumerate_blocks(cfg)
    coupled = members[:, 1, 0] >= 0
    # members as (n, m, level): (P, 2, 3) for the pairs (source, target), (I, 3) idle
    pairs = members[coupled]
    idle = members[~coupled, 0]

    p1 = gibbs_probabilities(cfg.omega1, cfg.beta1, cfg.n_max1)
    p2 = gibbs_probabilities(cfg.omega2, cfg.beta2, cfg.n_max2)
    pair_w = p1[pairs[:, 0, 0]] * p2[pairs[:, 0, 1]]
    idle_w = p1[idle[:, 0]] * p2[idle[:, 1]]

    success_weight = float(pair_w.sum())
    vacuum_weight = float(p1[0])
    boundary_weight = float((1.0 - p1[0]) * p2[cfg.n_max2])

    amps = SpectralPropagator(pair_generator(cfg.g)).states(basis_state(2, 0), times)
    norms = np.linalg.norm(amps, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-10))  # a NaN norm fails too
    if bad.size:
        k = bad[0]
        raise InvariantError(
            f"state vector norm {float(norms[k])!r} at t = {float(times[k])!r} "
            "differs from 1 by > 1e-10"
        )
    psi0 = StateVector(amps[0])
    transfer = np.abs(amps[:, 1]) ** 2  # per-sector excited probability

    ideal = np.stack(
        [np.cos(cfg.g * times), -1j * np.sin(cfg.g * times)], axis=1
    )
    amplitude_residual = float(np.max(np.abs(amps - ideal))) if pairs.size else 0.0

    # entropy of the system's diag(1 - p, p); a sum of two terms needs no eigvalsh order
    pr = np.clip(np.stack([1.0 - transfer, transfer], axis=1), 0.0, 1.0)
    pr = pr / pr.sum(axis=1, keepdims=True)
    kept = pr > EIGENVALUE_FLOOR
    terms = np.where(kept, pr * np.log(np.where(kept, pr, 1.0)), 0.0)
    entanglement = -np.sum(terms, axis=1) + 0.0
    # spread of g*sigma_x: it swaps the pair's amplitudes
    hpsi = cfg.g * amps[:, ::-1]
    mean = np.real(np.sum(amps.conj() * hpsi, axis=1))
    second = np.sum(hpsi.real**2 + hpsi.imag**2, axis=1)
    speed = np.sqrt(np.maximum(second - mean**2, 0.0))
    fs_dist = 0.5 * (1.0 - np.abs(amps @ psi0.amplitudes.conj()) ** 2)

    pop_excited = success_weight * transfer
    population_trace = np.stack([1.0 - pop_excited, pop_excited], axis=1)

    # a pair holds its source occupations with weight 1 - p, its target ones with p
    source, target = pairs[:, 0], pairs[:, 1]
    bath1_energy, bath2_energy = (
        (np.outer(1.0 - transfer, source[:, q]) + np.outer(transfer, target[:, q])) @ pair_w
        * omega
        + float(idle_w @ idle[:, q]) * omega
        for q, omega in ((0, cfg.omega1), (1, cfg.omega2))
    )

    # [U(t), D] on a pair block is |<1|U(t)|0>| times the gap of D between its members
    n, m, level = pairs[..., 0], pairs[..., 1], pairs[..., 2]
    e_total = n * cfg.omega1 + m * cfg.omega2 + np.array([cfg.a0, cfg.a1])[level]
    e_weighted = cfg.beta1 * n * cfg.omega1 + cfg.beta2 * m * cfg.omega2
    gap_total = max_abs(e_total[:, 0] - e_total[:, 1])
    gap_weighted = max_abs(e_weighted[:, 0] - e_weighted[:, 1])
    off = np.abs(amps[:, 1])  # the only off-diagonal entries of U(t)
    residual_energy_trace = off * gap_total
    residual_weighted_trace = off * gap_weighted

    ps_tau = float(transfer[tau_index])
    if success_weight > 0:
        q1 = cfg.omega1 * ps_tau
        q2 = -cfg.omega2 * ps_tau
    else:
        q1 = q2 = 0.0

    return CycleReport(
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        omega1=cfg.omega1,
        omega2=cfg.omega2,
        g=cfg.g,
        w_ext=cfg.w_ext,
        q1=q1,
        q2=q2,
        tau=cfg.tau,
        amplitude_residual=amplitude_residual,
        success_weight=success_weight,
        vacuum_weight=vacuum_weight,
        boundary_weight=boundary_weight,
        times=times,
        population_trace=population_trace,
        entanglement_trace=entanglement,
        speed_trace=speed,
        fs_distance_trace=fs_dist,
        amplitude_trace=amps,
        bath1_energy_trace=bath1_energy,
        bath2_energy_trace=bath2_energy,
        residual_energy_trace=residual_energy_trace,
        residual_weighted_trace=residual_weighted_trace,
        final_system_populations=population_trace[tau_index].copy(),
    )


@dataclass(frozen=True)
class SpeedDiagnostics:
    g: float
    max_speed_deviation: float
    max_distance_deviation: float
    monotone: bool

    @property
    def passed(self) -> bool:
        return (
            self.max_speed_deviation <= 1e-9
            and self.max_distance_deviation <= 1e-9
            and self.monotone
        )


def speed_and_geodesic(report: CycleReport) -> SpeedDiagnostics:
    """Check constant evolution speed g and the half-sine-squared distance law."""
    t = report.times
    v = report.speed_trace
    s = report.fs_distance_trace
    expected_s = 0.5 * np.sin(report.g * t) ** 2
    on_cycle = t <= report.tau * (1 + 1e-12)
    ds = np.diff(s[on_cycle])
    return SpeedDiagnostics(
        g=report.g,
        max_speed_deviation=float(np.max(np.abs(v - report.g))),
        max_distance_deviation=float(np.max(np.abs(s - expected_s))),
        monotone=bool(np.all(ds >= -1e-12)),
    )


@dataclass(frozen=True)
class BatterySplit:
    """Work split between the two battery ladders on the reversibility line."""

    beta1: float
    beta2: float
    a: float
    lam: float
    e_w1: float
    e_w2: float
    w_ext: float
    q1: float
    q2: float
    eta: float

    def __post_init__(self):
        target = (self.beta2 - self.beta1) * self.a
        if abs(self.beta1 * self.e_w1 + self.beta2 * self.e_w2 - target) > 1e-12:
            raise ValueError("battery split violates the weighted-energy line")
        if self.e_w1 < 0 or self.e_w2 < 0:
            raise ValueError("battery spacings must be non-negative")


def battery_split(beta1: float, beta2: float, a: float, lam: float = 0.0) -> BatterySplit:
    """Split the extracted work over two battery qubits.

    The reversibility constraint beta1*E_W1 + beta2*E_W2 = (beta2-beta1)*a
    leaves one free parameter; lam = 0 puts everything on the cold-side
    battery (E_W1 = 0) and lam = 1 everything on the hot side.
    """
    if beta1 > beta2:
        raise NoGradientError(f"beta1 = {beta1} exceeds beta2 = {beta2}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    budget = (beta2 - beta1) * a
    e_w1 = lam * budget / beta1
    e_w2 = (1.0 - lam) * budget / beta2
    w_ext = e_w1 + e_w2
    if budget > 0:
        q1 = w_ext * beta2 / (beta2 - beta1)
        q2 = w_ext - q1
        eta = w_ext / q1
    else:
        q1 = q2 = 0.0
        eta = 0.0
    return BatterySplit(
        beta1=beta1, beta2=beta2, a=a, lam=lam,
        e_w1=e_w1, e_w2=e_w2, w_ext=w_ext, q1=q1, q2=q2, eta=eta,
    )
