"""Two-level engine running a one-step cycle between two bosonic ladders.

The working system is a two-level system S whose gap equals the spacing
difference of two thermal ladders B1 (hot) and B2 (cold) held at
resonance beta1*omega1 = beta2*omega2.  Total-energy sectors pair the
basis states |n, m, 0> and |n-1, m+1, 1>, and the driving Hamiltonian
couples every pair with one uniform strength g.  Each pair is then an
exact 2x2 problem: over a half Rabi period the hot ladder loses one
quantum, the cold ladder gains one, and S is excited, extracting the
energy difference as work.  Boundary sectors (n = 0, or m at the cold
cutoff) have no partner and stay idle, which keeps both conservation
laws exact at finite truncation; their weight is reported instead of
being approximated away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    Operator,
    SpectralPropagator,
    StateVector,
    basis_state,
    DensityMatrix,
    energy_uncertainty,
    fubini_study_distance,
    von_neumann_entropy,
)

RESONANCE_ATOL = 1e-12

#: default number of uniform time samples on [0, tau]
DEFAULT_GRID_POINTS = 101


class DegenerateCycleError(ValueError):
    """The cycle moved no hot heat, so efficiency is undefined."""


class NoGradientError(ValueError):
    """beta1 > beta2 leaves no temperature gradient to run the engine on."""


def _boltzmann_probs(omega: float, beta: float, n_max: int) -> np.ndarray:
    w = np.exp(-beta * omega * np.arange(n_max + 1, dtype=float))
    return w / w.sum()


@dataclass(frozen=True)
class CompactEngineConfig:
    """Parameters of the two-ladder engine.

    Constraints: every energy, temperature and the coupling finite,
    beta1 <= beta2 (equality gives the degenerate engine
    with zero work), resonance beta1*omega1 = beta2*omega2 to 1e-12,
    and system gap a1 - a0 = omega1 - omega2 to 1e-12.
    """

    beta1: float
    beta2: float
    omega1: float
    omega2: float
    g: float
    n_max1: int
    n_max2: int
    a0: float = 0.0
    a1: float | None = None

    def __post_init__(self):
        if self.a1 is None:
            object.__setattr__(self, "a1", self.a0 + self.omega1 - self.omega2)
        for name in ("beta1", "beta2", "omega1", "omega2", "g", "a0", "a1"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if min(self.beta1, self.beta2, self.omega1, self.omega2) <= 0:
            raise ValueError("temperatures and frequencies must be positive")
        if self.beta1 > self.beta2:
            raise NoGradientError(
                f"beta1 = {self.beta1} must not exceed beta2 = {self.beta2}"
            )
        if abs(self.beta1 * self.omega1 - self.beta2 * self.omega2) > RESONANCE_ATOL:
            raise ValueError(
                "resonance violated: beta1*omega1 != beta2*omega2 "
                f"({self.beta1 * self.omega1} vs {self.beta2 * self.omega2})"
            )
        if abs((self.a1 - self.a0) - (self.omega1 - self.omega2)) > RESONANCE_ATOL:
            raise ValueError("system gap a1 - a0 must equal omega1 - omega2")
        if self.a1 < self.a0:
            raise ValueError("a1 must not be below a0")
        if self.g < 0:
            raise ValueError(f"coupling g must be non-negative, got {self.g}")
        if self.n_max1 < 0 or self.n_max2 < 0:
            raise ValueError("cutoffs must be non-negative")

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
class BlockSector:
    """One conserved total-energy sector, labelled by ladder occupations (n, m).

    Coupled sectors pair the source |n, m, 0> with the target
    |n-1, m+1, 1>; idle sectors carry target_index = -1.
    """

    n: int
    m: int
    source_index: int
    target_index: int
    coupled: bool


def enumerate_blocks(cfg: CompactEngineConfig) -> list[BlockSector]:
    """All (n, m) sectors in lexicographic order, with exchange partners."""
    blocks = []
    for n in range(cfg.n_max1 + 1):
        for m in range(cfg.n_max2 + 1):
            src = cfg.basis_index(n, m, 0)
            if n >= 1 and m < cfg.n_max2:
                tgt = cfg.basis_index(n - 1, m + 1, 1)
                de_total = (cfg.omega1 - cfg.omega2) - (cfg.a1 - cfg.a0)
                de_weighted = cfg.beta1 * cfg.omega1 - cfg.beta2 * cfg.omega2
                if abs(de_total) > RESONANCE_ATOL or abs(de_weighted) > RESONANCE_ATOL:
                    raise ValueError(
                        f"sector ({n}, {m}) violates conservation: "
                        f"dE = {de_total:.3e}, weighted = {de_weighted:.3e}"
                    )
                blocks.append(BlockSector(n, m, src, tgt, True))
            else:
                blocks.append(BlockSector(n, m, src, -1, False))
    return blocks


def pair_generator(g: float) -> Operator:
    """The 2x2 generator g*sigma_x shared by every coupled sector."""
    return Operator(np.array([[0.0, g], [g, 0.0]], dtype=np.complex128), hermitian_hint=True)


def build_interaction_hamiltonian(
    cfg: CompactEngineConfig, blocks: list[BlockSector] | None = None
) -> Operator:
    """Uniform-strength exchange coupling over all coupled sectors."""
    if blocks is None:
        blocks = enumerate_blocks(cfg)
    h = np.zeros((cfg.dim, cfg.dim), dtype=np.complex128)
    for b in blocks:
        if b.coupled:
            h[b.target_index, b.source_index] = cfg.g
            h[b.source_index, b.target_index] = cfg.g
    return Operator(h, hermitian_hint=True)


def evolution_operator(
    cfg: CompactEngineConfig, t: float, blocks: list[BlockSector] | None = None
) -> Operator:
    """Dense engine unitary at time t, assembled sector by sector."""
    if blocks is None:
        blocks = enumerate_blocks(cfg)
    u2 = SpectralPropagator(pair_generator(cfg.g)).at(t).entries
    u = np.eye(cfg.dim, dtype=np.complex128)
    for b in blocks:
        if b.coupled:
            s, tg = b.source_index, b.target_index
            u[s, s] = u2[0, 0]
            u[s, tg] = u2[0, 1]
            u[tg, s] = u2[1, 0]
            u[tg, tg] = u2[1, 1]
    return Operator(u)


@dataclass(frozen=True)
class CycleReport:
    """All thermodynamic outputs of one engine cycle.

    Heats q1, q2 are per successful exchange (conditioned on the coupled
    sectors); q1_ensemble, q2_ensemble are success-weighted.  Trace
    arrays are sampled on ``times``; pair-style traces carry (t, value)
    rows.  Residuals are maxima over the sampled grid.
    """

    engine: str
    beta1: float
    beta2: float
    omega1: float
    omega2: float
    g: float
    w_ext: float
    q1: float
    q2: float
    q1_ensemble: float
    q2_ensemble: float
    eta: float
    tau: float
    power: float
    clausius_residual: float
    commutator_residual_energy: float
    commutator_residual_weighted: float
    amplitude_residual: float
    success_weight: float
    vacuum_weight: float
    boundary_weight: float
    partition_function1: float
    partition_function2: float
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
        if self.q1 > 0 and abs(self.eta - self.w_ext / self.q1) > 1e-9:
            raise ValueError("report inconsistency: eta != w_ext / q1")
        if abs(self.power - self.w_ext / self.tau) > 1e-12:
            raise ValueError("report inconsistency: power != w_ext / tau")
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

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


def default_times(cfg) -> np.ndarray:
    return np.linspace(0.0, cfg.tau, DEFAULT_GRID_POINTS)


def evolve_cycle(
    cfg: CompactEngineConfig, times: Sequence[float] | None = None
) -> CycleReport:
    """Run one cycle from gibbs x gibbs x |0><0| and collect every diagnostic."""
    if cfg.g == 0:
        raise ValueError("the cycle needs a positive coupling (tau is undefined at g = 0)")
    times = default_times(cfg) if times is None else np.array(times, dtype=float)
    tau_index = _require_tau(times, cfg.tau)
    blocks = enumerate_blocks(cfg)

    p1 = _boltzmann_probs(cfg.omega1, cfg.beta1, cfg.n_max1)
    p2 = _boltzmann_probs(cfg.omega2, cfg.beta2, cfg.n_max2)
    pair_n = np.array([b.n for b in blocks if b.coupled], dtype=int)
    pair_m = np.array([b.m for b in blocks if b.coupled], dtype=int)
    pair_w = p1[pair_n] * p2[pair_m] if pair_n.size else np.zeros(0)
    idle_n = np.array([b.n for b in blocks if not b.coupled], dtype=int)
    idle_m = np.array([b.m for b in blocks if not b.coupled], dtype=int)
    idle_w = p1[idle_n] * p2[idle_m] if idle_n.size else np.zeros(0)

    success_weight = float(pair_w.sum())
    vacuum_weight = float(p1[0])
    boundary_weight = float((1.0 - p1[0]) * p2[cfg.n_max2])

    gen2 = pair_generator(cfg.g)
    amps = SpectralPropagator(gen2).states(basis_state(2, 0), times)
    transfer = np.abs(amps[:, 1]) ** 2  # per-sector excited probability

    ideal = np.stack(
        [np.cos(cfg.g * times), -1j * np.sin(cfg.g * times)], axis=1
    )
    amplitude_residual = float(np.max(np.abs(amps - ideal))) if pair_n.size else 0.0

    entanglement = np.empty_like(times)
    speed = np.empty_like(times)
    fs_dist = np.empty_like(times)
    psi0 = StateVector(amps[0])
    for k in range(times.size):
        psi = StateVector(amps[k])
        pr = np.clip(np.array([1.0 - transfer[k], transfer[k]]), 0.0, 1.0)
        pr = pr / pr.sum()
        entanglement[k] = von_neumann_entropy(
            DensityMatrix(np.diag(pr.astype(np.complex128)))
        )
        speed[k] = energy_uncertainty(gen2, psi)
        fs_dist[k] = fubini_study_distance(psi0, psi)

    pop_excited = success_weight * transfer
    population_trace = np.stack([1.0 - pop_excited, pop_excited], axis=1)

    e1_pairs = (
        (np.outer(1.0 - transfer, pair_n) + np.outer(transfer, pair_n - 1))
        @ pair_w * cfg.omega1
        if pair_n.size
        else np.zeros_like(times)
    )
    e1_idle = float(idle_w @ idle_n) * cfg.omega1 if idle_n.size else 0.0
    e2_pairs = (
        (np.outer(1.0 - transfer, pair_m) + np.outer(transfer, pair_m + 1))
        @ pair_w * cfg.omega2
        if pair_m.size
        else np.zeros_like(times)
    )
    e2_idle = float(idle_w @ idle_m) * cfg.omega2 if idle_m.size else 0.0
    bath1_energy = e1_pairs + e1_idle
    bath2_energy = e2_pairs + e2_idle

    d_total = cfg.total_energy_diagonal()
    d_weighted = cfg.weighted_energy_diagonal()
    if pair_n.size:
        src = np.array([b.source_index for b in blocks if b.coupled])
        tgt = np.array([b.target_index for b in blocks if b.coupled])
        gap_total = float(np.max(np.abs(d_total[src] - d_total[tgt])))
        gap_weighted = float(np.max(np.abs(d_weighted[src] - d_weighted[tgt])))
    else:
        gap_total = gap_weighted = 0.0
    off = np.abs(amps[:, 1])  # the only off-diagonal entries of U(t)
    residual_energy_trace = off * gap_total
    residual_weighted_trace = off * gap_weighted

    ps_tau = float(transfer[tau_index])
    if success_weight > 0:
        q1 = cfg.omega1 * ps_tau
        q2 = -cfg.omega2 * ps_tau
    else:
        q1 = q2 = 0.0
    eta = cfg.w_ext / q1 if q1 > 0 else 0.0
    power = cfg.w_ext / cfg.tau

    z1 = 1.0 / (1.0 - math.exp(-cfg.beta1 * cfg.omega1))
    z2 = 1.0 / (1.0 - math.exp(-cfg.beta2 * cfg.omega2))

    return CycleReport(
        engine="abstract-cycle",
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        omega1=cfg.omega1,
        omega2=cfg.omega2,
        g=cfg.g,
        w_ext=cfg.w_ext,
        q1=q1,
        q2=q2,
        q1_ensemble=success_weight * q1,
        q2_ensemble=success_weight * q2,
        eta=eta,
        tau=cfg.tau,
        power=power,
        clausius_residual=abs(cfg.beta1 * q1 + cfg.beta2 * q2),
        commutator_residual_energy=float(np.max(residual_energy_trace)),
        commutator_residual_weighted=float(np.max(residual_weighted_trace)),
        amplitude_residual=amplitude_residual,
        success_weight=success_weight,
        vacuum_weight=vacuum_weight,
        boundary_weight=boundary_weight,
        partition_function1=z1,
        partition_function2=z2,
        times=times,
        population_trace=population_trace,
        entanglement_trace=np.stack([times, entanglement], axis=1),
        speed_trace=np.stack([times, speed], axis=1),
        fs_distance_trace=np.stack([times, fs_dist], axis=1),
        amplitude_trace=amps,
        bath1_energy_trace=bath1_energy,
        bath2_energy_trace=bath2_energy,
        residual_energy_trace=residual_energy_trace,
        residual_weighted_trace=residual_weighted_trace,
        final_system_populations=population_trace[tau_index].copy(),
    )


def clausius_check(report: CycleReport) -> float:
    """|beta1*Q1 + beta2*Q2| for the per-exchange heats of a report."""
    return abs(report.beta1 * report.q1 + report.beta2 * report.q2)


def efficiency_and_power(report: CycleReport) -> tuple[float, float]:
    """Recompute (eta, power) from the report's heats and duration."""
    if report.q1 <= 0:
        raise DegenerateCycleError("no heat left the hot bath; efficiency undefined")
    return report.w_ext / report.q1, report.w_ext / report.tau


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
    t = report.speed_trace[:, 0]
    v = report.speed_trace[:, 1]
    s = report.fs_distance_trace[:, 1]
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
