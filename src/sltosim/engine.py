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
sector; ``pair_generator(g)`` is every pair's 2x2 block, and
``exchange_amplitudes(g, times)`` its evolution from the source member
in closed form.  A block has one form, its members with an (R, k, k)
stack of small Hermitian matrices on them: the cavity model in
``optics`` builds its <= 3-state blocks so.  A stack's probe
populations per system level over uniform time grids come in closed form
from its eigenpairs (``linalg.group_populations``), and
``check_unit_sum`` holds them to a sum of 1 within 1e-10.
Dense full-space matrices are assembled only for export
(``evolution_operator``) and as the test oracle
(``build_interaction_hamiltonian``).

``evolve_cycle`` propagates the one 2x2 pair block over its fixed time
grid on [0, tau] and takes every per-sample diagnostic from its
amplitude rows in closed form (entanglement entropy, energy spread,
Fubini-Study distance).  Sector weights and the charge gaps behind the
commutator residuals are read from the member table.  A pair holds its
source occupations with weight 1 - p(t) and its target ones with weight
p(t), so each bath-energy trace is two weighted sums over the member
table, broadcast over the grid by the transfer p(t).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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
from .thermal import boltzmann_factor, gibbs_probabilities, truncation_for_tail

#: number of uniform time samples on [0, tau], the one cycle grid
DEFAULT_GRID_POINTS = 101

#: caps checked before allocating: the (n, m) sectors of an engine (a cycle takes
#: about 1.7 kB per sector) and the dimension of the dense ``evolution_operator``
MAX_SECTORS = 250_000
MAX_DENSE_DIM = 8192


def check_coupling(g: float, name: str = "coupling g"):
    """Refuse a cycle coupling whose g*g is not a finite normal float, as ``name``."""
    if not sys.float_info.min <= g * g < math.inf:
        raise ValueError(f"{name} = {g!r} is outside the cycle's range: "
                         f"g*g must lie in [{sys.float_info.min!r}, inf)")


def check_sector(cfg, n: int, m: int):
    """Refuse a sector (n, m) outside the cutoffs of ``cfg``, a config of either engine."""
    if not (0 <= n <= cfg.n_max1 and 0 <= m <= cfg.n_max2):
        raise ValueError(f"sector {(n, m)} outside the cutoffs")


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
    coupling finite, a tail_delta in (0, 1) even when both cutoffs are
    given, beta1 <= beta2 (equality gives the degenerate engine
    with zero work), a derived omega2 that is finite and positive, and on
    each ladder a Boltzmann factor e^{-beta omega} that is not 1 (the
    partition functions stay finite), checked before a cutoff is derived,
    and non-negative cutoffs with at most MAX_SECTORS sectors, checked
    before anything is allocated.
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
            if value <= 0 and name in ("beta1", "beta2", "omega1"):
                raise ValueError(f"{name} must be positive, got {value}")
        if not 0 < self.tail_delta < 1:
            raise ValueError(f"tail_delta must lie in (0, 1), got {self.tail_delta}")
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
        for name, omega, beta, product in (("n_max1", self.omega1, self.beta1, "beta1*omega1"),
                                           ("n_max2", self.omega2, self.beta2, "beta2*omega2")):
            boltzmann_factor(omega, beta, product)
            if getattr(self, name) is None:
                n_max = truncation_for_tail(omega, beta, self.tail_delta).n_max_used
                object.__setattr__(self, name, n_max)
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
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

    def charges(self, n, m, level):
        """The two conserved charges of the basis state |n, m, level>, for ints
        or int arrays: the total energy n*omega1 + m*omega2 + a_level and the
        weighted energy beta1*n*omega1 + beta2*m*omega2.  A charge too large
        for a float is inf."""
        with np.errstate(over="ignore"):
            total = n * self.omega1 + m * self.omega2 + np.array([self.a0, self.a1]).take(level)
            weighted = self.beta1 * n * self.omega1 + self.beta2 * m * self.omega2
        return total, weighted

    def _basis_charges(self):
        return self.charges(*np.unravel_index(np.arange(self.dim),
                                              (self.n_max1 + 1, self.n_max2 + 1, 2)))

    def total_energy_diagonal(self) -> np.ndarray:
        """Diagonal of H_B1 + H_B2 + H_S in the product basis."""
        return self._basis_charges()[0]

    def weighted_energy_diagonal(self) -> np.ndarray:
        """Diagonal of beta1*H_B1 + beta2*H_B2 in the product basis."""
        return self._basis_charges()[1]


def check_unit_sum(pops: np.ndarray, window: float, where: str):
    """Raise ``InvariantError`` unless every row of ``pops``, populations over the
    grid ``np.linspace(0, window, len(pops))``, sums to 1 within 1e-10; the
    message names the first bad sample's time and ``where`` it happened."""
    off = pops.sum(axis=1)
    off -= 1.0
    if not np.abs(off, out=off).max() <= 1e-10:  # a NaN sum fails too
        k = np.flatnonzero(~(off <= 1e-10))[0]
        total = pops.sum(axis=1)
        t = np.linspace(0.0, window, len(pops))[k]
        raise InvariantError(f"level populations sum to {float(total[k])!r} at "
                             f"t = {float(t)!r} ({where}), not 1 within 1e-10")


def pair_generator(g: float) -> Operator:
    """The 2x2 generator g*sigma_x shared by every coupled sector."""
    return Operator(np.array([[0.0, g], [g, 0.0]], dtype=np.complex128), hermitian_hint=True)


def exchange_amplitudes(g: float, times: np.ndarray) -> np.ndarray:
    """exp(-i t g*sigma_x)|0> as (len(times), 2) rows [cos(g t), -i sin(g t)]: the
    cycle's ``amplitudes`` reference and the detuning sweep's effective model."""
    amps = np.zeros((len(times), 2), dtype=np.complex128)
    gt = g * times
    np.cos(gt, out=amps.real[:, 0])
    np.negative(np.sin(gt), out=amps.imag[:, 1])
    return amps


def _sector_members(cfg: CompactEngineConfig, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The pairing rule over the sectors (n[k], m[k]): row k of the (k, 2, 3) int
    table is (|n, m, 0>, |n-1, m+1, 1>), each state as (n, m, level), with -1 in
    the partner slot of a sector without one (n = 0, or m at the cold cutoff)."""
    members = np.full((len(n), 2, 3), -1, dtype=n.dtype)
    members[:, 0, 0], members[:, 0, 1], members[:, 0, 2] = n, m, 0
    # one masked pass per target column: a masked (k, 3) pass runs row by row
    coupled = (n >= 1) & (m < cfg.n_max2)
    np.subtract(n, 1, out=members[:, 1, 0], where=coupled)
    np.add(m, 1, out=members[:, 1, 1], where=coupled)
    np.copyto(members[:, 1, 2], 1, where=coupled)
    return members


def enumerate_blocks(cfg: CompactEngineConfig) -> np.ndarray:
    """Every (n, m) sector's members as one (sectors, 2, 3) int table in
    lexicographic (n, m) order; ``pair_generator(cfg.g)`` couples each row's
    pair, and a row with -1 in its partner slot is an idle sector."""
    n, m = np.divmod(np.arange((cfg.n_max1 + 1) * (cfg.n_max2 + 1)), cfg.n_max2 + 1)
    return _sector_members(cfg, n, m)


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


def check_dense_cap(cfg: CompactEngineConfig):
    """Refuse an engine whose dense ``evolution_operator`` would exceed MAX_DENSE_DIM."""
    if cfg.dim > MAX_DENSE_DIM:
        raise ValueError(f"cutoffs n_max1 = {cfg.n_max1}, n_max2 = {cfg.n_max2} give dense "
                         f"dimension {cfg.dim}, above the cap {MAX_DENSE_DIM}")


def evolution_operator(cfg: CompactEngineConfig, t: float) -> Operator:
    """Dense engine unitary at time t: the pair propagator on every coupled sector."""
    check_dense_cap(cfg)
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
    is sampled on ``times``, the fixed grid on [0, tau], one entry (or
    row) per sample.  Each quantity is stored once: efficiency, power,
    the ensemble heats, the Clausius and commutator residuals and the
    partition functions are read-only properties computed from the
    stored fields.  Residuals are maxima over the sampled grid.
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
        return float(self.residual_energy_trace.max())

    @property
    def commutator_residual_weighted(self) -> float:
        return float(self.residual_weighted_trace.max())

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


def evolve_cycle(cfg: CompactEngineConfig) -> CycleReport:
    """Run one cycle from gibbs x gibbs x |0><0| and collect every diagnostic.

    The grid is fixed, DEFAULT_GRID_POINTS uniform times on [0, tau], and
    a coupling whose g*g is not a finite normal float (g = 0, tau or the
    energy spread out of range) is refused before it is built, as is a
    cycle whose largest level energy, plain or temperature-weighted, or
    whose power 2*g*w_ext/pi is not finite.

    Every coupled sector evolves under the same 2x2 generator, so the
    whole ensemble is one propagated pair.  The diagnostics come in
    closed form from its amplitude rows over the grid: the entropy of
    diag(1 - p, p), the energy spread of g*sigma_x and the Fubini-Study
    distance from the first row.  Sector weights and the charge gaps
    behind the commutator residuals come from the member table that
    ``enumerate_blocks`` returns.  Each bath energy is
    (1 - p(t)) * sum_w(source) + p(t) * sum_w(target) quanta, the two sums
    taken once over the pairs with their thermal weights, plus the idle
    sectors' constant share.  The heats q1 = omega1 * p(tau) and
    q2 = -omega2 * p(tau) are per exchange: they need a coupled sector,
    not a nonzero success weight.
    """
    check_coupling(cfg.g)
    # the largest entries of both charge diagonals and the power that the report checks
    largest = cfg.charges(cfg.n_max1, cfg.n_max2, 1)
    for name, value in (
        ("largest level energy n_max1*omega1 + n_max2*omega2 + a1", float(largest[0])),
        ("largest weighted level energy beta1*n_max1*omega1 + beta2*n_max2*omega2",
         float(largest[1])),
        ("power 2*g*(omega1 - omega2)/pi", 2 * cfg.g * cfg.w_ext / math.pi),
    ):
        if not math.isfinite(value):
            raise ValueError(f"the cycle's {name} is {value!r}; it must be finite")
    # np.linspace stores its stop, tau, in the last slot exactly
    times = np.linspace(0.0, cfg.tau, DEFAULT_GRID_POINTS)
    members = enumerate_blocks(cfg)
    coupled = members[:, 1, 0] >= 0
    # members as (n, m, level): (P, 2, 3) for the pairs (source, target), (I, 3) idle
    pairs = members.compress(coupled, axis=0)
    idle = members.compress(~coupled, axis=0)[:, 0]

    p1 = gibbs_probabilities(cfg.omega1, cfg.beta1, cfg.n_max1)
    p2 = gibbs_probabilities(cfg.omega2, cfg.beta2, cfg.n_max2)
    pair_w = p1[pairs[:, 0, 0]] * p2[pairs[:, 0, 1]]
    idle_w = p1[idle[:, 0]] * p2[idle[:, 1]]

    success_weight = float(pair_w.sum())
    vacuum_weight = float(p1[0])
    boundary_weight = float((1.0 - p1[0]) * p2[cfg.n_max2])

    amps = SpectralPropagator(pair_generator(cfg.g)).states(basis_state(2, 0), times)
    norms = np.sqrt((amps.real**2 + amps.imag**2).sum(axis=1))
    unit = np.abs(norms - 1.0) <= 1e-10  # a NaN norm fails too
    if not unit.all():
        k = np.flatnonzero(~unit)[0]
        raise InvariantError(
            f"state vector norm {float(norms[k])!r} at t = {float(times[k])!r} "
            "differs from 1 by > 1e-10"
        )
    psi0 = StateVector(amps[0])
    off = np.abs(amps[:, 1])  # the only off-diagonal entries of U(t)
    transfer = off**2  # per-sector excited probability
    rest = 1.0 - transfer

    ideal = exchange_amplitudes(cfg.g, times)
    amplitude_residual = float(np.abs(amps - ideal).max()) if pairs.size else 0.0

    # entropy of the system's diag(1 - p, p); a sum of two terms needs no eigvalsh order
    pr = np.empty((len(times), 2))
    pr[:, 0], pr[:, 1] = rest, transfer
    np.clip(pr, 0.0, 1.0, out=pr)
    pr /= pr.sum(axis=1, keepdims=True)
    terms = pr * np.log(pr, out=np.zeros_like(pr), where=pr > EIGENVALUE_FLOOR)
    entanglement = -terms.sum(axis=1) + 0.0
    # spread of g*sigma_x: it swaps the pair's amplitudes
    hpsi = cfg.g * amps[:, ::-1]
    mean = (amps.conj() * hpsi).sum(axis=1).real
    second = (hpsi.real**2 + hpsi.imag**2).sum(axis=1)
    speed = np.sqrt(np.maximum(second - mean**2, 0.0))
    fs_dist = 0.5 * (1.0 - np.abs(amps @ psi0.amplitudes.conj()) ** 2)

    population_trace = np.empty((len(times), 2))
    pop_excited = np.multiply(success_weight, transfer, out=population_trace[:, 1])
    np.subtract(1.0, pop_excited, out=population_trace[:, 0])

    # a pair holds its source occupations with weight 1 - p, its target ones with p
    source, target = pairs[:, 0], pairs[:, 1]
    bath1_energy, bath2_energy = (
        (rest * (source[:, q] @ pair_w) + transfer * (target[:, q] @ pair_w)) * omega
        + float(idle_w @ idle[:, q]) * omega
        for q, omega in ((0, cfg.omega1), (1, cfg.omega2))
    )

    # [U(t), D] on a pair block is |<1|U(t)|0>| times the gap of D between its members
    e_total, e_weighted = cfg.charges(pairs[..., 0], pairs[..., 1], pairs[..., 2])
    gap_total = max_abs(e_total[:, 0] - e_total[:, 1])
    gap_weighted = max_abs(e_weighted[:, 0] - e_weighted[:, 1])
    residual_energy_trace = off * gap_total
    residual_weighted_trace = off * gap_weighted

    ps_tau = float(transfer[-1])
    q1, q2 = (cfg.omega1 * ps_tau, -cfg.omega2 * ps_tau) if pairs.size else (0.0, 0.0)

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
        final_system_populations=population_trace[-1].copy(),
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
    ds = np.diff(s)
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
