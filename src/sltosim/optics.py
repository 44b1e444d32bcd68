"""Cavity-QED engine: a three-level atom exchanging quanta with two thermal modes.

The atom has a V-shaped level pair |1>, |2> bridged through a detuned
upper level |3>; each leg couples to its own cavity mode with an
intensity-dependent strength.  At large detuning the upper level only
mediates: a hot photon is absorbed, a cold photon emitted, and the atom
ends in |2>, from which the stored gap energy can leave by stimulated
emission into a resonant extraction mode (bookkept, not simulated).

``OpticsEngineConfig`` holds only the free parameters: the two
temperatures, the hot frequency omega1, the leg couplings g1, g2, the
detuning Delta of |3> from both photons, and the cutoffs.  The ladder
resonance beta1*omega1 = beta2*omega2 fixes the cold frequency and the
two-mode resonance fixes the work gap omega0 = omega1 - omega2, so both
are derived properties and hold by construction.

Two Hamiltonians live here.  The full three-level model keeps the upper
level and the intensity profiles explicitly; it is the ground truth for
the detuning sweep.  The effective two-level model couples the sectors
|n, m, 1> <-> |n-1, m+1, 2> with one uniform strength g = g1*g2/Delta
and is exactly the two-ladder exchange engine on a relabelled system,
so its cycle is delegated to that machinery.

Both Hamiltonians conserve the excitation charge, so a probe state
|n, m, 1> never leaves its charge block: {|n, m, 1>, |n-1, m, 3>,
|n-1, m+1, 2>} in the full model and {|n, m, 1>, |n-1, m+1, 2>} in the
effective one, with members outside the cutoffs dropped.  Both are
``engine.ChargeBlock``s: ``full_charge_block`` builds the <= 3-state
block straight from the profile tables, and the effective block is the
exchange engine's own ``charge_block`` of ``effective_compact_config``.
The detuning sweep and the design check evolve only these blocks.  The
dense builders ``build_full_hamiltonian`` and
``build_effective_hamiltonian`` assemble the whole product space; they
are the reference the tests compare the blocks against.

Intensity profiles are tables theta_k(j), f_k(j) over Fock index j.
The coupling operator convention is fixed once: the matrix element of
theta_k(N_k) a_k between |n> and |n-1> is theta_k(n-1) * sqrt(n), and
theta_k(0) = 0 regularizes the profiles that diverge at the vacuum.
With that convention the table theta(j) = (j+1)^(-1/2) makes every
transition element above the regularized lowest one exactly 1, which is
the profile whose full model converges to the uniform effective model;
the inverse-intensity table theta(j) = j^(-1/2) reaches uniform elements
only asymptotically in j and is kept as the design target family.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import (
    ChargeBlock,
    CompactEngineConfig,
    CycleReport,
    build_interaction_hamiltonian,
    charge_block,
    evolve_cycle,
)
# SpectralPropagator is unused here; bench/tracing.py patches it by name
from .linalg import Operator, ShapeError, SpectralPropagator
from .thermal import truncation_for_tail

#: time samples per period of the fastest frequency the detuning sweep asks for,
#: and the most samples per detuning (past it the sweep reports a lower density)
SAMPLES_PER_PERIOD = 8.0
MAX_SAMPLES = 200_000


@dataclass(frozen=True)
class OpticsEngineConfig:
    """Free parameters of the cavity engine; the resonances fix the rest.

    The cold frequency omega2 = beta1*omega1/beta2 and the atom's work gap
    omega0 = omega1 - omega2 are derived, never stored, and the upper
    level lies ``delta`` above the photon on both legs.  A cutoff left as
    None is the smallest one whose Gibbs tail is below ``tail_delta``.
    Requires finite parameters, beta1 < beta2, cutoffs of at least 1, and
    delta/g_k at or above ``min_detuning_ratio``.
    """

    beta1: float
    beta2: float
    omega1: float
    g1: float
    g2: float
    delta: float
    n_max1: int | None = None
    n_max2: int | None = None
    min_detuning_ratio: float = 20.0
    tail_delta: float = 1e-6

    def __post_init__(self):
        for name in ("beta1", "beta2", "omega1", "g1", "g2", "delta", "min_detuning_ratio"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if min(self.beta1, self.beta2, self.omega1) <= 0:
            raise ValueError("temperatures and frequencies must be positive")
        if self.beta1 >= self.beta2:
            raise ValueError("need beta1 < beta2 (a real temperature gradient)")
        # rounding can still put omega2 at or above omega1 when beta1 is just below beta2
        if not 0 < self.omega2 < self.omega1:
            raise ValueError(f"derived omega2 = beta1*omega1/beta2 = {self.omega2} "
                             "must lie in (0, omega1)")
        if self.g1 < 0 or self.g2 < 0:
            raise ValueError("couplings g1, g2 must be non-negative")
        if self.delta <= 0:
            raise ValueError("detuning must be positive")
        if max(self.g1, self.g2) > 0:
            ratio = self.delta / max(self.g1, self.g2)
            if ratio < self.min_detuning_ratio:
                raise ValueError(
                    f"detuning ratio {ratio:.2f} below configured minimum "
                    f"{self.min_detuning_ratio}"
                )
        for name, omega, beta in (("n_max1", self.omega1, self.beta1),
                                  ("n_max2", self.omega2, self.beta2)):
            if getattr(self, name) is None:
                n_max = truncation_for_tail(omega, beta, self.tail_delta).n_max_used
                object.__setattr__(self, name, n_max)
        if self.n_max1 < 1 or self.n_max2 < 1:
            raise ValueError(f"cutoffs must be >= 1, got {self.n_max1}, {self.n_max2}")

    @property
    def omega2(self) -> float:
        return self.beta1 * self.omega1 / self.beta2

    @property
    def omega0(self) -> float:
        return self.omega1 - self.omega2

    @property
    def g(self) -> float:
        return self.g1 * self.g2 / self.delta

    @property
    def tau(self) -> float:
        return math.pi / (2.0 * self.g) if self.g > 0 else math.inf

    @property
    def full_dim(self) -> int:
        return (self.n_max1 + 1) * (self.n_max2 + 1) * 3


@dataclass(frozen=True)
class CouplingProfile:
    """Intensity tables theta_k(j) and f_k(j) for j = 0..n_max_k.

    theta(0) = 0 by regularization.  The shift tables are tied to the
    couplings by f_k(j) = (g_k^2/Delta) * theta_k(j)^2 for j >= 1;
    ``rule_residual`` records how far a table pair strays from that rule
    (zero unless the profile came from fitted data).
    """

    theta1: np.ndarray
    theta2: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    rule_residual: float = 0.0

    def __post_init__(self):
        for name in ("theta1", "theta2", "f1", "f2"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.theta1.shape != self.f1.shape or self.theta2.shape != self.f2.shape:
            raise ShapeError("theta and f tables must have matching lengths")
        if abs(self.theta1[0]) > 0 or abs(self.theta2[0]) > 0:
            raise ValueError("theta(0) must be 0 (vacuum regularization)")
        if abs(self.f1[0]) > 0 or abs(self.f2[0]) > 0:
            raise ValueError("f(0) must be 0 (vacuum regularization)")


def coupling_profile_from_tables(
    cfg: OpticsEngineConfig,
    theta1: Sequence[float],
    theta2: Sequence[float],
    f1: Sequence[float] | None = None,
    f2: Sequence[float] | None = None,
    require_rule: bool = True,
) -> CouplingProfile:
    """Build a profile for cfg's cutoffs, deriving or checking the f tables."""
    theta1 = np.array(theta1, dtype=float)
    theta2 = np.array(theta2, dtype=float)
    if theta1.size != cfg.n_max1 + 1 or theta2.size != cfg.n_max2 + 1:
        raise ShapeError(
            f"theta tables must cover Fock indices 0..n_max "
            f"({cfg.n_max1 + 1}, {cfg.n_max2 + 1} entries)"
        )
    rule1 = (cfg.g1**2 / cfg.delta) * theta1**2
    rule2 = (cfg.g2**2 / cfg.delta) * theta2**2
    rule1[0] = 0.0
    rule2[0] = 0.0
    if f1 is None and f2 is None:
        return CouplingProfile(theta1, theta2, rule1, rule2)
    f1 = np.array(f1, dtype=float)
    f2 = np.array(f2, dtype=float)
    residual = max(
        float(np.max(np.abs(f1[1:] - rule1[1:]))) if f1.size > 1 else 0.0,
        float(np.max(np.abs(f2[1:] - rule2[1:]))) if f2.size > 1 else 0.0,
    )
    if require_rule and residual > 1e-12:
        raise ValueError(
            f"f tables deviate from (g^2/Delta) theta^2 by {residual:.3e}"
        )
    return CouplingProfile(theta1, theta2, f1, f2, rule_residual=residual)


def uniform_exchange_profile(cfg: OpticsEngineConfig) -> CouplingProfile:
    """Tables theta(j) = (j+1)^(-1/2): every transition element is exactly 1.

    Only the regularized vacuum entry breaks uniformity, so the full
    model reproduces the uniform effective engine on all sectors that
    avoid the lowest transition of either mode.
    """
    j1 = np.arange(cfg.n_max1 + 1, dtype=float)
    j2 = np.arange(cfg.n_max2 + 1, dtype=float)
    t1 = 1.0 / np.sqrt(j1 + 1.0)
    t2 = 1.0 / np.sqrt(j2 + 1.0)
    t1[0] = 0.0
    t2[0] = 0.0
    return coupling_profile_from_tables(cfg, t1, t2)


def inverse_intensity_profile(cfg: OpticsEngineConfig) -> CouplingProfile:
    """Tables theta(j) = j^(-1/2), f(j) = (g^2/Delta)/j, regularized at j = 0.

    This is the design-target family; its transition elements approach 1
    only for large occupation.
    """
    t1 = np.zeros(cfg.n_max1 + 1)
    t2 = np.zeros(cfg.n_max2 + 1)
    j1 = np.arange(1, cfg.n_max1 + 1, dtype=float)
    j2 = np.arange(1, cfg.n_max2 + 1, dtype=float)
    t1[1:] = 1.0 / np.sqrt(j1)
    t2[1:] = 1.0 / np.sqrt(j2)
    return coupling_profile_from_tables(cfg, t1, t2)


def _lowering_with_profile(theta: np.ndarray) -> np.ndarray:
    """Matrix of theta(N) a: element [n-1, n] = theta(n-1) * sqrt(n)."""
    dim = theta.size
    c = np.zeros((dim, dim))
    for n in range(1, dim):
        c[n - 1, n] = theta[n - 1] * math.sqrt(n)
    return c


def build_full_hamiltonian(cfg: OpticsEngineConfig, profile: CouplingProfile) -> Operator:
    """Interaction-picture three-level Hamiltonian with the explicit upper level.

    H = Delta |3><3| + f1(N1) + f2(N2)
        + g1 (theta1(N1) a1 sigma_31 + h.c.) + g2 (theta2(N2) a2 sigma_32 + h.c.)

    The two-mode resonance makes this time independent, so evolving under
    it is exact (no rotating-wave step beyond the resonance choice).
    """
    d1, d2 = cfg.n_max1 + 1, cfg.n_max2 + 1
    if profile.theta1.size != d1 or profile.theta2.size != d2:
        raise ShapeError("profile tables do not match the configured cutoffs")
    id1, id2, id_atom = np.eye(d1), np.eye(d2), np.eye(3)
    sigma31 = np.zeros((3, 3))
    sigma31[2, 0] = 1.0
    sigma32 = np.zeros((3, 3))
    sigma32[2, 1] = 1.0
    p3 = np.zeros((3, 3))
    p3[2, 2] = 1.0

    c1 = _lowering_with_profile(profile.theta1)
    c2 = _lowering_with_profile(profile.theta2)

    h = cfg.delta * np.kron(np.kron(id1, id2), p3)
    h = h + np.kron(np.kron(np.diag(profile.f1), id2), id_atom)
    h = h + np.kron(np.kron(id1, np.diag(profile.f2)), id_atom)
    leg1 = cfg.g1 * np.kron(np.kron(c1, id2), sigma31)
    leg2 = cfg.g2 * np.kron(np.kron(id1, c2), sigma32)
    h = h + leg1 + leg1.conj().T + leg2 + leg2.conj().T
    return Operator(h.astype(np.complex128), hermitian_hint=True)


def effective_compact_config(cfg: OpticsEngineConfig) -> CompactEngineConfig:
    """The two-level reduction is the ladder-exchange engine on {|1>, |2>},
    with the atom's levels at -omega0/2 and omega0/2."""
    return CompactEngineConfig(beta1=cfg.beta1, beta2=cfg.beta2, omega1=cfg.omega1, g=cfg.g,
                               n_max1=cfg.n_max1, n_max2=cfg.n_max2, a0=-cfg.omega0 / 2.0)


def build_effective_hamiltonian(cfg: OpticsEngineConfig) -> Operator:
    """Uniform-strength exchange coupling |n, m, 1> <-> |n-1, m+1, 2>."""
    return build_interaction_hamiltonian(effective_compact_config(cfg))


def _check_sector(cfg: OpticsEngineConfig, n: int, m: int) -> None:
    if not (0 <= n <= cfg.n_max1 and 0 <= m <= cfg.n_max2):
        raise ValueError(f"sector {(n, m)} outside the cutoffs")


def full_charge_block(
    cfg: OpticsEngineConfig, profile: CouplingProfile, n: int, m: int
) -> ChargeBlock:
    """The block of ``build_full_hamiltonian`` that holds |n, m, 1>.

    Members |n, m, 1>, |n-1, m, 3> and |n-1, m+1, 2>; the last two exist
    for n >= 1, the last only below the cold cutoff.  Entries are
    computed as the dense builder computes them, so they agree exactly.
    """
    if profile.theta1.size != cfg.n_max1 + 1 or profile.theta2.size != cfg.n_max2 + 1:
        raise ShapeError("profile tables do not match the configured cutoffs")
    _check_sector(cfg, n, m)
    f1, f2 = profile.f1, profile.f2
    members = [(n, m, 0)]
    diag = [f1[n] + f2[m]]
    if n >= 1:
        members.append((n - 1, m, 2))
        diag.append(cfg.delta + f1[n - 1] + f2[m])
        if m < cfg.n_max2:
            members.append((n - 1, m + 1, 1))
            diag.append(f1[n - 1] + f2[m + 1])
    h = np.diag(diag).astype(np.complex128)
    if len(members) > 1:
        h[0, 1] = h[1, 0] = cfg.g1 * (profile.theta1[n - 1] * math.sqrt(n))
    if len(members) > 2:
        h[1, 2] = h[2, 1] = cfg.g2 * (profile.theta2[m] * math.sqrt(m + 1))
    return ChargeBlock(Operator(h, hermitian_hint=True), tuple(members))


def run_optics_cycle(
    cfg: OpticsEngineConfig, times: Sequence[float] | None = None
) -> CycleReport:
    """One cycle from gibbs x gibbs x |1><1| under the effective Hamiltonian."""
    return evolve_cycle(effective_compact_config(cfg), times)


@dataclass(frozen=True)
class WorkRecord:
    """Extractable-work bookkeeping for the resonant emission mode."""

    omega0: float
    success_population: float
    work_per_success: float
    expected_work: float
    eta: float
    power: float


def stimulated_emission_bookkeeping(report: CycleReport) -> WorkRecord:
    """Work released as one photon at omega0 per successful excitation."""
    p2 = float(report.final_system_populations[1])
    return WorkRecord(
        omega0=report.w_ext,
        success_population=p2,
        work_per_success=report.w_ext,
        expected_work=p2 * report.w_ext,
        eta=1.0 - report.beta1 / report.beta2,
        power=2.0 * report.g * report.w_ext / math.pi,
    )


@dataclass(frozen=True)
class SweepPoint:
    """Full-vs-effective comparison at one detuning value.

    ``samples`` time points cover the window, ``samples_per_period`` of
    them per period of the fastest frequency; the sample cap can push the
    latter below the requested density.
    """

    delta: float
    ratio: float  # Delta / max(g1, g2)
    population_deviation: float
    leak_max: float
    samples: int
    samples_per_period: float


def adiabatic_elimination_error(
    cfg: OpticsEngineConfig,
    profile: CouplingProfile,
    delta_sweep: Sequence[float],
    initial_block: tuple[int, int] = (3, 1),
) -> list[SweepPoint]:
    """Compare full and effective evolutions over one cycle per detuning.

    The couplings g1, g2 and the theta tables are held fixed while the
    upper level is moved; the f tables are rescaled to the per-detuning
    rule.  The initial state |n0, m0, 1> is evolved under both models
    over [0, pi/(2g)], each inside its charge block, and the worst
    population mismatch on the |1>, |2> levels plus the worst transient
    |3> occupation are recorded.

    The probe sector matters.  The f-table rule cancels the second-order
    level shifts of the eliminated upper state only up to a one-step
    index offset, leaving a residual two-photon detuning of relative
    size [1/((m+1)(m+2)) - 1/(n(n+1))]/2 on sector (n, m).  Sectors with
    n = m + 1 cancel it exactly and show pure second-order deviation in
    1/Delta; generic sectors such as the default (3, 1) keep the
    residual, and over moderate detuning ratios their deviation decays
    roughly first order before flooring at the residual's square.
    """
    n0, m0 = initial_block
    _check_sector(cfg, n0, m0)
    g_top = max(cfg.g1, cfg.g2)
    deltas = list(delta_sweep)
    ratios = []
    for delta in deltas:
        if not (math.isfinite(delta) and delta > 0):
            raise ValueError(f"detuning {delta} must be finite and positive")
        ratio = delta / g_top if g_top > 0 else math.inf
        if ratio < 5.0:
            raise ValueError(
                f"detuning {delta} gives ratio {ratio:.2f} < 5; elimination invalid"
            )
        ratios.append(ratio)
    points = []
    for delta, ratio in zip(deltas, ratios):
        cfg_d = dataclasses.replace(
            cfg, delta=delta, min_detuning_ratio=min(cfg.min_detuning_ratio, 5.0)
        )
        profile_d = coupling_profile_from_tables(cfg_d, profile.theta1, profile.theta2)
        # with no coupling both models are static; any window shows deviation 0
        window = cfg_d.tau if math.isfinite(cfg_d.tau) else 1.0
        periods = window * (delta + 4.0 * g_top) / (2.0 * math.pi)
        n_samples = int(min(
            MAX_SAMPLES, max(2001, math.ceil(SAMPLES_PER_PERIOD * periods))
        ))
        times = np.linspace(0.0, window, n_samples)

        pops_full = full_charge_block(cfg_d, profile_d, n0, m0).level_populations(times, 3)
        effective = charge_block(effective_compact_config(cfg_d), n0, m0)
        pops_eff = effective.level_populations(times, 2)
        points.append(SweepPoint(
            delta=delta,
            ratio=ratio,
            population_deviation=float(np.max(np.abs(pops_full[:, :2] - pops_eff))),
            leak_max=float(np.max(pops_full[:, 2])),
            samples=n_samples,
            samples_per_period=n_samples / periods,
        ))
    return points


def sweep_slopes(points: Sequence[SweepPoint]) -> tuple[float | None, float | None]:
    """Log-log slopes of (population deviation, leak) against the detuning.

    A series with a non-positive entry (a probe state that never leaks)
    has no logarithm, so its slope is None.
    """
    if len(points) < 2:
        raise ValueError("need at least two sweep points to fit a slope")
    x = np.log([p.delta for p in points])

    def slope(values: list[float]) -> float | None:
        if min(values) <= 0.0:
            return None
        return float(np.polyfit(x, np.log(values), 1)[0])

    return (slope([p.population_deviation for p in points]),
            slope([p.leak_max for p in points]))
