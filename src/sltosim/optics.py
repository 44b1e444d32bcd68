"""Cavity-QED engine: a three-level atom exchanging quanta with two thermal modes.

The atom has a V-shaped level pair |1>, |2> bridged through a detuned
upper level |3>; each leg couples to its own cavity mode with an
intensity-dependent strength.  At large detuning the upper level only
mediates: a hot photon is absorbed, a cold photon emitted, and the atom
ends in |2>, one work gap omega0 above |1>.

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
effective one, with members outside the cutoffs dropped.  The members do
not depend on the detuning, so the blocks of many detunings stack:
``full_charge_blocks`` builds the <= 3-state full blocks straight from the
profile tables as one (detunings, k, k) array; a single block is a stack
of one.  The detuning sweep evolves only these blocks.  It writes each
effective block, g*sigma_x between |n, m, 1> and |n-1, m+1, 2> when the
full block has all three members and zero otherwise, straight onto the
full block's members, where |n-1, m, 3> stays decoupled, so both models
share one stack and one ``eigh``, and it takes the level populations
over each detuning's uniform time grid in closed form from the
eigenpairs in one pass (``linalg.group_populations``): a constant plus
one term per eigenvalue gap, with the grid split j = a*B + b so that
angle addition turns each level's populations into one small matmul
over the sine and cosine of about 2*sqrt(n) angles per gap, and no
amplitudes.  The dense builders ``build_full_hamiltonian`` and
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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import (
    CompactEngineConfig,
    CycleReport,
    build_interaction_hamiltonian,
    check_sector,
    check_sector_cap,
    check_unit_sum,
    evolve_cycle,
)
# SpectralPropagator is unused here; bench/tracing.py patches it by name
from .linalg import Operator, ShapeError, SpectralPropagator, group_populations
from .thermal import boltzmann_factor, truncation_for_tail

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
    Requires finite parameters, a tail_delta in (0, 1) even when both
    cutoffs are given, beta1 < beta2, a Boltzmann factor
    e^{-beta omega} that is not 1 on each ladder, cutoffs of at least 1
    with at most ``engine.MAX_SECTORS`` sectors, couplings whose squares
    g_k*g_k are finite (the f-table rule), and delta/g_k at or above
    ``min_detuning_ratio``.
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
        if not 0 < self.tail_delta < 1:
            raise ValueError(f"tail_delta must lie in (0, 1), got {self.tail_delta}")
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
        for name, g in (("g1", self.g1), ("g2", self.g2)):
            if g * g == math.inf:
                raise ValueError(f"coupling {name} = {g!r} is outside the model's range: "
                                 f"{name}*{name} must be finite")
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
            boltzmann_factor(omega, beta)
            if getattr(self, name) is None:
                n_max = truncation_for_tail(omega, beta, self.tail_delta).n_max_used
                object.__setattr__(self, name, n_max)
        if self.n_max1 < 1 or self.n_max2 < 1:
            raise ValueError(f"cutoffs must be >= 1, got {self.n_max1}, {self.n_max2}")
        check_sector_cap(self.n_max1, self.n_max2)

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
    couplings by f_k(j) = (g_k^2/Delta) * theta_k(j)^2 for j >= 1.
    """

    theta1: np.ndarray
    theta2: np.ndarray
    f1: np.ndarray
    f2: np.ndarray

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


def _shift_rule(g: float, delta, theta: np.ndarray) -> np.ndarray:
    """f(j) = (g^2/Delta) theta(j)^2 with f(0) = 0; a column of detunings gives one row each."""
    rule = (g**2 / delta) * theta**2
    rule[..., 0] = 0.0
    return rule


def coupling_profile_from_tables(
    cfg: OpticsEngineConfig, theta1: Sequence[float], theta2: Sequence[float]
) -> CouplingProfile:
    """Build a profile for cfg's cutoffs, deriving the f tables from the rule."""
    theta1 = np.array(theta1, dtype=float)
    theta2 = np.array(theta2, dtype=float)
    if theta1.size != cfg.n_max1 + 1 or theta2.size != cfg.n_max2 + 1:
        raise ShapeError(
            f"theta tables must cover Fock indices 0..n_max "
            f"({cfg.n_max1 + 1}, {cfg.n_max2 + 1} entries)"
        )
    return CouplingProfile(theta1, theta2, _shift_rule(cfg.g1, cfg.delta, theta1),
                           _shift_rule(cfg.g2, cfg.delta, theta2))


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


def full_charge_blocks(
    cfg: OpticsEngineConfig, n: int, m: int, theta1: np.ndarray, theta2: np.ndarray,
    f1: np.ndarray, f2: np.ndarray, deltas: np.ndarray,
) -> tuple[tuple[tuple[int, int, int], ...], np.ndarray]:
    """Members of the ``build_full_hamiltonian`` block that holds |n, m, 1>, and
    the block for each row r of the shift tables f1, f2 (R, n_max + 1) and
    detunings deltas (R,), as one (R, k, k) stack.

    Members |n, m, 1>, |n-1, m, 3> and |n-1, m+1, 2>; the last two exist
    for n >= 1, the last only below the cold cutoff.  Entries are
    computed as the dense builder computes them, so they agree exactly.
    """
    if theta1.size != cfg.n_max1 + 1 or theta2.size != cfg.n_max2 + 1:
        raise ShapeError("profile tables do not match the configured cutoffs")
    check_sector(cfg, n, m)
    members = [(n, m, 0)]
    if n >= 1:
        members.append((n - 1, m, 2))
        if m < cfg.n_max2:
            members.append((n - 1, m + 1, 1))
    k = len(members)
    h = np.zeros((len(deltas), k, k), dtype=np.complex128)
    h[:, 0, 0] = f1[:, n] + f2[:, m]
    if k > 1:
        h[:, 1, 1] = deltas + f1[:, n - 1] + f2[:, m]
        h[:, 0, 1] = h[:, 1, 0] = cfg.g1 * (theta1[n - 1] * math.sqrt(n))
    if k > 2:
        h[:, 2, 2] = f1[:, n - 1] + f2[:, m + 1]
        h[:, 1, 2] = h[:, 2, 1] = cfg.g2 * (theta2[m] * math.sqrt(m + 1))
    return tuple(members), h


def run_optics_cycle(cfg: OpticsEngineConfig) -> CycleReport:
    """One cycle from gibbs x gibbs x |1><1| under the effective Hamiltonian."""
    return evolve_cycle(effective_compact_config(cfg))


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
    |3> occupation are recorded.  Each detuning's effective block is
    written onto the full block's members, with a zero row and column for
    |n-1, m, 3>, so both models' blocks of every detuning form one stack
    that goes through one ``eigh``; the populations come in closed form
    from the eigenpairs over each detuning's own uniform grid, the full and
    effective grids of a detuning back to back, and the effective model's
    |3> population is exactly 0.  A sample whose levels do not sum to 1
    within 1e-10 raises ``engine.InvariantError`` naming its time,
    detuning, block and model.

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
    check_sector(cfg, n0, m0)
    g_top = max(cfg.g1, cfg.g2)
    deltas = list(delta_sweep)
    ratios, windows, n_samples, periods = [], [], [], []
    for delta in deltas:
        if not (math.isfinite(delta) and delta > 0):
            raise ValueError(f"detuning {delta} must be finite and positive")
        ratio = delta / g_top if g_top > 0 else math.inf
        if ratio < 5.0:
            raise ValueError(
                f"detuning {delta} gives ratio {ratio:.2f} < 5; elimination invalid"
            )
        ratios.append(ratio)
        g = cfg.g1 * cfg.g2 / delta
        tau = math.pi / (2.0 * g) if g > 0 else math.inf
        # with no coupling both models are static; any window shows deviation 0
        window = tau if math.isfinite(tau) else 1.0
        periods.append(window * (delta + 4.0 * g_top) / (2.0 * math.pi))
        if periods[-1] == math.inf:
            raise ValueError(f"detuning {delta} gives ratio {ratio:.3g}, whose cycle spans "
                             "more oscillation periods than a float can count")
        windows.append(window)
        n_samples.append(int(min(
            MAX_SAMPLES, max(2001, math.ceil(SAMPLES_PER_PERIOD * periods[-1]))
        )))

    # every detuning's blocks as one stack; the f tables follow the per-detuning rule
    stack = np.array(deltas, dtype=float)
    members, h_full = full_charge_blocks(
        cfg, n0, m0, profile.theta1, profile.theta2,
        _shift_rule(cfg.g1, stack[:, None], profile.theta1),
        _shift_rule(cfg.g2, stack[:, None], profile.theta2), stack,
    )
    # rows 2r and 2r + 1: detuning r's full block and its effective block on the
    # full members, where |n-1, m, 3> keeps a zero row and column; the effective
    # pair |n, m, 1> <-> |n-1, m+1, 2> is members 0 and 2 of a full block of three
    h = np.zeros((2 * len(deltas), *h_full.shape[1:]), dtype=np.complex128)
    h[0::2] = h_full
    if len(members) == 3:
        h[1::2, 0, 2] = h[1::2, 2, 0] = cfg.g1 * cfg.g2 / stack
    grids = group_populations(*np.linalg.eigh(h), [lvl for _, _, lvl in members], 3,
                              [w for w in windows for _ in range(2)],
                              [n for n in n_samples for _ in range(2)])
    points = []
    for r, (full, eff) in enumerate(zip(grids, grids)):
        where = f"detuning {deltas[r]!r}, block {(n0, m0)}"
        check_unit_sum(full, windows[r], f"{where}, full model")
        check_unit_sum(eff, windows[r], f"{where}, effective model")
        points.append(SweepPoint(
            delta=deltas[r],
            ratio=ratios[r],
            population_deviation=float(np.abs(full[:, :2] - eff[:, :2]).max()),
            leak_max=float(full[:, 2].max()),
            samples=n_samples[r],
            samples_per_period=n_samples[r] / periods[r],
        ))
    return points


def sweep_slopes(points: Sequence[SweepPoint]) -> tuple[float | None, float | None]:
    """Log-log slopes of (population deviation, leak) against the detuning: the
    least-squares slope sum((x - mean x) (y - mean y)) / sum((x - mean x)^2) of
    y = log value against x = log delta.

    A series with a non-positive entry (a probe state that never leaks)
    has no logarithm, so its slope is None.  Detunings that are all equal
    have no slope at all and raise ``ValueError``.
    """
    if len(points) < 2:
        raise ValueError("need at least two sweep points to fit a slope")
    x = [math.log(p.delta) for p in points]
    if min(x) == max(x):
        raise ValueError("need at least two distinct detunings to fit a slope")
    x_mean = math.fsum(x) / len(x)
    dx = [xi - x_mean for xi in x]
    spread = math.fsum(d * d for d in dx)

    def slope(values: list[float]) -> float | None:
        if min(values) <= 0.0:
            return None
        y = [math.log(v) for v in values]
        y_mean = math.fsum(y) / len(y)
        return math.fsum(d * (yi - y_mean) for d, yi in zip(dx, y)) / spread

    return (slope([p.population_deviation for p in points]),
            slope([p.leak_max for p in points]))
