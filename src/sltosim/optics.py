"""Cavity-QED engine: a three-level atom exchanging quanta with two thermal modes.

The atom has a V-shaped level pair |1>, |2> bridged through a detuned
upper level |3>; each leg couples to its own cavity mode with an
intensity-dependent strength.  At large detuning the upper level only
mediates: a hot photon is absorbed, a cold photon emitted, and the atom
ends in |2>, one work gap omega0 above |1>.

``OpticsEngineConfig`` holds only the free parameters; the ladder
resonance fixes the cold frequency omega2 and the two-mode resonance the
work gap omega0 = omega1 - omega2, and its ladders are those of the
effective engine, a ``CompactEngineConfig`` that it builds once.

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
not depend on the detuning, so ``full_charge_blocks`` builds the <= 3-state
full blocks of many detunings straight from the profile's tables as one
(detunings, k, k) stack; a single block is a stack of one.  The detuning
sweep diagonalizes only that stack, in one ``eigh``, and takes its level
populations in closed form in one ``linalg.group_populations`` pass.  The
effective side needs no block: its probe exchanges with |n-1, m+1, 2> as
g*sigma_x, evolved by ``engine.exchange_amplitudes``, or without that
partner stays put.  The dense builders ``build_full_hamiltonian`` and
``build_effective_hamiltonian`` assemble the whole product space; they
are the reference the tests compare the blocks against.

A coupling profile is its intensity tables theta_k(j) over Fock index j.
The Stark-shift tables follow from them by one rule,
f_k(j) = (g_k^2/Delta) * theta_k(j)^2 with f_k(0) = 0, which depends on
the detuning; so each block builder makes them at the detuning it uses,
the dense one at the config's and ``full_charge_blocks`` at each of the
sweep's.  The coupling operator convention is fixed once: the matrix
element of theta_k(N_k) a_k between |n> and |n-1> is theta_k(n-1) * sqrt(n),
and theta_k(0) = 0 regularizes the profiles that diverge at the vacuum.
With that convention the table theta(j) = (j+1)^(-1/2) makes every
transition element above the regularized lowest one exactly 1, which is
the profile whose full model converges to the uniform effective model;
the inverse-intensity table theta(j) = j^(-1/2) reaches uniform elements
only asymptotically in j and is kept as the design target family.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .engine import (
    CompactEngineConfig,
    CycleReport,
    build_interaction_hamiltonian,
    check_sector,
    check_unit_sum,
    evolve_cycle,
    exchange_amplitudes,
)
# SpectralPropagator is unused here; bench/tracing.py patches it by name
from .linalg import Operator, ShapeError, SpectralPropagator, group_populations
# unused here; bench/tracing.py patches it by name
from .thermal import truncation_for_tail

#: time samples per period of the fastest frequency the detuning sweep asks for,
#: and the most samples per detuning (past it the sweep reports a lower density)
SAMPLES_PER_PERIOD = 8.0
MAX_SAMPLES = 200_000


@dataclass(frozen=True)
class OpticsEngineConfig:
    """Free parameters of the cavity engine; the resonances fix the rest.

    The two ladders are the effective engine's: this config builds that
    ``CompactEngineConfig`` once and holds it (``effective_compact_config``).
    It checks beta1, beta2, omega1 and tail_delta, derives
    omega2 = beta1*omega1/beta2 and any cutoff left as None from the Gibbs
    tail, and caps the sectors.  The work gap omega0 = omega1 - omega2 is
    derived, and the upper level lies ``delta`` above the photon on both
    legs.  The cavity's own rules come first: finite g1, g2, delta and
    min_detuning_ratio, couplings non-negative with finite squares g_k*g_k
    (the f-table rule), delta > 0, and delta at or above
    ``min_detuning_ratio`` * g_k.  It then adds beta1 < beta2, a rounded omega2
    below omega1, and cutoffs of at least 1.
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
    _effective: CompactEngineConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("g1", "g2", "delta", "min_detuning_ratio"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.g1 < 0 or self.g2 < 0:
            raise ValueError("couplings g1, g2 must be non-negative")
        for name, g in (("g1", self.g1), ("g2", self.g2)):
            if g * g == math.inf:
                raise ValueError(f"coupling {name} = {g!r} is outside the model's range: "
                                 f"{name}*{name} must be finite")
        if self.delta <= 0:
            raise ValueError("detuning must be positive")
        # the floor tested on the product: a delta formed as r*g with r at or
        # above the floor passes it, where delta/g can round below the floor
        g_top = max(self.g1, self.g2)
        if self.delta < self.min_detuning_ratio * g_top:
            raise ValueError(
                f"detuning ratio {self.delta / g_top:.2f} below configured minimum "
                f"{self.min_detuning_ratio}"
            )
        # at beta1 = beta2 a rounded omega2 above omega1 would be refused by
        # the level a1 of the ladders, which the caller never gave
        if self.beta1 == self.beta2:
            raise ValueError("need beta1 < beta2 (a real temperature gradient)")
        # the ladders at the default a0 first, so that a refusal names given fields
        ladders = CompactEngineConfig(self.beta1, self.beta2, self.omega1, self.g,
                                      self.n_max1, self.n_max2, tail_delta=self.tail_delta)
        # rounding can still put omega2 at omega1 when beta1 is just below beta2
        if not ladders.omega2 < self.omega1:
            raise ValueError(f"derived omega2 = beta1*omega1/beta2 = {ladders.omega2} "
                             "must lie in (0, omega1)")
        for name in ("n_max1", "n_max2"):
            if getattr(ladders, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(ladders, name)}")
        object.__setattr__(self, "n_max1", ladders.n_max1)
        object.__setattr__(self, "n_max2", ladders.n_max2)
        # the atom's levels at -omega0/2 and omega0/2
        object.__setattr__(self, "_effective",
                           replace(ladders, a0=-(self.omega1 - ladders.omega2) / 2.0))

    @property
    def omega2(self) -> float:
        return self._effective.omega2

    @property
    def omega0(self) -> float:
        return self.omega1 - self.omega2

    @property
    def g(self) -> float:
        return self.g1 * self.g2 / self.delta

    @property
    def tau(self) -> float:
        return self._effective.tau


@dataclass(frozen=True)
class CouplingProfile:
    """Intensity tables theta_k(j) for j = 0..n_max_k, with theta(0) = 0 by
    regularization.

    A profile is its theta tables alone.  The shift tables
    f_k(j) = (g_k^2/Delta) * theta_k(j)^2 depend on the detuning, so the
    block builders make them by ``_shift_rule`` at the detuning they use.
    """

    theta1: np.ndarray
    theta2: np.ndarray

    def __post_init__(self):
        for name in ("theta1", "theta2"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if abs(self.theta1[0]) > 0 or abs(self.theta2[0]) > 0:
            raise ValueError("theta(0) must be 0 (vacuum regularization)")


def _check_cutoffs(cfg: OpticsEngineConfig, profile: CouplingProfile):
    """Refuse a profile whose tables do not cover Fock indices 0..n_max of ``cfg``."""
    if (profile.theta1.size, profile.theta2.size) != (cfg.n_max1 + 1, cfg.n_max2 + 1):
        raise ShapeError("profile tables do not match the configured cutoffs")


def _shift_rule(g: float, delta, theta: np.ndarray) -> np.ndarray:
    """f(j) = (g^2/Delta) theta(j)^2 with f(0) = 0; a column of detunings gives one row each."""
    rule = (g**2 / delta) * theta**2
    rule[..., 0] = 0.0
    return rule


def _profile_of(cfg: OpticsEngineConfig, theta) -> CouplingProfile:
    """The profile with tables theta(j) for j >= 1 and theta(0) = 0 at cfg's cutoffs."""
    return CouplingProfile(*(np.append(0.0, theta(np.arange(1.0, n_max + 1)))
                             for n_max in (cfg.n_max1, cfg.n_max2)))


def uniform_exchange_profile(cfg: OpticsEngineConfig) -> CouplingProfile:
    """Tables theta(j) = (j+1)^(-1/2): every transition element is exactly 1.

    Only the regularized vacuum entry breaks uniformity, so the full
    model reproduces the uniform effective engine on all sectors that
    avoid the lowest transition of either mode.
    """
    return _profile_of(cfg, lambda j: 1.0 / np.sqrt(j + 1.0))


def inverse_intensity_profile(cfg: OpticsEngineConfig) -> CouplingProfile:
    """Tables theta(j) = j^(-1/2), so f(j) = (g^2/Delta)/j, regularized at j = 0.

    This is the design-target family; its transition elements approach 1
    only for large occupation.
    """
    return _profile_of(cfg, lambda j: 1.0 / np.sqrt(j))


def _lowering_with_profile(theta: np.ndarray) -> np.ndarray:
    """Matrix of theta(N) a: element [n-1, n] = theta(n-1) * sqrt(n)."""
    return np.diag(theta[:-1] * np.sqrt(np.arange(1.0, theta.size)), 1)


def build_full_hamiltonian(cfg: OpticsEngineConfig, profile: CouplingProfile) -> Operator:
    """Interaction-picture three-level Hamiltonian with the explicit upper level.

    H = Delta |3><3| + f1(N1) + f2(N2)
        + g1 (theta1(N1) a1 sigma_31 + h.c.) + g2 (theta2(N2) a2 sigma_32 + h.c.)

    The two-mode resonance makes this time independent, so evolving under
    it is exact (no rotating-wave step beyond the resonance choice).
    """
    _check_cutoffs(cfg, profile)
    d1, d2 = cfg.n_max1 + 1, cfg.n_max2 + 1
    id1, id2, id_atom = np.eye(d1), np.eye(d2), np.eye(3)
    # |3><1|, |3><2| and |3><3|
    sigma31, sigma32, p3 = (np.outer(id_atom[2], level) for level in id_atom)

    c1 = _lowering_with_profile(profile.theta1)
    c2 = _lowering_with_profile(profile.theta2)

    h = cfg.delta * np.kron(np.kron(id1, id2), p3)
    f1 = _shift_rule(cfg.g1, cfg.delta, profile.theta1)
    f2 = _shift_rule(cfg.g2, cfg.delta, profile.theta2)
    h = h + np.kron(np.kron(np.diag(f1), id2), id_atom)
    h = h + np.kron(np.kron(id1, np.diag(f2)), id_atom)
    leg1 = cfg.g1 * np.kron(np.kron(c1, id2), sigma31)
    leg2 = cfg.g2 * np.kron(np.kron(id1, c2), sigma32)
    h = h + leg1 + leg1.conj().T + leg2 + leg2.conj().T
    return Operator(h.astype(np.complex128), hermitian_hint=True)


def effective_compact_config(cfg: OpticsEngineConfig) -> CompactEngineConfig:
    """The two-level reduction is the ladder-exchange engine on {|1>, |2>},
    with the atom's levels at -omega0/2 and omega0/2, as ``cfg`` holds it."""
    return cfg._effective


def build_effective_hamiltonian(cfg: OpticsEngineConfig) -> Operator:
    """Uniform-strength exchange coupling |n, m, 1> <-> |n-1, m+1, 2>."""
    return build_interaction_hamiltonian(effective_compact_config(cfg))


def full_charge_blocks(
    cfg: OpticsEngineConfig, n: int, m: int, profile: CouplingProfile, deltas: np.ndarray,
) -> tuple[tuple[tuple[int, int, int], ...], np.ndarray]:
    """Members of the ``build_full_hamiltonian`` block that holds |n, m, 1>, and
    the block at each detuning of ``deltas`` (R,), with its shift tables by
    ``_shift_rule``, as one (R, k, k) stack.

    Members |n, m, 1>, |n-1, m, 3> and |n-1, m+1, 2>; the last two exist
    for n >= 1, the last only below the cold cutoff.  Entries are
    computed as the dense builder computes them, so they agree exactly.
    """
    _check_cutoffs(cfg, profile)
    check_sector(cfg, n, m)
    f1 = _shift_rule(cfg.g1, deltas[:, None], profile.theta1)
    f2 = _shift_rule(cfg.g2, deltas[:, None], profile.theta2)
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
        h[:, 0, 1] = h[:, 1, 0] = cfg.g1 * (profile.theta1[n - 1] * math.sqrt(n))
    if k > 2:
        h[:, 2, 2] = f1[:, n - 1] + f2[:, m + 1]
        h[:, 1, 2] = h[:, 2, 1] = cfg.g2 * (profile.theta2[m] * math.sqrt(m + 1))
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


def _exchange_populations(g: float, window: float, n: int) -> np.ndarray:
    """|``engine.exchange_amplitudes``(g, t)|^2 over t_j = j*window/(n - 1), j < n,
    as (2, n) level rows, from the closed form at t = a*B*step and b*step only,
    B = ceil(sqrt(n)): the pair's group law psi(s + t) = U(s) psi(t), a rotation
    by g*s of the real pair (Re psi_0, Im psi_1), gives each j = a*B + b in one
    (2A x 2) @ (2 x B) product."""
    inner = math.isqrt(n - 1) + 1
    outer = -(-n // inner)
    j = np.concatenate([inner * np.arange(outer), np.arange(inner)])  # the a*B, then the b
    real = exchange_amplitudes(g, window / (n - 1) * j).view(float)[:, [0, 3]]
    rotations = np.concatenate([real[:outer] * [1.0, -1.0], real[:outer, ::-1]])
    amplitudes = rotations @ real[outer:].T
    return np.square(amplitudes, out=amplitudes).reshape(2, -1)[:, :n]


def adiabatic_elimination_error(
    cfg: OpticsEngineConfig,
    profile: CouplingProfile,
    delta_sweep: Sequence[float],
    initial_block: tuple[int, int] = (3, 1),
) -> list[SweepPoint]:
    """Compare full and effective evolutions over one cycle per detuning.

    The couplings g1, g2 and the profile's theta tables are held fixed
    while the upper level is moved; ``full_charge_blocks`` makes the f
    tables by the rule at each detuning.  The initial state |n0, m0, 1>
    is evolved under both models over [0, pi/(2g)], each inside its
    charge block, and the worst population mismatch on the |1>, |2>
    levels plus the worst transient |3> occupation are recorded.  The full
    blocks of every detuning form one stack that goes through one
    ``eigh``, and their populations come in closed form from the
    eigenpairs over each detuning's own uniform grid; a sample whose
    levels do not sum to 1 within 1e-10 raises ``engine.InvariantError``
    naming its time, detuning, block and model.  The effective model's
    populations are |``engine.exchange_amplitudes``(g1*g2/Delta, t)|^2 on
    the same grid when the probe has its partner |n-1, m+1, 2>, and
    [1, 0] when it has none.  Each detuning must be finite and positive,
    at or above ``cfg.min_detuning_ratio`` * max(g1, g2),
    with a window whose oscillation periods, and samples per period, a
    float can count.

    The probe sector matters.  The f-table rule cancels the second-order
    level shifts of the eliminated upper state only up to a one-step
    index offset.  For the uniform profile at g1 = g2 it leaves sector
    (n, m) a residual two-photon detuning of
    [1/((m+1)(m+2)) - 1/(n(n+1))] * g1^2/Delta, that fraction of the
    effective coupling g = g1*g2/Delta.  Sectors with n = m + 1 cancel it
    exactly and show pure second-order deviation in 1/Delta; generic
    sectors such as the default (3, 1) keep the residual, and over
    moderate detuning ratios their deviation decays roughly first order
    before flooring near the square of half that fraction.
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
        if delta < cfg.min_detuning_ratio * g_top:  # as OpticsEngineConfig tests it
            raise ValueError(f"detuning {delta} gives ratio {ratio:.2f} < "
                             f"{cfg.min_detuning_ratio:g}; elimination invalid")
        ratios.append(ratio)
        g = cfg.g1 * cfg.g2 / delta
        # with no effective coupling there is no cycle, and the window is 1; a
        # coupling whose pi/(2g) overflows keeps its infinite window, refused below
        window = math.pi / (2.0 * g) if g > 0 else 1.0
        periods.append(window * (delta + 4.0 * g_top) / (2.0 * math.pi))
        # a window of 1 at a tiny detuning holds so little of a period that its
        # samples per period overflow
        if not MAX_SAMPLES / sys.float_info.max <= periods[-1] < math.inf:
            raise ValueError(f"detuning {delta} gives ratio {ratio:.3g} with g1 = {cfg.g1} "
                             f"and g2 = {cfg.g2}, whose window spans {periods[-1]} oscillation "
                             "periods: a float cannot count them or its samples per period")
        windows.append(window)
        n_samples.append(int(min(
            MAX_SAMPLES, max(2001, math.ceil(SAMPLES_PER_PERIOD * periods[-1]))
        )))

    # every detuning's full blocks as one stack
    members, h = full_charge_blocks(cfg, n0, m0, profile, np.array(deltas, dtype=float))
    grids = group_populations(*np.linalg.eigh(h), [lvl for _, _, lvl in members], 3,
                              windows, n_samples)
    points = []
    for r, full in enumerate(grids):
        where = f"detuning {deltas[r]!r}, block {(n0, m0)}, full model"
        check_unit_sum(full, windows[r], where)
        # the effective pair |n, m, 1> <-> |n-1, m+1, 2> is members 0 and 2 of a
        # full block of three; without that partner the probe stays put
        g = cfg.g1 * cfg.g2 / deltas[r] if len(members) == 3 else 0.0
        effective = _exchange_populations(g, windows[r], n_samples[r])
        points.append(SweepPoint(
            delta=deltas[r],
            ratio=ratios[r],
            population_deviation=float(np.abs(full.T[:2] - effective).max()),
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
