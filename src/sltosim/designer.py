"""Monte Carlo design of cavity anharmonicity and mode-function profiles.

Target intensity tables f(n), theta(n) are realized by shaping a weak
anharmonic potential V(y) and an odd mode function b(y) of the scaled
position y = x/x0: in the rotating frame the potential contributes its
Fock-diagonal elements f(n) = <n|V|n> and the mode function couples
neighbouring levels through <n-1|b|n> = theta(n-1) sqrt(n).  Both
functions are fixed-parity polynomials here, so every matrix element is
a finite exact computation and truncation is controlled by construction:
a degree-d polynomial in y connects |n> only to |n +- d|, so elements
are reported only far enough below the workspace cutoff.

Both tables are linear in the coefficients: f(n) = sum_d c_d <n|X^d|n>
and theta(j) sqrt(j+1) = sum_d c_d <j|X^d|j+1>.  ``FockRows`` holds those
per-degree rows, read off the powers X^1..X^D once; a table is the
coefficient-weighted sum of its rows, accumulated from zero in degree
order (the order of the dense sum over c_d X^d, so the values are the
same to the bit).  A fit builds the rows of its fit window once and
scores every proposal from the flat coefficient vector, and the kick
sensitivities are the norms of the same rows.

The fit is a seeded random-walk descent over the coefficients: one
coefficient at a time gets a Gaussian kick, downhill moves are always
kept, and an optional auxiliary temperature admits uphill moves with
Boltzmann probability.  Identical seeds reproduce identical traces.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np


DEFAULT_V_DEGREE = 8
DEFAULT_B_DEGREE = 7


@dataclass(frozen=True)
class PotentialAnsatz:
    """Even potential V(y) (degrees 2..D_V) and odd mode function b(y) (1..D_b).

    Only the allowed-parity coefficients are stored, so the symmetries
    V(-y) = V(y) and b(-y) = -b(y) hold by construction.
    """

    v_coeffs: np.ndarray  # coefficient of y^(2(i+1)) at slot i
    b_coeffs: np.ndarray  # coefficient of y^(2i+1) at slot i

    def __post_init__(self):
        v = np.array(self.v_coeffs, dtype=float)
        b = np.array(self.b_coeffs, dtype=float)
        if v.ndim != 1 or b.ndim != 1 or v.size == 0 or b.size == 0:
            raise ValueError("coefficient arrays must be nonempty 1-d")
        v.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "v_coeffs", v)
        object.__setattr__(self, "b_coeffs", b)

    @classmethod
    def zeros(cls, v_degree: int = DEFAULT_V_DEGREE, b_degree: int = DEFAULT_B_DEGREE):
        if v_degree < 2 or v_degree % 2:
            raise ValueError("v_degree must be an even integer >= 2")
        if b_degree < 1 or b_degree % 2 == 0:
            raise ValueError("b_degree must be an odd integer >= 1")
        return cls(np.zeros(v_degree // 2), np.zeros((b_degree + 1) // 2))

    @property
    def v_degrees(self) -> np.ndarray:
        return 2 * (np.arange(self.v_coeffs.size) + 1)

    @property
    def b_degrees(self) -> np.ndarray:
        return 2 * np.arange(self.b_coeffs.size) + 1

    @property
    def max_degree(self) -> int:
        return int(max(self.v_degrees[-1], self.b_degrees[-1]))

    def flat(self) -> np.ndarray:
        return np.concatenate([self.v_coeffs, self.b_coeffs])

    def with_flat(self, coeffs: np.ndarray) -> "PotentialAnsatz":
        nv = self.v_coeffs.size
        return PotentialAnsatz(coeffs[:nv].copy(), coeffs[nv:].copy())


def position_operator(dim: int) -> np.ndarray:
    """X = (a + a^dagger)/sqrt(2) on a Fock space of the given dimension."""
    x = np.zeros((dim, dim))
    for n in range(1, dim):
        x[n - 1, n] = x[n, n - 1] = math.sqrt(n / 2.0)
    return x


@dataclass(frozen=True)
class FockRows:
    """Per-degree rows of the two tables, over a window of levels.

    ``v[k, i]`` is <n|X^d|n> for the k-th potential degree d and
    ``b[k, i]`` is <j|X^d|j+1> for the k-th mode-function degree, with
    ``root[i] = sqrt(j+1)`` the theta divisor of the same column.
    """

    v: np.ndarray
    b: np.ndarray
    root: np.ndarray

    @classmethod
    def build(cls, ansatz: PotentialAnsatz, n_work: int) -> "FockRows":
        """Rows of every exact element: n <= n_work - D_V, j <= n_work - D_b - 1."""
        if n_work < ansatz.max_degree + 2:
            raise ValueError(
                f"workspace cutoff {n_work} too small for degree {ansatz.max_degree}"
            )
        n_f = n_work - int(ansatz.v_degrees[-1]) + 1
        j_top = n_work - int(ansatz.b_degrees[-1])  # <j|b|j+1> needs j+1+d_b <= n_work
        v_degrees = set(ansatz.v_degrees.tolist())
        b_degrees = set(ansatz.b_degrees.tolist())
        x = position_operator(n_work + 1)
        power = np.eye(n_work + 1)
        v_rows, b_rows = [], []
        for degree in range(1, ansatz.max_degree + 1):
            power = power @ x
            if degree in v_degrees:
                v_rows.append(np.diagonal(power)[:n_f].copy())
            if degree in b_degrees:
                b_rows.append(np.diagonal(power, 1)[:j_top].copy())
        return cls(np.array(v_rows), np.array(b_rows), np.sqrt(np.arange(1, j_top + 1)))

    def tables(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f, theta) of the flat coefficient vector (potential slots first).

        Each table is summed from zero in degree order and theta is
        divided after the sum, the order of the dense sum over c X^d.
        """
        nv = self.v.shape[0]
        f = (coeffs[:nv, None] * self.v).sum(axis=0, initial=0.0)
        theta = (coeffs[nv:, None] * self.b).sum(axis=0, initial=0.0) / self.root
        return f, theta


def fock_matrix_elements(
    ansatz: PotentialAnsatz, n_work: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact diagonal and one-step tables of the polynomial operators.

    Returns (f_act, theta_act) with f_act[n] = <n|V(X)|n> for
    n <= n_work - D_V and theta_act[j] = <j|b(X)|j+1> / sqrt(j+1) for
    j <= n_work - D_b - 1.  Higher entries are contaminated by the
    cutoff and never reported.
    """
    return FockRows.build(ansatz, n_work).tables(ansatz.flat())


@dataclass(frozen=True)
class DesignTargets:
    """Tables to hit on n = 1..n_fit, with norms and workspace cutoff.

    The f mismatch is scored in the L2 norm and the theta mismatch in
    the Lq norm with q > 2.
    """

    f_target: np.ndarray
    theta_target: np.ndarray
    q: float = 4.0
    n_work: int = 0

    def __post_init__(self):
        f = np.array(self.f_target, dtype=float)
        th = np.array(self.theta_target, dtype=float)
        if f.size != th.size or f.size == 0:
            raise ValueError("f and theta target tables must have equal nonzero length")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(th)) and math.isfinite(self.q)):
            raise ValueError("target tables and q must be finite")
        f.flags.writeable = False
        th.flags.writeable = False
        object.__setattr__(self, "f_target", f)
        object.__setattr__(self, "theta_target", th)
        if self.q <= 2:
            raise ValueError(f"theta norm order must satisfy q > 2, got {self.q}")
        if self.n_work == 0:
            object.__setattr__(
                self, "n_work", self.n_fit + max(DEFAULT_V_DEGREE, DEFAULT_B_DEGREE) + 2
            )
        if self.n_work < self.n_fit + 4:
            raise ValueError("n_work must be at least n_fit + 4")

    @property
    def n_fit(self) -> int:
        return self.f_target.size

    @classmethod
    def inverse_intensity(
        cls, amplitude: float, n_fit: int, q: float = 4.0, n_work: int = 0
    ) -> "DesignTargets":
        """f(n) = amplitude/n and theta(n) = n^(-1/2) on n = 1..n_fit."""
        n = np.arange(1, n_fit + 1, dtype=float)
        return cls(amplitude / n, 1.0 / np.sqrt(n), q=q, n_work=n_work)

    @classmethod
    def from_ansatz(
        cls, generator: PotentialAnsatz, n_fit: int, q: float = 4.0, n_work: int = 0
    ) -> "DesignTargets":
        """Tables produced by a known ansatz (self-consistency experiments)."""
        if n_work == 0:
            n_work = n_fit + generator.max_degree + 2
        f_act, theta_act = fock_matrix_elements(generator, n_work)
        return cls(f_act[1 : n_fit + 1], theta_act[1 : n_fit + 1], q=q, n_work=n_work)


def _fit_rows(ansatz: PotentialAnsatz, targets: DesignTargets) -> FockRows:
    """The rows over the fit window n = 1..n_fit."""
    rows = FockRows.build(ansatz, targets.n_work)
    n_fit = targets.n_fit
    if rows.v.shape[1] < n_fit + 1 or rows.b.shape[1] < n_fit + 1:
        raise ValueError(
            f"workspace cutoff {targets.n_work} cannot reach fit index {n_fit} "
            f"for degrees up to {ansatz.max_degree}"
        )
    fit = slice(1, n_fit + 1)
    return FockRows(rows.v[:, fit], rows.b[:, fit], rows.root[fit])


def _fit_cost(rows: FockRows, coeffs: np.ndarray, targets: DesignTargets) -> float:
    """The design cost of flat coefficients, from the fit-window rows."""
    f_act, theta_act = rows.tables(coeffs)
    df = f_act - targets.f_target
    dth = theta_act - targets.theta_target
    f_norm = math.sqrt(float((df**2).sum()))
    th_norm = float((np.abs(dth) ** targets.q).sum()) ** (1.0 / targets.q)
    return f_norm + th_norm


def design_cost(ansatz: PotentialAnsatz, targets: DesignTargets) -> float:
    """L2 mismatch of the f table plus Lq mismatch of the theta table."""
    return _fit_cost(_fit_rows(ansatz, targets), ansatz.flat(), targets)


@dataclass(frozen=True)
class AnnealSchedule:
    """Iteration budget, kick size, auxiliary temperature (0 = greedy), seed.

    ``proposal_scale`` is dimensionless: the typical cost impact of one
    kick, as a fraction of the current cost.
    """

    iterations: int
    proposal_scale: float = 0.2
    mc_temperature: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (math.isfinite(self.proposal_scale) and math.isfinite(self.mc_temperature)):
            raise ValueError("proposal_scale and mc_temperature must be finite")
        if self.proposal_scale <= 0:
            raise ValueError("proposal_scale must be positive")
        if self.mc_temperature < 0:
            raise ValueError("mc_temperature must be >= 0")


def _coefficient_sensitivities(rows: FockRows) -> np.ndarray:
    """Cost-space gain of a unit kick on each coefficient: the norm of
    its row over the fit window, since the tables are linear in the
    coefficients."""
    table_rows = np.concatenate([rows.v, rows.b / rows.root])
    return np.maximum(np.sqrt(np.sum(table_rows**2, axis=1)), 1e-30)


def mc_optimize(
    ansatz0: PotentialAnsatz, targets: DesignTargets, schedule: AnnealSchedule
) -> tuple[PotentialAnsatz, np.ndarray]:
    """Single-coefficient random-walk descent on the design cost.

    Each kick perturbs one randomly chosen coefficient by a Gaussian
    step whose width is proposal_scale * (current cost) / (that
    coefficient's cost sensitivity), so kicks stay commensurate with the
    remaining error: high-degree coefficients move in proportionally
    tiny steps and the walk has no resolution floor.  The table rows are
    built once, and each proposal is scored from its coefficients.

    Returns the best ansatz ever visited and the accepted-cost trace
    (length iterations + 1, starting at the initial cost).  The trace's
    running minimum is non-increasing, and at zero temperature the trace
    itself is.  Identical seeds give identical traces.
    """
    rows = _fit_rows(ansatz0, targets)
    rng = np.random.default_rng(schedule.seed)
    sens = _coefficient_sensitivities(rows)
    coeffs = ansatz0.flat()
    current = _fit_cost(rows, coeffs, targets)
    best_coeffs = coeffs.copy()
    best_cost = current
    trace = np.empty(schedule.iterations + 1)
    trace[0] = current
    for i in range(1, schedule.iterations + 1):
        k = int(rng.integers(coeffs.size))
        width = schedule.proposal_scale * current / sens[k]
        step = rng.normal(0.0, width)
        proposal = coeffs.copy()
        proposal[k] += step
        cost = _fit_cost(rows, proposal, targets)
        dc = cost - current
        accept = dc < 0 or (
            schedule.mc_temperature > 0
            and rng.random() < math.exp(-dc / schedule.mc_temperature)
        )
        if accept:
            coeffs = proposal
            current = cost
            if cost < best_cost:
                best_cost = cost
                best_coeffs = proposal.copy()
        trace[i] = current
    return ansatz0.with_flat(best_coeffs), trace


@dataclass(frozen=True)
class DesignValidation:
    """Table errors of a fitted design and the cycle fidelity it costs."""

    probe_block: tuple[int, int]
    f_errors: np.ndarray
    theta_errors: np.ndarray
    max_f_error: float
    max_theta_error: float
    fidelity_degradation: float
    rule_residual: float


def validate_design(
    best: PotentialAnsatz,
    targets: DesignTargets,
    cfg,
    probe_block: tuple[int, int] = (3, 1),
) -> DesignValidation:
    """Close the loop: per-level table errors plus full-model cycle fidelity.

    Both the fitted tables and the target tables are installed as
    coupling profiles of a probe engine (cutoffs clipped to the fit
    range), the three-level model is evolved for one cycle under each
    inside the charge block of the probe state |n0, m0, 1>, and the
    final-state infidelity is reported as the degradation caused by the
    residual fitting error.
    """
    from .optics import coupling_profile_from_tables, full_charge_block

    f_act, theta_act = fock_matrix_elements(best, targets.n_work)
    n_fit = targets.n_fit
    f_err = np.abs(f_act[1 : n_fit + 1] - targets.f_target)
    th_err = np.abs(theta_act[1 : n_fit + 1] - targets.theta_target)

    probe = dataclasses.replace(cfg, n_max1=n_fit, n_max2=n_fit)

    def tables_to_profile(f_table, th_table):
        theta = np.zeros(n_fit + 1)
        f = np.zeros(n_fit + 1)
        theta[1:] = th_table[:n_fit]
        f[1:] = f_table[:n_fit]
        return coupling_profile_from_tables(
            probe, theta, theta.copy(), f, f.copy(), require_rule=False
        )

    profile_fit = tables_to_profile(f_act[1 : n_fit + 1], theta_act[1 : n_fit + 1])
    profile_ref = tables_to_profile(targets.f_target, targets.theta_target)

    n0, m0 = probe_block
    if not (1 <= n0 <= n_fit and 0 <= m0 < n_fit):
        raise ValueError(f"probe block {probe_block} outside the fitted range")
    # both blocks have the same members, so their amplitudes line up
    finals = [
        full_charge_block(probe, profile, n0, m0).probe_states([probe.tau])[0]
        for profile in (profile_ref, profile_fit)
    ]
    overlap = abs(np.vdot(finals[0], finals[1])) ** 2
    return DesignValidation(
        probe_block=probe_block,
        f_errors=f_err,
        theta_errors=th_err,
        max_f_error=float(np.max(f_err)),
        max_theta_error=float(np.max(th_err)),
        fidelity_degradation=float(max(0.0, 1.0 - overlap)),
        rule_residual=profile_fit.rule_residual,
    )
