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
per-degree rows, read off the powers X^1..X^D once, as one flat table:
one row per coefficient over the f columns and then the theta columns,
zero outside its own table, with a divisor row that is 1 on the f
columns and sqrt(j+1) on the theta columns.  Both tables of a stack of
coefficient vectors are then one broadcast product, one sum from zero in
coefficient order (the order of the dense sum over c_d X^d, so the values
are the same to the bit) and one divide.  A fit builds the rows of its
fit window once and scores its proposals as such stacks, and the kick
sensitivities are the norms of the unit vectors' tables.

The fit is a seeded random-walk descent over the coefficients: one
coefficient at a time gets a Gaussian kick, downhill moves are always
kept, and an optional auxiliary temperature admits uphill moves with
Boltzmann probability.  Each kind of draw comes from its own stream spawned
from the seed, and identical seeds reproduce identical traces.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

DEFAULT_V_DEGREE = 8
DEFAULT_B_DEGREE = 7

#: largest workspace cutoff: ``FockRows.build`` multiplies D dense
#: (n_work + 1)^2 matrices, 0.3 s at n_work = 1024 on one BLAS thread
MAX_N_WORK = 1024

#: largest iteration budget: the accepted-cost trace takes 8 bytes per
#: iteration, 8 MB at the cap
MAX_ITERATIONS = 1_000_000

#: proposals a walk scores in one stacked evaluation;
#: 8 to 16 were fastest on the design-fit benchmark and 32 was slower
PROPOSAL_BATCH = 16

#: proposals whose index and normal draws a walk takes in one call per
#: stream: 24 bytes of arrays each, 6 KB a chunk beside the trace; a
#: 500-iteration walk takes two chunks and cuts one batch short between them
DRAW_CHUNK = 256


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
        # an infinite coefficient would also turn its zero entries in the
        # other table's columns into NaN
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(b))):
            raise ValueError("ansatz coefficients must be finite")
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
    """Per-coefficient rows of both tables, over a window of levels.

    ``table`` has one row per flat coefficient (potential slots first) and
    the f columns followed by the theta columns: a potential row holds
    <n|X^d|n> for its degree d on the first ``n_f`` columns, a
    mode-function row holds <j|X^d|j+1> on the rest, and every other
    entry is 0.  ``divisor`` is 1 on the f columns and sqrt(j+1) on the
    theta column of level j.
    """

    table: np.ndarray
    divisor: np.ndarray
    n_f: int

    @classmethod
    def build(cls, ansatz: PotentialAnsatz, n_work: int) -> "FockRows":
        """Rows of every exact element: n <= n_work - D_V, j <= n_work - D_b - 1."""
        if n_work < ansatz.max_degree + 2:
            raise ValueError(
                f"workspace cutoff {n_work} too small for degree {ansatz.max_degree}"
            )
        n_f = n_work - int(ansatz.v_degrees[-1]) + 1
        j_top = n_work - int(ansatz.b_degrees[-1])  # <j|b|j+1> needs j+1+d_b <= n_work
        nv = ansatz.v_coeffs.size
        v_slot = {d: k for k, d in enumerate(ansatz.v_degrees.tolist())}
        b_slot = {d: nv + k for k, d in enumerate(ansatz.b_degrees.tolist())}
        table = np.zeros((nv + ansatz.b_coeffs.size, n_f + j_top))
        x = position_operator(n_work + 1)
        power = np.eye(n_work + 1)
        for degree in range(1, ansatz.max_degree + 1):
            power = power @ x
            if degree in v_slot:
                table[v_slot[degree], :n_f] = np.diagonal(power)[:n_f]
            if degree in b_slot:
                table[b_slot[degree], n_f:] = np.diagonal(power, 1)[:j_top]
        divisor = np.concatenate([np.ones(n_f), np.sqrt(np.arange(1, j_top + 1))])
        return cls(table, divisor, n_f)

    def tables(self, coeffs: np.ndarray) -> np.ndarray:
        """The f then theta columns of a (stack, n_coeffs) array of flat
        coefficient vectors, one row per vector.

        Each column is summed from zero in coefficient order and divided
        after the sum, the order of the dense sum over c X^d: a 0 entry
        adds a signed zero, which leaves a sum started at +0.0 as it was,
        and x/1.0 = x.  The products are laid out C-ordered with the
        coefficient axis first: numpy then sums over that axis one term at
        a time, each term a whole (stack, columns) slab.
        """
        products = np.multiply(coeffs.T[:, :, None], self.table[:, None, :], order="C")
        return products.sum(axis=0, initial=0.0) / self.divisor


def fock_matrix_elements(
    ansatz: PotentialAnsatz, n_work: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact diagonal and one-step tables of the polynomial operators.

    Returns (f_act, theta_act) with f_act[n] = <n|V(X)|n> for
    n <= n_work - D_V and theta_act[j] = <j|b(X)|j+1> / sqrt(j+1) for
    j <= n_work - D_b - 1.  Higher entries are contaminated by the
    cutoff and never reported.
    """
    rows = FockRows.build(ansatz, n_work)
    tables = rows.tables(ansatz.flat()[None])[0]
    return tables[: rows.n_f], tables[rows.n_f :]


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
        object.__setattr__(self, "n_work", _workspace_cutoff(self.n_fit, self.n_work))
        if self.n_work < self.n_fit + 4:
            raise ValueError("n_work must be at least n_fit + 4")

    @property
    def n_fit(self) -> int:
        return self.f_target.size

    @functools.cached_property
    def table(self) -> np.ndarray:
        """The f then theta targets, in the column order of ``fit_rows``."""
        table = np.concatenate([self.f_target, self.theta_target])
        table.flags.writeable = False
        return table

    @classmethod
    def inverse_intensity(
        cls, amplitude: float, n_fit: int, q: float = 4.0, n_work: int = 0
    ) -> "DesignTargets":
        """f(n) = amplitude/n and theta(n) = n^(-1/2) on n = 1..n_fit."""
        n_work = _workspace_cutoff(n_fit, n_work)
        n = np.arange(1, n_fit + 1, dtype=float)
        return cls(amplitude / n, 1.0 / np.sqrt(n), q=q, n_work=n_work)

    @classmethod
    def from_ansatz(
        cls, generator: PotentialAnsatz, n_fit: int, q: float = 4.0, n_work: int = 0
    ) -> "DesignTargets":
        """Tables produced by a known ansatz (self-consistency experiments)."""
        n_work = _workspace_cutoff(n_fit, n_work, generator.max_degree)
        f_act, theta_act = fock_matrix_elements(generator, n_work)
        return cls(f_act[1 : n_fit + 1], theta_act[1 : n_fit + 1], q=q, n_work=n_work)


def _workspace_cutoff(
    n_fit: int, n_work: int, max_degree: int = max(DEFAULT_V_DEGREE, DEFAULT_B_DEGREE)
) -> int:
    """n_work, or n_fit + max_degree + 2 when it is 0; a cutoff above
    MAX_N_WORK is refused before any table is built."""
    if n_work == 0:
        n_work = n_fit + max_degree + 2
    if n_work > MAX_N_WORK:
        raise ValueError(f"workspace cutoff {n_work} above the cap {MAX_N_WORK}")
    return n_work


def fit_rows(ansatz: PotentialAnsatz, targets: DesignTargets) -> FockRows:
    """The rows over the fit window n = 1..n_fit of both tables.

    They depend on the ansatz only through its degrees, so one build
    serves a whole fit: the walk, the best cost and the achieved tables.
    """
    rows = FockRows.build(ansatz, targets.n_work)
    n_fit, n_f = targets.n_fit, rows.n_f
    if min(n_f, rows.table.shape[1] - n_f) < n_fit + 1:
        raise ValueError(
            f"workspace cutoff {targets.n_work} cannot reach fit index {n_fit} "
            f"for degrees up to {ansatz.max_degree}"
        )
    cols = np.r_[1 : n_fit + 1, n_f + 1 : n_f + n_fit + 1]
    return FockRows(rows.table[:, cols], rows.divisor[cols], n_fit)


def _fit_costs(rows: FockRows, coeffs: np.ndarray, targets: DesignTargets) -> Iterator[float]:
    """The design costs of a (stack, n_coeffs) array of flat coefficients,
    from the fit-window rows, in stack order.

    The norm sums are taken for the whole stack and the roots one row at
    a time as they are read, so a walk that stops at its first downhill
    proposal takes no root after it.  The roots are Python floats:
    np.power rounds some Lq roots differently, and a walk then drifts from
    its seeded trace.
    """
    miss = rows.tables(coeffs) - targets.table
    f_sums = (miss[:, : rows.n_f] ** 2).sum(axis=1).tolist()
    th_sums = (np.abs(miss[:, rows.n_f :]) ** targets.q).sum(axis=1).tolist()
    root = 1.0 / targets.q
    return (math.sqrt(f) + th**root for f, th in zip(f_sums, th_sums))


@np.errstate(over="ignore", invalid="ignore")
def design_cost(
    ansatz: PotentialAnsatz, targets: DesignTargets, rows: FockRows | None = None
) -> float:
    """L2 mismatch of the f table plus Lq mismatch of the theta table.

    ``rows`` are the ansatz's ``fit_rows``, built here when not given.  A
    cost that overflows is inf or NaN, without a warning, as in the walk.
    """
    rows = fit_rows(ansatz, targets) if rows is None else rows
    return next(_fit_costs(rows, ansatz.flat()[None], targets))


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
        if type(self.seed) is bool or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise ValueError(f"iterations must be in 1..{MAX_ITERATIONS}, got {self.iterations}")
        if not (math.isfinite(self.proposal_scale) and math.isfinite(self.mc_temperature)):
            raise ValueError("proposal_scale and mc_temperature must be finite")
        if self.proposal_scale <= 0:
            raise ValueError("proposal_scale must be positive")
        if self.mc_temperature < 0:
            raise ValueError("mc_temperature must be >= 0")


def _coefficient_sensitivities(rows: FockRows) -> np.ndarray:
    """Cost-space gain of a unit kick on each coefficient: the norm of
    its tables over the fit window, since they are linear in the
    coefficients."""
    unit = rows.tables(np.eye(rows.table.shape[0])) ** 2
    norms = np.sqrt(unit[:, : rows.n_f].sum(axis=1) + unit[:, rows.n_f :].sum(axis=1))
    return np.maximum(norms, 1e-30)


@np.errstate(over="ignore", invalid="ignore")
def mc_optimize(
    ansatz0: PotentialAnsatz,
    targets: DesignTargets,
    schedule: AnnealSchedule,
    rows: FockRows | None = None,
) -> tuple[PotentialAnsatz, np.ndarray]:
    """Single-coefficient random-walk descent on the design cost.

    Each kick perturbs one randomly chosen coefficient by a Gaussian
    step whose width is proposal_scale * (current cost) / (that
    coefficient's cost sensitivity), so kicks stay commensurate with the
    remaining error: high-degree coefficients move in proportionally
    tiny steps and the walk has no resolution floor.  The table rows,
    ``fit_rows`` of ansatz0, are built once (here when not given), and
    each proposal is scored from its coefficients.

    The coefficient index, the unit normal that scales the width and the
    accept test each have a generator spawned from the seed.  The first two
    are drawn DRAW_CHUNK proposals ahead (never past ``iterations``) in one
    call per stream, which gives the values of as many scalar calls.  The
    walk builds the next PROPOSAL_BATCH proposals of the chunk from the
    current coefficients and cost, scores them as one stack and moves to the
    first accepted one; the draws after it open the next batch.  A downhill
    proposal is always accepted; at a positive temperature each uphill one
    the walk reaches draws its accept test, in proposal order.  That is the
    walk of one proposal at a time to the bit, so the trace and the best
    coefficients depend on the seed alone, not on DRAW_CHUNK or
    PROPOSAL_BATCH.

    Returns the best ansatz ever visited and the accepted-cost trace
    (length iterations + 1, starting at the initial cost).  The trace's
    running minimum is non-increasing, and at zero temperature the trace
    itself is.  Identical seeds give identical traces.  A non-finite
    initial cost is refused before anything is drawn.  A proposal whose
    cost overflows scores inf or NaN, without a warning, and is rejected
    (warnings are off once per walk: per scored stack that costs 5%).
    """
    rows = fit_rows(ansatz0, targets) if rows is None else rows
    sens = _coefficient_sensitivities(rows)
    coeffs = ansatz0.flat()
    current = next(_fit_costs(rows, coeffs[None], targets))
    if not math.isfinite(current):
        raise ValueError(f"initial design cost is {current}; the walk needs a finite start")
    rng_k, rng_z, rng_u = map(np.random.default_rng,
                              np.random.SeedSequence(schedule.seed).spawn(3))
    size, scale = coeffs.size, schedule.proposal_scale
    temperature = schedule.mc_temperature
    trace = np.empty(schedule.iterations + 1)
    trace[0] = current
    best_coeffs, best_cost = coeffs, current
    proposals = np.empty((PROPOSAL_BATCH, size))
    slots = np.arange(PROPOSAL_BATCH)
    start = 1  # the iteration of the chunk's first draw
    while start <= schedule.iterations:
        count = min(DRAW_CHUNK, schedule.iterations + 1 - start)
        ks, zs = rng_k.integers(size, size=count), rng_z.standard_normal(count)
        # a step is width times one standard normal, as rng.normal(0.0, width)
        # draws it: scale * current / sens[k] * z
        widths = sens[ks]
        p = 0  # the draw of the batch's first proposal
        while p < count:
            n = min(PROPOSAL_BATCH, count - p)
            batch = proposals[:n]
            batch[:] = coeffs
            batch[slots[:n], ks[p : p + n]] += scale * current / widths[p : p + n] * zs[p : p + n]
            i = start + p
            for j, cost in enumerate(_fit_costs(rows, batch, targets)):
                if cost < current or (temperature > 0 and rng_u.random()
                                      < math.exp(-(cost - current) / temperature)):
                    break
            else:
                trace[i : i + n] = current
                p += n
                continue
            trace[i : i + j] = current
            coeffs, current = batch[j].copy(), cost
            if current < best_cost:
                best_coeffs, best_cost = coeffs, current
            trace[i + j] = current
            p += j + 1
        start += count
    return ansatz0.with_flat(best_coeffs), trace

