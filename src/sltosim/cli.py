"""Command-line experiment runner.

Subcommands map one-to-one onto the experiment kinds:

* ``abstract-cycle``  two-ladder engine cycle with all conservation checks
* ``optics-cycle``    cavity-QED effective cycle plus the final-state formula
* ``delta-sweep``     full-vs-effective model comparison over detunings
* ``design``          Monte Carlo fit of cavity intensity profiles
* ``verify-slto``     check an externally supplied unitary against the
                      conservation laws, the thermal fixed point and
                      unitarity, factor by factor (no embedded d x d
                      Hamiltonian).  Diagonal factors cost O(d^2) plus
                      the products per eigenspace and O(d^2) per row of
                      U that leaves its eigenspace; others add two
                      dense d^3 products

Each kind is declared once, as an ``ExperimentKind`` entry in ``KINDS``:
its runner, help line, series header and parameters.  The subcommand's
flags (``--`` plus the key with dashes), the keys a ``--config`` file or
a ``run_experiment`` caller may pass, the type each of their values must
have (``VALUE_KINDS``), and the ``series.csv`` header all come from that
entry.  Only ``design`` is random, so only it takes
``--seed``.

Every run writes ``report.json`` into the output directory (also on
physics failure, with the failing checks flagged); ``--series`` adds a
CSV time series, ``--json-report`` echoes the report to stdout.  A run
that stops on an error writes nothing.  Exit codes: 0 all checks pass,
1 a physics check failed, 2 bad usage or config, 3 I/O failure, 4 an
internal invariant failed (a bug, not bad input).

Matrix files are plain text: the first line holds the matrix dimension
followed optionally by the tensor-factor dimensions; each following
line is one row of complex entries like ``0.5-0.25j`` (lower-case ``j``),
parsed as ``np.loadtxt`` parses them.  Both directions keep the exact
zeros away from the float routines (``bytescan``): the writer spells
each one as the literal ``bytescan.ZERO_TOKEN`` and formats only a row's
other entries, in ``bytescan.ENTRY_FORMAT``, one row at a time
(``bytescan.format_rows``); a large, mostly-zero body is read by one
pass over its bytes in which each exact zero skips the float parser
(``bytescan.parse_body``).  The header is
checked first: a dimension above ``engine.MAX_DENSE_DIM`` is refused
before any row is read, and ``abstract-cycle --export-matrices`` refuses
one before its cycle runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import numbers
import os
import stat
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bytescan import format_rows, parse_body
from .designer import (
    AnnealSchedule,
    DesignTargets,
    FockRows,
    PotentialAnsatz,
    design_cost,
    fit_rows,
    mc_optimize,
)
# unused here; bench/tracing.py patches it by name
from .designer import fock_matrix_elements
from .engine import (
    MAX_DENSE_DIM,
    CompactEngineConfig,
    CycleReport,
    InvariantError,
    check_dense_cap,
    evolution_operator,
    evolve_cycle,
)
from .linalg import HermiticityError, Operator, ShapeError, max_abs
# unused here; bench/tracing.py patches these by name
from .linalg import commutator_norm, tensor_product
from .optics import (
    SAMPLES_PER_PERIOD,
    OpticsEngineConfig,
    adiabatic_elimination_error,
    run_optics_cycle,
    sweep_slopes,
    uniform_exchange_profile,
)
from .thermal import gibbs_density, gibbs_weights
# unused here; bench/tracing.py patches it by name
from .thermal import truncation_for_tail

SCHEMA_VERSION = 1

#: series.csv rows formatted per write, so that a long series (a design
#: trace of up to 10^6 rows) is never held as one string
SERIES_CHUNK_ROWS = 4096

PASS_THRESHOLDS = {
    "carnot_efficiency": 1e-9,
    "cycle_duration": 1e-10,
    "max_power": 1e-10,
    "clausius": 1e-9,
    "commutator_energy": 1e-10,
    "commutator_weighted": 1e-10,
    "amplitudes": 1e-10,
    "final_state_formula": 1e-6,
    "verify_slto": 1e-9,
}


class ConfigError(ValueError):
    """Bad or inconsistent experiment configuration."""


# ---------------------------------------------------------------------------
# output files and matrix file interchange
# ---------------------------------------------------------------------------

def _replaceable(path) -> bool:
    """Whether a new file may take the place of what is at ``path``.

    Only a regular file, or a symlink straight to a regular file on the
    link's own file system or to nothing, is replaced.  A device, FIFO or
    socket, a link into another file system such as ``/proc/self/fd/1``,
    and a chain of links such as ``/dev/stdout`` -> ``/proc/self/fd/1``,
    are written through.
    """
    try:
        link = os.lstat(path)
    except FileNotFoundError:
        return False
    if not stat.S_ISLNK(link.st_mode):
        return stat.S_ISREG(link.st_mode)
    try:
        target = os.stat(path)
    except FileNotFoundError:
        return True
    hop = os.path.join(os.path.dirname(path), os.readlink(path))
    return (stat.S_ISREG(target.st_mode) and target.st_dev == link.st_dev
            and not os.path.islink(hop))


def _open_new(path):
    """Open ``path`` for writing, as a new file where it holds a file already.

    Every output goes through here.  A rerun replaces its old files rather
    than rewriting them in place: a hard link to the old file keeps the old
    bytes, and a symlink at ``path`` is replaced, not written through.  What
    ``_replaceable`` refuses, and a file in a directory that may not be
    written to, is opened with ``"w"`` as it stands.
    """
    if _replaceable(path):
        try:
            os.unlink(path)
        except OSError:
            pass
    return open(path, "w")


def write_matrix_file(path, entries: np.ndarray, layout: tuple[int, ...] | None = None):
    """Write the square matrix ``entries`` as a matrix file at ``path``.

    The header line holds the dimension and then the factor dimensions of
    ``layout``, if given.  Each row follows on its own line, its entries
    in ``bytescan.ENTRY_FORMAT`` with one blank between them, each exact
    zero written ``bytescan.ZERO_TOKEN`` without the formatter
    (``bytescan.format_rows``); the lines are written as they are built,
    so the body is never held whole.
    """
    with _open_new(path) as fh:
        fh.write(" ".join(str(d) for d in (len(entries), *(layout or ()))) + "\n")
        fh.writelines(format_rows(entries))


def _row_problem(rows: list[str], dim: int) -> str:
    """The first row of a matrix file that is ragged or does not parse."""
    for i, line in enumerate(rows):
        count = len(line.split())
        if count != dim:
            return f"row {i} has {count} entries"
        try:
            np.loadtxt([line], dtype=np.complex128, comments=None)
        except ValueError:
            return f"unparsable entry in row {i}"
    return f"rows do not form a {dim}x{dim} matrix"


def read_matrix_file(path) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """The matrix and layout of a matrix file; its header is checked before any row is read."""
    with open(path) as fh:
        header = next((line.strip() for line in fh if line.strip()), "")
        if not header:
            raise ConfigError(f"{path}: empty matrix file")
        try:
            dims = [int(tok) for tok in header.split()]
        except ValueError as err:
            raise ConfigError(f"{path}: bad header {header!r}") from err
        if min(dims) < 1:  # the dimension and every layout factor
            raise ConfigError(f"{path}: bad header {header!r}")
        dim, layout = dims[0], tuple(dims[1:]) or None
        if dim > MAX_DENSE_DIM:
            raise ConfigError(f"{path}: dimension {dim}, above the cap {MAX_DENSE_DIM}")
        if layout is not None and math.prod(layout) != dim:
            raise ConfigError(f"{path}: layout {layout} does not multiply to {dim}")
        body = fh.read().rstrip()
    # the byte pass vouches for dim rows of dim entries; any other body is read by rows
    entries = parse_body(body, dim)
    if entries is None:
        rows = body.splitlines()
        if len(rows) != dim:
            raise ConfigError(f"{path}: expected {dim} rows, found {len(rows)}")
        try:
            entries = np.loadtxt(rows, dtype=np.complex128, ndmin=2, comments=None)
        except ValueError:
            entries = None
        if entries is None or entries.shape != (dim, dim):  # loadtxt skips blank rows
            raise ConfigError(f"{path}: {_row_problem(rows, dim)}")
    bad_rows = np.flatnonzero(~np.isfinite(entries).all(axis=1))
    if bad_rows.size:
        raise ConfigError(f"{path}: non-finite entry in row {bad_rows[0]}")
    return entries, layout


# ---------------------------------------------------------------------------
# semi-local thermal operation verifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SltoCheckReport:
    residual_energy: float
    residual_weighted: float
    off_block_max: float
    fixed_point_residual: float
    unitarity_residual: float
    threshold: float = PASS_THRESHOLDS["verify_slto"]

    @property
    def passed(self) -> bool:
        return (
            self.residual_energy <= self.threshold
            and self.residual_weighted <= self.threshold
            and self.off_block_max <= self.threshold
            and self.fixed_point_residual <= self.threshold
            and self.unitarity_residual <= self.threshold
        )


def _apply_factor(m: np.ndarray, a: np.ndarray, dims: tuple[int, ...], k: int) -> np.ndarray:
    """(I x .. x a x .. x I) @ m, with ``a`` on tensor factor ``k`` of m's rows.

    The row index of ``m`` splits into ``dims``; the factors before ``k``
    become a leading batch of one matmul, so the cost is d^2 * dims[k].
    """
    lead = math.prod(dims[:k])
    return np.matmul(a, m.reshape(lead, dims[k], -1)).reshape(m.shape)


def _diagonal(a: np.ndarray) -> np.ndarray | None:
    """The diagonal of ``a`` if every off-diagonal entry is exactly 0, else None."""
    diag = np.diagonal(a)
    return diag if np.count_nonzero(a) == np.count_nonzero(diag) else None


def _lift(diag: np.ndarray, dims: tuple[int, ...], k: int) -> np.ndarray:
    """The diagonal of I x .. x diag(diag) x .. x I, with ``diag`` on factor ``k``."""
    return np.tile(np.repeat(diag, math.prod(dims[k + 1:])), math.prod(dims[:k]))


def _commutator_residuals(brackets: list[np.ndarray], beta1: float,
                          beta2: float) -> tuple[float, float]:
    """max |[U, H]| and max |[U, beta1 H_B1 + beta2 H_B2 (+ W_S)]| from [U, A] per term."""
    energy = max_abs(brackets[0] + brackets[1] + brackets[2])
    weighted = beta1 * brackets[0] + beta2 * brackets[1]
    if len(brackets) == 4:
        weighted += brackets[3]
    return energy, max_abs(weighted)


def _eigenspaces(eigvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): eigenspace j is order[starts[j]:starts[j + 1]], split at gaps > 1e-8."""
    order = np.argsort(eigvals, kind="stable")
    return order, np.flatnonzero(np.diff(eigvals[order], prepend=-np.inf) > 1e-8)


#: entries of U per slab of rows of brackets: 125 KiB of complex entries, under
#: the 128 KiB from which glibc's malloc maps fresh pages, so each temporary is
#: reused from the heap and stays in cache instead of faulting its pages in anew
_SLAB_ENTRIES = 8000


def _bracket_residuals(m: np.ndarray, rows, cols, terms: list[np.ndarray], beta1: float,
                       beta2: float) -> list[tuple[float, float]]:
    """``_commutator_residuals`` of each slab of rows of the entries m = U[rows, cols].

    A diagonal term's bracket [U, A] = U diag(e) - diag(e) U is a broadcast
    multiply by its lifted diagonal e, indexed like m's rows and columns.
    """
    step = max(1, _SLAB_ENTRIES * m.shape[-2] // m.size)
    return [_commutator_residuals([m[..., lo:lo + step, :] * e[cols][..., None, :]
                                   - e[rows][..., lo:lo + step, None] * m[..., lo:lo + step, :]
                                   for e in terms], beta1, beta2)
            for lo in range(0, m.shape[-2], step)]


def _diagonal_residuals(u: np.ndarray, terms: list[np.ndarray], gammas: list[np.ndarray],
                        beta1: float, beta2: float) -> SltoCheckReport:
    """``verify_slto`` for exactly diagonal factor terms, in the input basis.

    ``terms`` and ``gammas`` are the lifted diagonals of the factor terms and
    of the three factor Gibbs states.  A row of U is dirty when a nonzero
    entry (1e-300 counts) lies outside its own eigenspace.  The clean rows
    are block-diagonal, so each residual is a part per eigenspace, equal-size
    blocks in one stacked matmul, plus a part over the dirty rows, which hold
    every entry between eigenspaces: O(d^2 + sum of block^3 + |dirty| d^2).
    """
    d = u.shape[0]
    order, starts = _eigenspaces(terms[0].real + terms[1].real + terms[2].real)
    sizes = np.diff(starts, append=d)
    row_nonzeros = np.count_nonzero(u, axis=1)
    is_dirty = np.zeros(d, dtype=bool)
    g1, g2, gs = gammas
    parts, grams, fixed_point, off_block = [], [], 0.0, 0.0
    for size in np.unique(sizes):
        idx = order[starts[sizes == size][:, None] + np.arange(size)]
        b = u[idx[:, :, None], idx[:, None, :]]
        dirty = is_dirty[idx] = row_nonzeros[idx] > np.count_nonzero(b, axis=2)
        b[dirty] = 0.0  # the clean rows; the dirty ones are taken in full below
        parts += _bracket_residuals(b, idx, idx, terms, beta1, beta2)
        b_dag = b.conj().transpose(0, 2, 1)
        moved = (b * g1[idx][:, None, :] * g2[idx][:, None, :] * gs[idx][:, None, :]) @ b_dag
        gram = b_dag @ b
        diag = np.arange(size)
        moved[:, diag, diag] -= np.where(dirty, 0.0, g1[idx] * g2[idx] * gs[idx])
        gram[:, diag, diag] -= 1.0
        fixed_point = max(fixed_point, max_abs(moved))
        grams.append((idx, gram))
    del b, b_dag, moved, gram  # the last group's, before the dense products below

    dirty = np.flatnonzero(is_dirty)  # in index order, as dense products sum them
    if dirty.size:
        # off-block mass: the largest Frobenius norm of a block between eigenspaces,
        # summed over U's column eigenspaces, then its dirty rows in eigenspace order
        at = np.flatnonzero(is_dirty[order])
        u_dirty = u[order[at]]
        mass = np.add.reduceat((u_dirty.real**2 + u_dirty.imag**2).T[order], starts, axis=0)
        space = np.searchsorted(starts, at, side="right") - 1
        heads = np.flatnonzero(np.diff(space, prepend=-1))
        mass = np.add.reduceat(mass, heads, axis=1)
        mass[space[heads], np.arange(heads.size)] = 0.0
        off_block = math.sqrt(mass.max())
        del mass
        u_dirty = u[dirty]
        parts += _bracket_residuals(u_dirty, dirty, slice(None), terms, beta1, beta2)
        # conj(U_R gamma U^dag): the dirty rows of the Hermitian U gamma U^dag
        # - gamma up to conjugation, which also stand for its dirty columns
        moved = np.conj(u_dirty * g1 * g2 * gs) @ u.T
        moved[np.arange(dirty.size), dirty] -= (g1 * g2 * gs)[dirty]
        fixed_point = max(fixed_point, max_abs(moved))
        del moved
        # U^dag U - I: the rank-|dirty| term plus the clean rows' blocks
        gram = u_dirty.conj().T @ u_dirty
        for idx, g in grams:
            gram[idx[:, :, None], idx[:, None, :]] += g
        grams = [(None, gram)]

    return SltoCheckReport(max(e for e, _ in parts), max(w for _, w in parts), off_block,
                           fixed_point, max(max_abs(g) for _, g in grams))


def verify_slto(
    u: Operator,
    h_bath1: Operator,
    h_bath2: Operator,
    h_system: Operator,
    beta1: float,
    beta2: float,
    w_system: Operator | None = None,
) -> SltoCheckReport:
    """Check the defining properties of a semi-local thermal operation.

    Residuals reported: commutator with the total energy, commutator with
    the weighted energy beta1 H_B1 + beta2 H_B2 (+ an optional weighted
    system term), the largest Frobenius norm of a block of U between two
    different total-energy eigenspaces, the invariance defect of the
    semi-Gibbs product state gibbs(beta1) x gibbs(beta2) x exp(-W_S)/Z,
    and the unitarity defect max |U^dag U - I|.

    Exactly diagonal factors (and W_S), as in every export and every
    physical bath, go to ``_diagonal_residuals``.  Otherwise each energy
    operator, a Kronecker sum of the (bath1, bath2, system) factors, is
    applied factor by factor to the rows of U (A U) or of U^T
    (U A = (A^T U^T)^T) and never embedded; the commutators are measured in
    the input basis, the off-block mass in the product basis of the factor
    eigenvectors.  That is O(d^2 (d1 + d2 + ds)) work plus two dense d^3
    products, U gamma U^dag and U^dag U.
    """
    for name, beta in (("beta1", beta1), ("beta2", beta2)):
        if not math.isfinite(beta):
            raise ConfigError(f"{name} must be finite, got {beta}")
    d1, d2, ds = dims = (h_bath1.dim, h_bath2.dim, h_system.dim)
    if d1 * d2 * ds != u.dim:
        raise ShapeError(f"factors {dims} do not multiply to the unitary dim {u.dim}")
    if w_system is not None and w_system.dim != ds:
        raise ShapeError(f"weighted system term has dim {w_system.dim}, system has {ds}")
    factors = (h_bath1.entries, h_bath2.entries, h_system.entries)
    terms = [(a, k) for k, a in enumerate(factors)]
    if w_system is not None:
        terms.append((w_system.entries, 2))

    diagonals = [_diagonal(a) for a, _ in terms]
    if all(e is not None for e in diagonals):
        # each factor's Gibbs state is diagonal too: its weights, from the diagonal
        weights = [gibbs_weights(diagonals[0].real, beta1),
                   gibbs_weights(diagonals[1].real, beta2),
                   np.full(ds, 1.0 / ds) if w_system is None
                   else gibbs_weights(diagonals[3].real, 1.0)]
        return _diagonal_residuals(
            u.entries, [_lift(e, dims, k) for e, (_, k) in zip(diagonals, terms)],
            [_lift(w, dims, k) for k, w in enumerate(weights)], beta1, beta2)

    sigma_s = (np.eye(ds, dtype=np.complex128) / ds if w_system is None
               else gibbs_density(w_system, 1.0).entries)
    gammas = (gibbs_density(h_bath1, beta1).entries,
              gibbs_density(h_bath2, beta2).entries, sigma_s)

    # [U, A] for every factor term A; each energy commutator is a weighted
    # sum of these (max-entry norms and sums do not depend on the layout)
    u_t = np.ascontiguousarray(u.entries.T)
    # [U, A]^T = (U A)^T - (A U)^T = A^T U^T - (A U)^T
    residual_energy, residual_weighted = _commutator_residuals([
        _apply_factor(u_t, a.T, dims, k) - _apply_factor(u.entries, a, dims, k).T
        for a, k in terms
    ], beta1, beta2)
    del u_t

    # total-energy eigenspaces in the product basis V = V1 x V2 x VS of the
    # factor eigenvectors
    spectra = [np.linalg.eigh(a) for a in factors]
    e1, e2, es = (e for e, _ in spectra)
    order, starts = _eigenspaces(
        (e1[:, None, None] + e2[None, :, None] + es[None, None, :]).ravel())

    # off-block mass: the largest Frobenius norm of a block of V^dag U V
    # between two eigenspaces.  It does not depend on the basis chosen inside
    # a degenerate eigenspace; the transpose only swaps which block is which.
    m = u.entries
    for k, (_, v) in enumerate(spectra):
        m = _apply_factor(m, v.conj().T, dims, k)
    m = np.ascontiguousarray(m.T)
    for k, (_, v) in enumerate(spectra):
        m = _apply_factor(m, v.T, dims, k)  # (V^dag U V)^T
    mass = np.add.reduceat((m.real**2 + m.imag**2)[np.ix_(order, order)], starts, axis=0)
    mass = np.add.reduceat(mass, starts, axis=1)
    np.fill_diagonal(mass, 0.0)
    off_block = math.sqrt(mass.max())
    del m, mass  # free them before the two d^3 products below

    u_gamma_t = np.ascontiguousarray(u.entries.T)
    for k, g in enumerate(gammas):
        u_gamma_t = _apply_factor(u_gamma_t, g.T, dims, k)
    u_dag = u.entries.conj().T
    moved = (u_gamma_t.T @ u_dag).reshape(d1 * d2, ds, d1 * d2, ds)
    # gamma = (g1 x g2) x sigma_s, indexed (baths, system, baths, system)
    moved -= np.kron(gammas[0], gammas[1])[:, None, :, None] * sigma_s[None, :, None, :]
    fixed_point = max_abs(moved)
    del u_gamma_t, moved

    gram = u_dag @ u.entries
    gram.flat[:: u.dim + 1] -= 1.0
    return SltoCheckReport(residual_energy, residual_weighted, off_block, fixed_point,
                           max_abs(gram))


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunArtifact:
    report_path: str
    series_path: str | None
    tool_version: str
    all_checks_passed: bool


def _check(value: float, threshold: float) -> dict:
    return {"value": float(value), "threshold": threshold, "passed": bool(value <= threshold)}


def _cycle_results(report: CycleReport) -> dict:
    return {
        "w_ext": report.w_ext,
        "q1": report.q1,
        "q2": report.q2,
        "q1_ensemble": report.q1_ensemble,
        "q2_ensemble": report.q2_ensemble,
        "eta": report.eta,
        "eta_carnot": 1.0 - report.beta1 / report.beta2,
        "tau": report.tau,
        "power": report.power,
        "clausius_residual": report.clausius_residual,
        "commutator_residual_energy": report.commutator_residual_energy,
        "commutator_residual_weighted": report.commutator_residual_weighted,
        "amplitude_residual": report.amplitude_residual,
        "success_weight": report.success_weight,
        "vacuum_weight": report.vacuum_weight,
        "boundary_weight": report.boundary_weight,
        "partition_function1": report.partition_function1,
        "partition_function2": report.partition_function2,
        "final_system_populations": [float(p) for p in report.final_system_populations],
        "entanglement_max": float(np.max(report.entanglement_trace)),
        "speed_mean": float(np.mean(report.speed_trace)),
    }


def _cycle_checks(report: CycleReport) -> dict:
    carnot = 1.0 - report.beta1 / report.beta2
    return {
        "carnot_efficiency": _check(abs(report.eta - carnot), PASS_THRESHOLDS["carnot_efficiency"]),
        "cycle_duration": _check(
            abs(report.tau - math.pi / (2 * report.g)), PASS_THRESHOLDS["cycle_duration"]
        ),
        "max_power": _check(
            abs(report.power - 2 * report.g * report.w_ext / math.pi),
            PASS_THRESHOLDS["max_power"],
        ),
        "clausius": _check(report.clausius_residual, PASS_THRESHOLDS["clausius"]),
        "commutator_energy": _check(
            report.commutator_residual_energy, PASS_THRESHOLDS["commutator_energy"]
        ),
        "commutator_weighted": _check(
            report.commutator_residual_weighted, PASS_THRESHOLDS["commutator_weighted"]
        ),
        "amplitudes": _check(report.amplitude_residual, PASS_THRESHOLDS["amplitudes"]),
    }


def _cycle_series(report: CycleReport) -> list[list]:
    # Python floats: run_experiment formats them twice as fast as np.float64
    pops = report.population_trace
    return np.column_stack([
        report.times, pops[:, 0], pops[:, 1], np.zeros(len(report.times)),
        report.entanglement_trace,
        report.bath1_energy_trace, report.bath2_energy_trace,
        report.residual_energy_trace, report.residual_weighted_trace,
    ]).tolist()


SERIES_HEADER = "t,pop1,pop2,pop3,S_ent,E_B1,E_B2,resid_energy,resid_weighted"


def run_abstract_cycle(params: dict, out_dir: Path) -> tuple[dict, dict, list | None]:
    if params["beta1"] >= params["beta2"]:
        raise ConfigError("abstract-cycle needs beta1 < beta2")
    cfg = CompactEngineConfig(
        beta1=params["beta1"], beta2=params["beta2"], omega1=params["omega1"], g=params["g"],
        n_max1=params.get("n_max1"), n_max2=params.get("n_max2"), a0=params.get("a0", 0.0),
        tail_delta=params.get("tail_delta", 1e-6),
    )
    export = params.get("export_matrices")
    if export:
        check_dense_cap(cfg)  # before the cycle runs
    report = evolve_cycle(cfg)
    if export:
        u_tau = evolution_operator(cfg, cfg.tau).entries
        target = Path(export)
        target.mkdir(parents=True, exist_ok=True)
        write_matrix_file(target / "u_tau.txt", u_tau, (cfg.n_max1 + 1, cfg.n_max2 + 1, 2))
        write_matrix_file(target / "h_bath1.txt", np.diag(cfg.omega1 * np.arange(cfg.n_max1 + 1)).astype(complex))
        write_matrix_file(target / "h_bath2.txt", np.diag(cfg.omega2 * np.arange(cfg.n_max2 + 1)).astype(complex))
        write_matrix_file(target / "h_system.txt", np.diag([cfg.a0, cfg.a1]).astype(complex))
    results = _cycle_results(report)
    results["config_used"] = {
        "beta1": cfg.beta1, "beta2": cfg.beta2, "omega1": cfg.omega1, "omega2": cfg.omega2,
        "g": cfg.g, "n_max1": cfg.n_max1, "n_max2": cfg.n_max2, "a0": cfg.a0, "a1": cfg.a1,
    }
    return results, _cycle_checks(report), _cycle_series(report)


def run_optics_cycle_cmd(params: dict, out_dir: Path) -> tuple[dict, dict, list | None]:
    cfg = OpticsEngineConfig(
        beta1=params["beta1"],
        beta2=params["beta2"],
        omega1=params["omega1"],
        g1=params.get("g1", 2.0),
        g2=params.get("g2", 2.0),
        delta=params.get("detuning", 80.0),
        n_max1=params.get("n_max1"),
        n_max2=params.get("n_max2"),
        min_detuning_ratio=params.get("min_ratio", 20.0),
        tail_delta=params.get("tail_delta", 1e-6),
    )
    report = run_optics_cycle(cfg)
    results = _cycle_results(report)
    results["omega0"] = cfg.omega0
    results["delta"] = cfg.delta
    results["g"] = cfg.g
    corrected = report.corrected_final_populations
    expected = np.array([
        1.0 / report.partition_function1,
        1.0 - 1.0 / report.partition_function1,
    ])
    results["corrected_final_populations"] = [float(p) for p in corrected]
    results["final_state_expected"] = [float(p) for p in expected]
    checks = _cycle_checks(report)
    checks["final_state_formula"] = _check(
        float(np.max(np.abs(corrected - expected))), PASS_THRESHOLDS["final_state_formula"]
    )
    results["config_used"] = {
        "beta1": cfg.beta1, "beta2": cfg.beta2, "omega1": cfg.omega1, "omega2": cfg.omega2,
        "omega0": cfg.omega0, "g1": cfg.g1, "g2": cfg.g2,
        "delta": cfg.delta, "n_max1": cfg.n_max1, "n_max2": cfg.n_max2,
    }
    return results, checks, _cycle_series(report)


def _slope_band(slope: float | None, low: float, high: float) -> dict:
    """A slope band check; a series without a slope (None) fails it."""
    return {"value": slope, "threshold": [low, high],
            "passed": slope is not None and low <= slope <= high}


def run_delta_sweep(params: dict, out_dir: Path) -> tuple[dict, dict, list | None]:
    ratios = params.get("ratios", [20.0, 40.0, 80.0, 160.0])
    if not hasattr(ratios, "__len__") or len(ratios) < 2:
        raise ConfigError(f"ratios: need at least two sweep points, got {ratios!r}")
    if len(set(ratios)) < 2:
        raise ConfigError(f"ratios: need at least two distinct values, got {list(ratios)!r}")
    block = tuple(params.get("block", (3, 1)))
    if len(block) != 2:
        raise ConfigError(f"block: need two integers n,m, got {list(block)!r}")
    g1 = params.get("g1", 0.5)
    g2 = params.get("g2", 0.5)
    cfg = OpticsEngineConfig(
        beta1=params.get("beta1", 0.5),
        beta2=params.get("beta2", 1.0),
        omega1=params.get("omega1", 2.0),
        g1=g1,
        g2=g2,
        delta=min(ratios) * max(g1, g2),
        n_max1=params.get("n_max1", 4),
        n_max2=params.get("n_max2", 4),
        min_detuning_ratio=5.0,
    )
    deltas = [r * max(g1, g2) for r in ratios]
    points = adiabatic_elimination_error(
        cfg, uniform_exchange_profile(cfg), deltas, initial_block=block
    )
    dev_slope, leak_slope = sweep_slopes(points)
    devs = [p.population_deviation for p in points]
    monotone = all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    # the sample cap can leave the fastest oscillation under-resolved
    density = min(p.samples_per_period for p in points)
    results = {
        "points": [dict(vars(p)) for p in points],
        "deviation_slope": dev_slope,
        "leak_slope": leak_slope,
        "monotone_decreasing": monotone,
        "initial_block": list(block),
        "config_used": {"g1": g1, "g2": g2, "ratios": list(ratios)},
    }
    checks = {
        "deviation_monotone": {"value": float(not monotone), "threshold": 0.5,
                               "passed": monotone},
        "deviation_slope_band": _slope_band(dev_slope, -1.4, -0.6),
        "leak_slope_band": _slope_band(leak_slope, -2.5, -1.5),
        "sampling_density": {"value": density, "threshold": SAMPLES_PER_PERIOD,
                             "passed": density >= SAMPLES_PER_PERIOD},
    }
    series = [[p.delta, p.ratio, p.population_deviation, p.leak_max] for p in points]
    return results, checks, series


def design_document(
    best: PotentialAnsatz,
    targets: DesignTargets,
    schedule: AnnealSchedule,
    initial_cost: float,
    best_cost: float,
    rows: FockRows | None = None,
) -> dict:
    """The design file of a fit, as ``design --design-in`` reads it back.

    ``rows`` are the fit's ``fit_rows``, built here when not given.
    """
    rows = fit_rows(best, targets) if rows is None else rows
    achieved = rows.tables(best.flat()[None])[0]
    return {
        "schema_version": SCHEMA_VERSION,
        "ansatz": {
            "v_degrees": [int(d) for d in best.v_degrees],
            "v_coeffs": [float(c) for c in best.v_coeffs],
            "b_degrees": [int(d) for d in best.b_degrees],
            "b_coeffs": [float(c) for c in best.b_coeffs],
        },
        "targets": {
            "f": [float(v) for v in targets.f_target],
            "theta": [float(v) for v in targets.theta_target],
            "q": targets.q, "n_work": targets.n_work,
        },
        "schedule": dataclasses.asdict(schedule),
        "result": {
            "initial_cost": float(initial_cost), "best_cost": float(best_cost),
            "f_achieved": achieved[: rows.n_f].tolist(),
            "theta_achieved": achieved[rows.n_f :].tolist(),
        },
    }


def _design_entry(spec: dict, section: str, key: str, path):
    """spec[section][key] of a design file; a missing entry is a ConfigError."""
    try:
        return spec[section][key]
    except (KeyError, TypeError) as err:
        raise ConfigError(f"{path}: design file lacks {section}.{key}") from err


#: the optional scalar entries of a design file, each with its flag type in VALUE_KINDS
DESIGN_SCALARS = (("targets", "q", float), ("targets", "n_work", int),
                  ("schedule", "iterations", int), ("schedule", "proposal_scale", float),
                  ("schedule", "mc_temperature", float), ("schedule", "seed", int))


def _check_design_scalars(spec: dict, path):
    """Refuse a mistyped scalar entry of a design file, naming the file and the entry."""
    for section, key, kind in DESIGN_SCALARS:
        entries, (accepts, what) = spec.get(section, {}), VALUE_KINDS[kind]
        if not isinstance(entries, dict):
            raise ConfigError(f"{path}: design file {section} must be an object, got {entries!r}")
        if key in entries and not accepts(entries[key]):
            raise ConfigError(f"{path}: design file {section}.{key} must be {what}, "
                              f"got {entries[key]!r}")


def run_design(params: dict, out_dir: Path) -> tuple[dict, dict, Iterable[list]]:
    q = params.get("q", 4.0)
    if params.get("design_in"):
        path = params["design_in"]
        try:
            spec = json.loads(Path(path).read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read design file {path}: {err}") from err
        if not isinstance(spec, dict):
            raise ConfigError(f"{path}: design file must hold a JSON object")
        _validate_keys(
            spec, {"ansatz", "targets", "schedule", "result", "schema_version"},
            "design file",
        )
        v_coeffs, b_coeffs = (_design_entry(spec, "ansatz", key, path)
                              for key in ("v_coeffs", "b_coeffs"))
        f, theta = (_design_entry(spec, "targets", key, path) for key in ("f", "theta"))
        _check_design_scalars(spec, path)
        try:
            ansatz0 = PotentialAnsatz(np.array(v_coeffs), np.array(b_coeffs))
            targets = DesignTargets(np.array(f), np.array(theta), q=spec["targets"].get("q", q),
                                    n_work=spec["targets"].get("n_work", 0))
        except ValueError as err:  # non-finite or malformed entries
            raise ConfigError(f"{path}: {err}") from err
        if params.get("n_fit", targets.n_fit) != targets.n_fit:
            raise ConfigError(
                f"n_fit {params['n_fit']} disagrees with the {targets.n_fit} target "
                f"entries in {path}"
            )
        sched_in = spec.get("schedule", {})
    else:
        amplitude = params.get("amplitude", 0.0125)
        targets = DesignTargets.inverse_intensity(amplitude, params.get("n_fit", 6), q=q)
        ansatz0 = PotentialAnsatz.zeros()
        sched_in = {}
    schedule = AnnealSchedule(
        iterations=int(params.get("iterations", sched_in.get("iterations", 20000))),
        proposal_scale=float(params.get("proposal_scale", sched_in.get("proposal_scale", 0.2))),
        mc_temperature=float(params.get("temperature", sched_in.get("mc_temperature", 0.0))),
        seed=int(params.get("seed", sched_in.get("seed", 0))),
    )
    rows = fit_rows(ansatz0, targets)
    best, trace = mc_optimize(ansatz0, targets, schedule, rows)
    best_cost = design_cost(best, targets, rows)
    design = design_document(best, targets, schedule, trace[0], best_cost, rows)
    results = {
        **design["result"],
        "iterations": schedule.iterations,
        "seed": schedule.seed,
        "v_coeffs": design["ansatz"]["v_coeffs"],
        "b_coeffs": design["ansatz"]["b_coeffs"],
        "f_target": design["targets"]["f"],
        "theta_target": design["targets"]["theta"],
    }
    running_min = np.minimum.accumulate(trace)
    checks = {
        "trace_running_min_nonincreasing": {
            "value": float(np.max(np.diff(running_min))), "threshold": 0.0,
            "passed": bool(np.all(np.diff(running_min) <= 0.0)),
        },
        # the walk scores its trace in stacks of proposals and best_cost is
        # scored alone, so this holds with threshold 0.0 only while
        # design_cost gives a row the same bits in any stack
        # (TestDesignCommand::test_best_cost_equals_trace_minimum)
        "cost_not_increased": {
            "value": float(best_cost - trace.min()), "threshold": 0.0,
            "passed": bool(best_cost <= trace.min()),
        },
    }
    out_path = Path(params.get("design_out") or out_dir / "design.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with _open_new(out_path) as fh:
        fh.write(json.dumps(design, indent=2, sort_keys=True) + "\n")
    results["design_path"] = str(out_path)
    # (iteration, cost) rows of Python floats, built a chunk at a time and
    # only if run_experiment writes series.csv
    series = itertools.chain.from_iterable(
        enumerate(trace[start : start + SERIES_CHUNK_ROWS].tolist(), start)
        for start in range(0, trace.size, SERIES_CHUNK_ROWS)
    )
    return results, checks, series


def _hermitian_file(params: dict, key: str) -> Operator:
    """The Hermitian operator in the matrix file ``params[key]``, named by its flag if not."""
    entries, _ = read_matrix_file(params[key])
    try:
        return Operator(entries, hermitian_hint=True)
    except HermiticityError as err:
        raise ConfigError(f"--{key.replace('_', '-')} {params[key]}: {err}") from err


def run_verify_slto(params: dict, out_dir: Path) -> tuple[dict, dict, list | None]:
    u_entries, layout = read_matrix_file(params["unitary"])
    h1, h2, hs = (_hermitian_file(params, key) for key in ("bath1", "bath2", "system"))
    if layout is not None and (h1.dim, h2.dim, hs.dim) != tuple(layout):
        raise ConfigError(f"factor files {(h1.dim, h2.dim, hs.dim)} disagree "
                          f"with the unitary layout {layout}")
    w_system = None
    if params.get("weighted_system"):
        w_system = _hermitian_file(params, "weighted_system")
        if w_system.dim != hs.dim:
            raise ConfigError(f"{params['weighted_system']}: weighted system term has dim "
                              f"{w_system.dim}, the system Hamiltonian {params['system']} "
                              f"has dim {hs.dim}")
    # the parsed array has no other holder, so it is handed over, not copied
    check = verify_slto(Operator(u_entries, copy=False), h1, h2, hs, params["beta1"],
                        params["beta2"], w_system=w_system)
    results = dataclasses.asdict(check)
    results["passed"] = check.passed
    checks = {
        "commutator_energy": _check(check.residual_energy, check.threshold),
        "commutator_weighted": _check(check.residual_weighted, check.threshold),
        "block_diagonality": _check(check.off_block_max, check.threshold),
        "semi_gibbs_fixed_point": _check(check.fixed_point_residual, check.threshold),
        "unitarity": _check(check.unitarity_residual, check.threshold),
    }
    return results, checks, None


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _row_lines(rows: Iterable, n_columns: int) -> Iterator[str]:
    """series.csv lines of numeric rows, each value as %.17g (an int, the
    design iteration, prints as str() prints it), as one string per
    SERIES_CHUNK_ROWS rows, formatted by one %."""
    row_format = ",".join(["%.17g"] * n_columns) + "\n"
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, SERIES_CHUNK_ROWS)):
        yield (row_format * len(chunk)) % tuple(itertools.chain.from_iterable(chunk))


def _trace_lines(rows: Iterable, n_columns: int) -> Iterator[str]:
    """``_row_lines`` of (iteration, cost) rows, formatting each run of
    equal costs once: a walk's trace repeats its cost until the next
    accepted move.  A zero is formatted on every row, since 0.0 == -0.0
    but the two print differently."""
    rows = iter(rows)
    last = text = None
    while True:
        lines = []
        for i, cost in itertools.islice(rows, SERIES_CHUNK_ROWS):
            if cost != last or not cost:
                last, text = cost, "%.17g\n" % cost
            lines.append(f"{i},{text}")
        if not lines:
            return
        yield "".join(lines)


@dataclass(frozen=True)
class ExperimentKind:
    """Everything the CLI knows about one experiment kind.

    ``params`` maps each accepted parameter key to the argparse type of
    its flag ``--key-with-dashes``; ``required`` names the keys every run
    must end up with, from flags, a ``--config`` file or the API caller.
    ``series_header`` is the first line of ``series.csv`` (``None`` when
    the kind writes no series).  The runner's series rows are iterated
    once, and only when ``series.csv`` is written, by ``series_lines``
    (given the rows and the header's column count), which yields the
    file's lines one SERIES_CHUNK_ROWS chunk at a time.
    """

    runner: Callable[[dict, Path], tuple[dict, dict, Iterable[list] | None]]
    help: str
    series_header: str | None
    params: dict[str, Callable[[str], object]]
    required: frozenset[str] = frozenset()
    series_lines: Callable[[Iterable, int], Iterator[str]] = _row_lines


KINDS = {
    "abstract-cycle": ExperimentKind(
        run_abstract_cycle, "two-ladder engine cycle", SERIES_HEADER,
        {"beta1": float, "beta2": float, "omega1": float, "g": float,
         "n_max1": int, "n_max2": int, "a0": float, "tail_delta": float,
         "export_matrices": str},
        required=frozenset({"beta1", "beta2", "omega1", "g"}),
    ),
    "optics-cycle": ExperimentKind(
        run_optics_cycle_cmd, "cavity engine effective cycle", SERIES_HEADER,
        {"beta1": float, "beta2": float, "omega1": float, "g1": float, "g2": float,
         "detuning": float, "n_max1": int, "n_max2": int, "tail_delta": float,
         "min_ratio": float},
        required=frozenset({"beta1", "beta2", "omega1"}),
    ),
    "delta-sweep": ExperimentKind(
        run_delta_sweep, "full vs effective model over detunings",
        "delta,ratio,population_deviation,leak_max",
        {"beta1": float, "beta2": float, "omega1": float, "g1": float, "g2": float,
         "ratios": _float_list, "n_max1": int, "n_max2": int, "block": _int_list},
    ),
    "design": ExperimentKind(
        run_design, "fit cavity intensity profiles", "iteration,cost",
        {"iterations": int, "proposal_scale": float, "temperature": float, "seed": int,
         "n_fit": int, "q": float, "amplitude": float, "design_in": str, "design_out": str},
        series_lines=_trace_lines,
    ),
    "verify-slto": ExperimentKind(
        run_verify_slto, "verify an external unitary", None,
        {"unitary": str, "bath1": str, "bath2": str, "system": str, "weighted_system": str,
         "beta1": float, "beta2": float},
        required=frozenset({"unitary", "bath1", "bath2", "system", "beta1", "beta2"}),
    ),
}

#: help lines of the flags that need more than their name
PARAM_HELP = {
    "export_matrices": "directory for U(tau) and Hamiltonian matrix files",
    "ratios": "comma-separated detuning ratios",
    "block": "probe sector n,m",
}


def _validate_keys(mapping: dict, allowed: Iterable[str], source: str):
    unknown = set(mapping).difference(allowed)
    if unknown:
        raise ConfigError(f"{source}: unknown keys {sorted(unknown)}")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


#: per flag type of ``ExperimentKind.params``: what a value must be, and its name
VALUE_KINDS = {
    float: (_is_number, "a number"),
    int: (_is_integer, "an integer"),
    str: (lambda v: isinstance(v, str), "a path string"),
    _float_list: (lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
                  "a list of numbers"),
    _int_list: (lambda v: isinstance(v, (list, tuple)) and all(map(_is_integer, v)),
                "a list of integers"),
}

#: keys whose null the runners give a meaning: a cutoff derived from the Gibbs
#: tail, an optional path left out, and sweep ratios refused by the sweep itself
NULLABLE = frozenset({"n_max1", "n_max2", "export_matrices", "weighted_system",
                      "design_in", "design_out", "ratios"})


def _validate_values(params: dict, spec: ExperimentKind, kind: str):
    """Refuse a value that is not of its key's declared type, before anything runs."""
    for key, value in params.items():
        accepts, what = VALUE_KINDS[spec.params[key]]
        if not (accepts(value) or (value is None and key in NULLABLE)):
            raise ConfigError(f"{kind}: {key} must be {what}, got {value!r}")


def run_experiment(
    kind: str,
    params: dict,
    out_dir,
    write_series: bool = False,
) -> RunArtifact:
    """Execute one experiment and write its report (and optional series)."""
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    spec = KINDS[kind]
    _validate_keys(params, spec.params, kind)
    _validate_values(params, spec, kind)
    missing = spec.required.difference(params)
    if missing:
        raise ConfigError(f"{kind}: missing required keys {sorted(missing)}")
    out_dir = Path(out_dir)
    started = time.perf_counter()
    results, checks, series = spec.runner(params, out_dir)
    wall = time.perf_counter() - started
    out_dir.mkdir(parents=True, exist_ok=True)
    all_passed = all(c["passed"] for c in checks.values())
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": "sltosim",
        "tool_version": __version__,
        "kind": kind,
        "config": params,
        "results": results,
        "checks": checks,
        "all_checks_passed": all_passed,
        "wall_clock_seconds": wall,
    }
    report_path = out_dir / "report.json"
    with _open_new(report_path) as fh:
        # np.float64 subclasses float; other numpy scalars and arrays go through tolist()
        fh.write(json.dumps(report, indent=2, sort_keys=True, default=lambda o: o.tolist())
                 + "\n")
    series_path = None
    if write_series and series is not None:
        series_path = out_dir / "series.csv"
        lines = spec.series_lines(series, spec.series_header.count(",") + 1)
        with _open_new(series_path) as fh:
            fh.write(spec.series_header + "\n")
            fh.writelines(lines)
    return RunArtifact(
        report_path=str(report_path),
        series_path=str(series_path) if series_path else None,
        tool_version=__version__,
        all_checks_passed=all_passed,
    )


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file with experiment parameters")
    p.add_argument("--out", default="out", help="output directory (default: out)")
    p.add_argument("--json-report", action="store_true", help="echo the report to stdout")
    p.add_argument("--series", action="store_true", help="also write series.csv")
    p.add_argument("--no-color", action="store_true", help="disable colored check output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sltosim",
        description="One-step quantum heat-engine cycles: simulate and verify.",
    )
    parser.add_argument("--version", action="version", version=f"sltosim {__version__}")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, spec in KINDS.items():
        p = sub.add_parser(kind, help=spec.help)
        for key, parse in spec.params.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=parse,
                           help=PARAM_HELP.get(key))
        _add_common(p)
    return parser


def _merge_params(args: argparse.Namespace) -> dict:
    allowed = KINDS[args.kind].params
    params = {}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {args.config}: {err}") from err
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        kind = loaded.pop("kind", None)
        if kind is not None and kind != args.kind:
            raise ConfigError(f"config kind {kind!r} does not match subcommand {args.kind!r}")
        _validate_keys(loaded, allowed, args.config)
        params.update(loaded)
    for key in allowed:
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    return params


def _use_color(no_color_flag: bool) -> bool:
    return not no_color_flag and not os.environ.get("NO_COLOR") and sys.stdout.isatty()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = _merge_params(args)
        artifact = run_experiment(args.kind, params, args.out, write_series=args.series)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InvariantError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 4
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3

    report = json.loads(Path(artifact.report_path).read_text())
    color = _use_color(args.no_color)
    for name, check in sorted(report["checks"].items()):
        tag = "PASS" if check["passed"] else "FAIL"
        if color:
            tag = f"\033[32m{tag}\033[0m" if check["passed"] else f"\033[31m{tag}\033[0m"
        print(f"[{tag}] {name}: value={check['value']!r} threshold={check['threshold']!r}")
    print(f"report: {artifact.report_path}")
    if artifact.series_path:
        print(f"series: {artifact.series_path}")
    if args.json_report:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if artifact.all_checks_passed else 1


if __name__ == "__main__":
    sys.exit(main())
