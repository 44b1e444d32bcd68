"""The semi-local thermal operation (SLTO) verifier.

``verify_slto`` checks an arbitrary unitary U on bath1 x bath2 x system
against the defining properties of a semi-local thermal operation: it
commutes with the total energy and with the weighted energy
beta1 H_B1 + beta2 H_B2 (+ an optional weighted system term W_S), it is
block-diagonal between total-energy eigenspaces, it leaves the semi-Gibbs
product state invariant, and it is unitary.  Every energy operator is a
Kronecker sum of the factors, applied factor by factor and never embedded
as a d x d matrix.  ``cli``'s ``verify-slto`` reads its inputs with
``bytescan.read_matrix_file`` and reports the five residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bytescan import ConfigError
from .linalg import Operator, ShapeError, max_abs
from .thermal import gibbs_density, gibbs_weights

#: the largest residual, of each of the five, that a passing unitary shows
PASS_THRESHOLD = 1e-9


@dataclass(frozen=True)
class SltoCheckReport:
    residual_energy: float
    residual_weighted: float
    off_block_max: float
    fixed_point_residual: float
    unitarity_residual: float
    threshold: float = PASS_THRESHOLD

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


def _row_sum_norm(a: np.ndarray) -> float:
    """The largest absolute row sum of ``a``: a bound on its eigenvalues and on
    each entry of ``a`` times a matrix whose entries are at most 1 in size."""
    return float(np.abs(a).sum(axis=1).max())


def _check_scales(u: np.ndarray, beta1: float, beta2: float, factors: list[np.ndarray],
                  names: tuple[str, str, str]):
    """Refuse, naming each by ``names`` before any product is formed, a beta1 or
    beta2 that is not finite or at which the weighted energy may overflow, then
    a U at which a product of its entries may.

    With r a factor's ``_row_sum_norm`` (``factors`` are H_B1, H_B2, H_S and, if
    given, W_S) and u the largest |Re| + |Im| of an entry of U, every product
    with a beta (a Gibbs exponent, a weighted commutator with entries at most 1)
    is at most w = 2 (|beta1| r1 + |beta2| r2 + r_W), and every product with U's
    entries at most d^2 u^2 (U^dag U, U gamma U^dag, the off-block mass) or
    u max(w, 2 (r1 + r2 + r_S)) (the commutators; the second term counts only
    when finite).  An infinite w names the temperature whose own term
    overflows, else both.
    """
    betas = (beta1, beta2)
    for name, beta in zip(names, betas):
        if not math.isfinite(beta):
            raise ConfigError(f"{name} must be finite, got {beta}")
    scales = [_row_sum_norm(a) for a in factors]
    terms = [abs(beta) * r for beta, r in zip(betas, scales)]
    weighted = 2 * (sum(terms) + sum(scales[3:]))
    if not math.isfinite(weighted):
        at_fault = [k for k in (0, 1) if not math.isfinite(2 * terms[k])] or [0, 1]
        raise ConfigError(
            f"{' and '.join(f'{names[k]} {betas[k]!r}' for k in at_fault)}: the weighted "
            f"energy beta1 H_B1 + beta2 H_B2 may overflow, with bath energy scales "
            f"{scales[0]!r} and {scales[1]!r}")
    d, size = u.shape[0], max_abs(u.real) + max_abs(u.imag)
    energy = 2 * sum(scales[:3])  # infinite on its own, it is the factors' fault, not U's
    scale = max(weighted, energy) if math.isfinite(energy) else weighted
    if not (math.isfinite(d * d * size * size) and math.isfinite(size * scale)):
        raise ConfigError(f"{names[2]}: products of its entries may overflow, with largest "
                          f"entry size {size!r} at dimension {d} and energy scale {scale!r}")


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
    names: tuple[str, str, str] = ("beta1", "beta2", "U"),
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

    A beta that is not finite, or at which the weighted energy may
    overflow, is refused first, then a U at which a product of its entries
    may overflow, named as ``names`` gives beta1, beta2 and U.
    """
    _check_scales(u.entries, beta1, beta2,
                  [a.entries for a in (h_bath1, h_bath2, h_system, w_system) if a is not None],
                  names)
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
