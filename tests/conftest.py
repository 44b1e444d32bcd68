"""Shared independent oracles for the test suite.

These must stay decoupled from the implementation paths they check:
the exponential oracle is a scaled-and-squared power series, never a
spectral decomposition, the Kronecker oracle is an index quadruple loop,
and the SLTO oracle embeds every operator densely where the verifier
works factor by factor.
"""

import math

import numpy as np


def taylor_evolution(h: np.ndarray, t: float, tol: float = 1e-13) -> np.ndarray:
    """exp(-i t h) by power series with max-entry truncation, scaled and squared.

    The series runs on -i t h / 2^s with s chosen so that its 1-norm is at
    most 1, then the sum is squared s times.  On a long step the unscaled
    series loses unitarity to cancellation between its large terms
    (about 1.7e-10 at ||t h|| = 16.5).
    """
    m = -1j * t * np.asarray(h, dtype=np.complex128)
    norm = float(np.abs(m).sum(axis=0).max())
    squarings = max(0, math.ceil(math.log2(norm))) if norm > 0 else 0
    m = m / 2**squarings
    term = np.eye(m.shape[0], dtype=np.complex128)
    acc = term.copy()
    for k in range(1, 300):
        term = term @ m / k
        acc += term
        if np.max(np.abs(term)) < tol:
            break
    else:
        raise RuntimeError("series did not converge")
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def loop_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product by explicit index loops (left factor slow)."""
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=np.complex128)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for el in range(db):
                    out[i * db + k, j * db + el] = a[i, j] * b[k, el]
    return out


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def dense_slto_residuals(u, h1, h2, hs, beta1, beta2, w_system=None) -> dict:
    """The five verify-slto residuals with every operator embedded densely.

    The factor Hamiltonians are Kronecker-embedded into the full space,
    the off-block mass is the largest Frobenius norm of a block of U
    between two eigenspaces of the embedded total energy, and the
    semi-Gibbs state is the Kronecker product of the factor Gibbs states:
    d x d matrices and O(d^3) work throughout.
    """

    def gibbs(h, beta):
        e, v = np.linalg.eigh(h)
        w = np.exp(-beta * (e - e.min()))
        return (v * (w / w.sum())) @ v.conj().T

    def comm_max(a, b):
        return float(np.max(np.abs(a @ b - b @ a)))

    d1, d2, ds = len(h1), len(h2), len(hs)
    big1 = np.kron(np.kron(h1, np.eye(d2)), np.eye(ds))
    big2 = np.kron(np.kron(np.eye(d1), h2), np.eye(ds))
    bigs = np.kron(np.eye(d1 * d2), hs)
    h_total = big1 + big2 + bigs
    h_weighted = beta1 * big1 + beta2 * big2
    sigma_s = np.eye(ds) / ds
    if w_system is not None:
        h_weighted = h_weighted + np.kron(np.eye(d1 * d2), w_system)
        sigma_s = gibbs(w_system, 1.0)
    eigvals, eigvecs = np.linalg.eigh(h_total)
    m = eigvecs.conj().T @ u @ eigvecs
    # eigh sorts the eigenvalues; an eigenspace ends where the next one is > 1e-8 up
    ends = [k + 1 for k in range(len(eigvals) - 1) if eigvals[k + 1] - eigvals[k] > 1e-8]
    spaces = [range(lo, hi) for lo, hi in zip([0, *ends], [*ends, len(eigvals)])]
    off_block = max((float(np.linalg.norm(m[np.ix_(a, b)]))
                     for a in spaces for b in spaces if a != b), default=0.0)
    gamma = np.kron(np.kron(gibbs(h1, beta1), gibbs(h2, beta2)), sigma_s)
    return {
        "residual_energy": comm_max(u, h_total),
        "residual_weighted": comm_max(u, h_weighted),
        "off_block_max": off_block,
        "fixed_point_residual": float(np.max(np.abs(u @ gamma @ u.conj().T - gamma))),
        "unitarity_residual": float(np.max(np.abs(u.conj().T @ u - np.eye(len(u))))),
    }
