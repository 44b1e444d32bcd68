"""Shared independent oracles for the test suite.

These must stay decoupled from the implementation paths they check:
the exponential oracle is a scaled-and-squared power series, never a
spectral decomposition, and the Kronecker oracle is an index quadruple loop.
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
