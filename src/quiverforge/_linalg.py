"""Small dense-linear-algebra helpers shared across modules.

Everything here works on plain complex numpy arrays.  Subspaces are always
represented by matrices with orthonormal columns (Euclidean inner product);
rank decisions use an absolute/relative singular-value cutoff of 1e-10.
"""
from __future__ import annotations

import numpy as np

from .errors import IllConditionedSpectrum, NonFiniteData, SingularMetric

RANK_TOL = 1e-10


def herm(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def eigh_checked(a: np.ndarray):
    """Hermitian eigendecomposition of the Hermitian part of ``a``; raises
    :class:`IllConditionedSpectrum` when an eigenvalue is not finite (a NaN
    or infinite entry).  LAPACK's eigh is backward stable, so on finite
    input a reconstruction check would only repeat its guarantee."""
    w, v = np.linalg.eigh(herm(np.asarray(a, dtype=complex)))
    if not np.isfinite(w).all():
        raise IllConditionedSpectrum("eigendecomposition has a non-finite eigenvalue")
    return w, v


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, as ``np.kron`` without its
    general-rank bookkeeping (this sits on the flow's hot path)."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    )


def funm_herm(a: np.ndarray, f) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its eigenvalues."""
    w, v = eigh_checked(a)
    return (v * f(w)) @ v.conj().T


def expm_herm(a: np.ndarray) -> np.ndarray:
    return funm_herm(a, np.exp)


def check_hpd(a: np.ndarray, cond_limit: float = 1e12, w: np.ndarray | None = None) -> None:
    """Raise SingularMetric unless ``a`` is Hermitian positive definite with
    condition number below ``cond_limit``; ``w`` are the eigenvalues of its
    Hermitian part when already computed.  A NaN or infinite entry raises
    :class:`NonFiniteData` first: every comparison with NaN is False, so the
    tests below would let it through."""
    if a.size == 0:
        return
    if not np.isfinite(a).all():
        raise NonFiniteData("metric has a non-finite entry")
    if np.abs(a - a.conj().T).max() > 1e-10 * (1.0 + np.abs(a).max()):
        raise SingularMetric("metric is not Hermitian")
    w = np.linalg.eigvalsh(herm(a)) if w is None else w
    if w.min() <= 0:
        raise SingularMetric("metric is not positive definite")
    if w.max() / w.min() > cond_limit:
        raise SingularMetric(f"metric condition number exceeds {cond_limit:g}")


def _rank(s: np.ndarray, tol: float) -> int:
    """Numerical rank from descending singular values: those above the cut
    ``tol`` * max(1, s_0)."""
    return int(np.count_nonzero(s > tol * max(1.0, s[0])))


def unit_phases(basis: np.ndarray) -> np.ndarray:
    """``basis`` with each column multiplied by the phase that makes its
    largest-magnitude entry real positive (the first such entry on a tie).
    An SVD or eigensolver fixes a column only up to a phase; after this an
    exact vector such as -e_1 comes out as e_1.  + 0.0 turns the -0.0 parts
    the multiplication leaves into 0.0, so a report prints e_1 one way.
    The columns must be nonzero; a basis with no entries is returned as it
    is."""
    if basis.size == 0:
        return basis
    lead = basis[np.abs(basis).argmax(axis=0), np.arange(basis.shape[1])]
    return basis * (lead.conj() / np.abs(lead)) + 0.0


def orthonormal_columns(a: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the column space of ``a`` (may be empty)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        a = a[:, None]
    n = a.shape[0]
    if a.size == 0:
        return np.zeros((n, 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, :_rank(s, tol)]


def projector(basis: np.ndarray) -> np.ndarray:
    return basis @ basis.conj().T


def complement_basis(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the Euclidean orthogonal complement."""
    n = basis.shape[0]
    p = np.eye(n, dtype=complex) - projector(basis)
    return orthonormal_columns(p)


def null_space(a: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the kernel of ``a``, with the cut of
    :func:`orthonormal_columns` and the phase rule of :func:`unit_phases`."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[1]
    if a.size == 0:
        return np.eye(n, dtype=complex)
    _, s, vh = np.linalg.svd(a)
    return unit_phases(vh[_rank(s, tol):].conj().T)


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * herm(a)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))
