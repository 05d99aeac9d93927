"""Minimal dense complex linear algebra used by the rate formulas.

Only what the sum-rate expressions need: Hermitian validation, quadratic
forms, the dominant eigenpair (LAPACK ``eigh``) or eigenvalue (``eigvalsh``)
of a Hermitian positive-semidefinite matrix, and a whitener of a Hermitian
positive-definite one (LAPACK Cholesky), or of each matrix of a stack.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = [
    "is_hermitian", "quadratic_form", "dominant_eigenpair", "dominant_eigenvalue", "whitener",
]

HERMITIAN_RTOL = 1e-12
_PSD_RTOL = 1e-12  # relative slack below 0 still accepted as PSD


def is_hermitian(A: np.ndarray) -> bool:
    """True if A, or each matrix of a stack A (..., n, n), equals its conjugate
    transpose within HERMITIAN_RTOL times max(1, its largest entry magnitude)."""
    A = np.asarray(A)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        return False
    scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
    # every entry against its matrix's bound, in one reduction over the stack
    diff = np.conjugate(np.swapaxes(A, -1, -2))
    diff = np.abs(np.subtract(A, diff, out=diff))
    return bool(np.all(diff <= (HERMITIAN_RTOL * scale)[..., None, None]))


def _check_hermitian(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] < 1:
        raise ValidationError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValidationError("matrix has non-finite entries")
    if not is_hermitian(A):
        raise ValidationError("matrix is not Hermitian within tolerance")
    return A


def quadratic_form(x: np.ndarray, A: np.ndarray):
    """Evaluate x^H A x for Hermitian A and return it as a real number, or for
    each pair of a stack x (..., n), A (..., n, n) as an array.

    The imaginary part must be negligible (below 1e-10 relative to the
    result); anything larger indicates a non-Hermitian A or corrupted input.
    """
    x = np.asarray(x, dtype=complex)
    A = np.asarray(A, dtype=complex)
    if x.ndim < 1 or A.shape != x.shape + x.shape[-1:]:
        raise ValidationError(f"dimension mismatch: x has shape {x.shape}, A has shape {A.shape}")
    val = (x.conj()[..., None, :] @ A @ x[..., None])[..., 0, 0]
    imag = np.where(np.abs(val.imag) > 1e-10 * np.maximum(1.0, np.abs(val)), val.imag, 0.0)
    if imag.any():
        raise ValidationError(
            f"quadratic form has a structural imaginary part ({imag[imag != 0.0][0]:.3e})")
    return val.real


def _dominant(A: np.ndarray, vectors: bool):
    A = _check_hermitian(A)
    eigvals, eigvecs = np.linalg.eigh(A) if vectors else (np.linalg.eigvalsh(A), None)
    lam = eigvals[..., -1]
    if np.any(lam < 0.0) and np.any(
            lam < -_PSD_RTOL * np.maximum(1.0, np.linalg.norm(A, axis=(-2, -1)))):
        raise ValidationError(
            f"matrix is not positive semidefinite (lambda_max = {np.min(lam):.3e})")
    return np.maximum(lam, 0.0), eigvecs[..., -1] if vectors else None


def dominant_eigenpair(A: np.ndarray):
    """Largest eigenvalue and a unit eigenvector of a Hermitian PSD matrix, or
    of each matrix of a stack A (N, n, n) as arrays (N,) and (N, n), by LAPACK
    ``eigh``. ValidationError is raised when A is not finite and Hermitian or
    some lambda_max < -1e-12 * max(1, ||A||_F); a lambda_max within that slack
    is returned as 0."""
    return _dominant(A, vectors=True)


def dominant_eigenvalue(A: np.ndarray):
    """lambda_max of :func:`dominant_eigenpair`, with its checks, by ``eigvalsh``."""
    return _dominant(A, vectors=False)[0]


def whitener(B: np.ndarray):
    """(V, pd) for a stack B (N, n, n) of Hermitian matrices: pd[i] is True
    where B[i] is positive definite, and then V[i] B[i] V[i]^H = I, with
    V[i] = L^-1 of the Cholesky factor B[i] = L L^H; V[i] = 0 elsewhere.
    When Cholesky fails on a matrix, numerically singular or not positive
    definite, that matrix alone takes V = diag(beta^(-1/2)) U^H of its
    ``eigh`` B = U diag(beta) U^H, and pd is False if some beta <= 0, so each
    V[i] depends on B[i] alone. ValidationError unless B is finite and
    Hermitian."""
    B = _check_hermitian(B)
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        if len(B) > 1:
            V, pd = zip(*(whitener(b[None]) for b in B))
            return np.concatenate(V), np.concatenate(pd)
        beta, U = np.linalg.eigh(B)
        pd = (beta > 0.0).all(axis=-1)
        root = np.sqrt(np.where(pd[:, None], beta, np.inf))
        return np.swapaxes(U.conj(), -1, -2) / root[..., None], pd
    return np.linalg.inv(L), np.ones(len(B), dtype=bool)
