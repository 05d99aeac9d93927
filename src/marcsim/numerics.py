"""Minimal dense complex linear algebra used by the rate formulas.

Only what the sum-rate expressions need: Hermitian validation, quadratic
forms, and the dominant eigenpair (LAPACK ``eigh``) or eigenvalue (``eigvalsh``)
of a Hermitian positive-semidefinite matrix, or of each matrix of a stack.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = ["is_hermitian", "quadratic_form", "dominant_eigenpair", "dominant_eigenvalue"]

HERMITIAN_RTOL = 1e-12
_PSD_RTOL = 1e-12  # relative slack below 0 still accepted as PSD


def is_hermitian(A: np.ndarray) -> bool:
    """True if A, or each matrix of a stack A (..., n, n), equals its conjugate
    transpose within HERMITIAN_RTOL times max(1, its largest entry magnitude)."""
    A = np.asarray(A)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        return False
    scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
    diff = np.abs(A - np.swapaxes(A, -1, -2).conj()).max(axis=(-2, -1))
    return bool(np.all(diff <= HERMITIAN_RTOL * scale))


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
