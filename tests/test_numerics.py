from itertools import product

import numpy as np
import pytest

from marcsim import (
    ScenarioConfig,
    compute_aggregates,
    dominant_eigenpair,
    dominant_eigenvalue,
    is_hermitian,
    quadratic_form,
    sample_channel,
    trial_rng,
    whitener,
)
from marcsim.errors import ValidationError

from conftest import scaled_block


# ---------------------------------------------------------------------------
# Independent oracle: real Jacobi sweep on the 2n x 2n real-symmetric
# embedding of a Hermitian matrix (eigenvalues appear with doubled
# multiplicity). Deliberately a different algorithm from the package's
# LAPACK eigh.
# ---------------------------------------------------------------------------

def jacobi_oracle_eigvals(A, sweeps=200):
    A = np.asarray(A, dtype=complex)
    S = np.block([[A.real, -A.imag], [A.imag, A.real]])
    n = S.shape[0]
    scale = max(1.0, np.max(np.abs(S)))
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(S[p, q]))
        if off <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(S[p, q]) <= 1e-18 * scale:
                    continue
                phi = 0.5 * np.arctan2(2.0 * S[p, q], S[q, q] - S[p, p])
                c, s = np.cos(phi), np.sin(phi)
                rp = c * S[:, p] - s * S[:, q]
                rq = s * S[:, p] + c * S[:, q]
                S[:, p], S[:, q] = rp, rq
                rp = c * S[p, :] - s * S[q, :]
                rq = s * S[p, :] + c * S[q, :]
                S[p, :], S[q, :] = rp, rq
    return np.sort(np.diag(S).real)


def random_psd(rng, n):
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return B @ B.conj().T


def test_oracle_agrees_on_diagonal():
    vals = jacobi_oracle_eigvals(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [1, 1, 2, 2, 3, 3])


def test_identity_eigenpair():
    lam, v = dominant_eigenpair(np.eye(2))
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_diagonal_eigenpair():
    lam, v = dominant_eigenpair(np.diag([1.0, 3.0]))
    assert lam == pytest.approx(3.0, abs=1e-12)
    assert abs(v[1]) == pytest.approx(1.0, abs=1e-9)
    assert abs(v[0]) == pytest.approx(0.0, abs=1e-9)


def test_random_psd_matches_jacobi_oracle(rng):
    for _ in range(40):
        A = random_psd(rng, 4)
        lam, v = dominant_eigenpair(A)
        lam_ref = jacobi_oracle_eigvals(A)[-1]
        assert abs(lam - lam_ref) <= 1e-9 * max(1.0, lam_ref), (
            f"eigh {lam} vs oracle {lam_ref}"
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_eigenpair_residual_and_rayleigh_bounds(rng, n):
    for _ in range(20):
        A = random_psd(rng, n)
        lam, v = dominant_eigenpair(A)
        res = np.linalg.norm(A @ v - lam * v)
        assert res <= 1e-12 * max(1.0, np.linalg.norm(A))
        assert lam <= np.trace(A).real + 1e-9 * max(1.0, lam)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert lam >= quadratic_form(x, A) / np.linalg.norm(x) ** 2 - 1e-9 * max(1.0, lam)


def test_dominant_vector_orthogonal_to_all_ones():
    # the dominant eigenvector is orthogonal to the all-ones vector here
    u = np.array([1.0, -1.0]) / np.sqrt(2)
    A = np.eye(2) + np.outer(u, u)
    lam, v = dominant_eigenpair(A)
    assert lam == pytest.approx(2.0, abs=1e-10)
    assert abs(u @ v) == pytest.approx(1.0, abs=1e-9)


def test_zero_matrix():
    lam, v = dominant_eigenpair(np.zeros((3, 3)))
    assert lam == 0.0
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_near_degenerate_top_eigenvalue(rng):
    # any unit vector of the dominant eigenspace is acceptable
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    A = Q @ np.diag([5.0, 5.0, 1.0, 0.5]) @ Q.conj().T
    A = 0.5 * (A + A.conj().T)
    lam, v = dominant_eigenpair(A)
    assert lam == pytest.approx(5.0, rel=1e-9)
    assert np.linalg.norm(A @ v - lam * v) <= 1e-10 * max(1.0, np.linalg.norm(A))


def test_non_hermitian_rejected():
    with pytest.raises(ValidationError):
        dominant_eigenpair(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_scalar_matrix():
    lam, v = dominant_eigenpair(np.array([[2.5]]))
    assert lam == 2.5
    assert abs(v[0]) == pytest.approx(1.0, abs=1e-15)


def test_negative_definite_rejected():
    with pytest.raises(ValidationError):
        dominant_eigenpair(-np.eye(3))


def test_many_users_two_antennas_matches_jacobi_oracle():
    # R + W of a K >> M_r realization: large entries from 1225 user pairs
    scen = ScenarioConfig(K=50, M_r=2, seed=50)
    for t in range(5):
        agg = compute_aggregates(sample_channel(scen, trial_rng(50, t)))
        A = agg.R + agg.W
        lam, v = dominant_eigenpair(A)
        lam_ref = jacobi_oracle_eigvals(A)[-1]
        assert abs(lam - lam_ref) <= 1e-12 * lam_ref
        assert np.linalg.norm(A @ v - lam * v) <= 1e-12 * np.linalg.norm(A)


def test_dominant_eigenvalue_matches_the_eigenpair(rng):
    # the value-only lambda_max is the eigenpair's to a few ulps of ||A||:
    # single matrices, rank-deficient and zero ones, a random stack and the
    # R + W stack of a K=50, M_r=8 block
    blk = scaled_block([ScenarioConfig(K=50, M_r=8, seed=5)] * 40, list(range(40)))
    agg = compute_aggregates(blk)
    cases = [random_psd(rng, n) for n in (1, 2, 4, 8) for _ in range(5)]
    cases += [np.zeros((3, 3)), np.outer([1.0, 2j, 0.5], [1.0, -2j, 0.5]),
              np.stack([random_psd(rng, 4) for _ in range(30)]), agg.R + agg.W]
    for A in cases:
        lam = dominant_eigenvalue(A)
        ref, _ = dominant_eigenpair(A)
        assert lam.shape == ref.shape and lam.dtype == ref.dtype
        tol = 8 * np.finfo(float).eps * np.maximum(1.0, np.linalg.norm(A, axis=(-2, -1)))
        assert np.all(np.abs(lam - ref) <= tol)
        assert np.all(lam >= 0.0)


@pytest.mark.parametrize("A", [
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
    np.array([[np.inf]]),
    np.array([[1.0, 2.0], [0.0, 1.0]]),
    -np.eye(3),
    np.stack([np.eye(2), np.diag([-1e-3, -2.0])]),
    np.ones((2, 3)),
])
def test_dominant_eigenvalue_raises_as_the_eigenpair(A):
    messages = []
    for top in (dominant_eigenpair, dominant_eigenvalue):
        with pytest.raises(ValidationError) as err:
            top(A)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_whitener_whitens_and_falls_back_one_matrix_at_a_time(rng, monkeypatch):
    # Cholesky fails on the whole stack when one matrix is singular or
    # indefinite, or too near singular for its rounding, as (tr R + e) I - R
    # is for a rank-one R and e of an ulp of tr R; then each matrix takes its
    # own way, so that its whitener is the one it gets alone: L^-1 of
    # B = L L^H where Cholesky succeeds, else diag(beta^(-1/2)) U^H of its
    # eigh, or 0 where some beta <= 0
    near = []
    for _ in range(40):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        R = np.outer(u, u.conj())
        tr_R = np.sum(np.abs(u) ** 2)
        near.append((tr_R + np.spacing(tr_R)) * np.eye(3) - 0.5 * (R + R.conj().T))
    stack = np.stack([random_psd(rng, 3) + np.eye(3), np.diag([1.0, 0.0, 2.0]),
                      np.diag([1.0, -1.0, 1.0]), random_psd(rng, 3) + 1e-3 * np.eye(3), *near])
    eighs = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda B: eighs.append(len(B)) or real_eigh(B))
    V, pd = whitener(stack)
    assert pd[:4].tolist() == [True, False, False, True]
    assert len(eighs) >= 2
    for i, B in enumerate(stack):
        alone, pd_alone = whitener(B[None])
        assert np.array_equal(V[i], alone[0]) and pd_alone[0] == pd[i], i
        assert np.isfinite(V[i]).all() and V[i].any() == pd[i], i
    for i in (0, 3):
        assert np.allclose(V[i] @ stack[i] @ V[i].conj().T, np.eye(3), atol=1e-9), i
    for bad in (np.array([[[1.0, 2.0], [0.0, 1.0]]]), np.array([[[np.nan]]])):
        with pytest.raises(ValidationError):
            whitener(bad)


def test_is_hermitian_is_the_per_matrix_maximum_test(rng):
    # each entry of |A - A^H| against its own matrix's bound gives the same
    # answer as their maximum against it: at, just over and just under the
    # bound, with large and small entries, and with NaN or inf anywhere
    def reference(A):
        scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
        diff = np.abs(A - np.swapaxes(A, -1, -2).conj()).max(axis=(-2, -1))
        return bool(np.all(diff <= 1e-12 * scale))

    for n, size in ((1, 1), (2, 30), (4, 7), (8, 3)):
        for magnitude in (1e-3, 1.0, 1e6):
            A = np.stack([random_psd(rng, n) for _ in range(size)]) * magnitude
            bound = 1e-12 * max(1.0, np.abs(A[-1]).max())
            for bad, factor in product((None, np.nan, np.inf), (0.5, 1.0, 2.0)):
                B = A.copy()
                B[-1, 0, n - 1] += factor * bound if bad is None else bad
                with np.errstate(invalid="ignore"):  # inf - inf
                    assert is_hermitian(B) == reference(B), (n, magnitude, bad, factor)
                    assert is_hermitian(B[-1]) == reference(B[-1]), (n, magnitude, bad, factor)


def test_quadratic_form_trivial_cases():
    assert quadratic_form(np.array([1.0, 0.0]), np.eye(2)) == pytest.approx(1.0)
    assert quadratic_form(np.array([1.0, 1j]), np.eye(2)) == pytest.approx(2.0)


def test_quadratic_form_matches_naive_double_loop(rng):
    for _ in range(25):
        n = rng.integers(1, 6)
        A = random_psd(rng, n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        naive = 0.0 + 0.0j
        for i in range(n):
            for j in range(n):
                naive += np.conj(x[i]) * A[i, j] * x[j]
        assert quadratic_form(x, A) == pytest.approx(naive.real, abs=1e-12 * max(1, abs(naive)))


def test_quadratic_form_dimension_mismatch():
    with pytest.raises(ValidationError):
        quadratic_form(np.ones(3), np.eye(2))
