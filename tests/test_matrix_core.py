import numpy as np
import pytest

from sketchpower import matrix_core
from sketchpower.matrix_core import (
    DenseMatrix,
    Precision,
    all_finite,
    lstsq,
    qr_economy,
    svd_truncated,
)


def test_qr_identity():
    res = qr_economy(np.eye(3))
    assert np.allclose(np.abs(res.q), np.eye(3), atol=1e-14)
    assert np.allclose(res.q @ res.r, np.eye(3), atol=1e-14)


def test_qr_single_column():
    res = qr_economy(np.array([[3.0], [4.0]]))
    assert np.allclose(np.abs(res.q.ravel()), [0.6, 0.8], atol=1e-14)
    assert abs(abs(res.r[0, 0]) - 5.0) < 1e-14


def test_qr_residual_and_orthogonality():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((20, 5))
    res = qr_economy(m)
    assert np.linalg.norm(res.q.T @ res.q - np.eye(5)) <= 1e-13
    assert np.linalg.norm(res.q @ res.r - m) <= 1e-12 * np.linalg.norm(m)
    assert np.allclose(res.r, np.triu(res.r))
    assert not res.rank_deficient


def test_qr_rank_deficiency_flag_not_failure():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((12, 2))
    m = u @ rng.standard_normal((2, 4))  # rank 2, 4 columns
    res = qr_economy(m)
    assert res.rank_deficient


def test_qr_column_space_matches_oracle():
    # Largest principal angle measured through its sine (the projection
    # residual), which resolves angles far below the arccos floor.
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = rng.standard_normal((30, 6))
        res = qr_economy(m)
        oracle = np.linalg.qr(m)[0]
        sin_max = np.linalg.norm(res.q - oracle @ (oracle.T @ res.q), 2)
        assert sin_max <= 1e-10


def test_qr_overwrites_only_an_owned_input():
    """Without ``overwrite`` M is left as it was; with it, a Fortran-ordered M
    is factored in place into Q, with the factors and flag of the copy, and
    the rank scale is the one of M before it was overwritten."""
    m = np.asfortranarray(np.random.default_rng(4).standard_normal((300, 7)))
    kept = m.copy(order="F")
    res = qr_economy(m)
    assert m.tobytes(order="A") == kept.tobytes(order="A") and not np.shares_memory(res.q, m)
    owned = qr_economy(m, overwrite=True)
    assert np.shares_memory(owned.q, m)
    assert owned.q.tobytes() == res.q.tobytes() and owned.r.tobytes() == res.r.tobytes()
    assert not owned.rank_deficient
    deficient = np.asfortranarray(kept[:, :2] @ np.ones((2, 7)))
    assert qr_economy(deficient, overwrite=True).rank_deficient


def test_qr_preconditions():
    with pytest.raises(ValueError):
        qr_economy(np.ones((3, 5)))
    with pytest.raises(TypeError):
        qr_economy(np.ones((5, 3), dtype=np.float32))


def test_svd_diagonal():
    res = svd_truncated(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(res.s, [3.0, 2.0], atol=1e-14)


def test_svd_exact_rank_one():
    rng = np.random.default_rng(3)
    m = np.outer(rng.standard_normal(15), rng.standard_normal(9))
    res = svd_truncated(m, 1)
    assert np.linalg.norm(m - res.reconstruct()) <= 1e-12 * np.linalg.norm(m)


def test_svd_matches_full_spectrum_oracle():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((30, 20))
    res = svd_truncated(m, 5)
    sv = np.linalg.svd(m, compute_uv=False)
    tail = np.sqrt(np.sum(sv[5:] ** 2))
    err = np.linalg.norm(m - res.reconstruct())
    assert abs(err - tail) <= 1e-10 * tail


def test_svd_is_best_rank_r():
    # No random rank-r candidate beats the truncated SVD in Frobenius norm.
    rng = np.random.default_rng(5)
    m = rng.standard_normal((18, 12))
    res = svd_truncated(m, 3)
    best = np.linalg.norm(m - res.reconstruct())
    for _ in range(25):
        cand = rng.standard_normal((18, 3)) @ rng.standard_normal((3, 12))
        assert np.linalg.norm(m - cand) >= best - 1e-12


def test_svd_rejects_bad_rank():
    m = np.eye(4)
    with pytest.raises(ValueError):
        svd_truncated(m, 0)
    with pytest.raises(ValueError):
        svd_truncated(m, 5)


def test_svd_orthonormality_invariant():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((25, 10))
    res = svd_truncated(m, 4)
    assert np.linalg.norm(res.u.T @ res.u - np.eye(4)) <= 1e-12 * 2
    assert np.linalg.norm(res.v.T @ res.v - np.eye(4)) <= 1e-12 * 2
    assert np.all(np.diff(res.s) <= 1e-15)
    assert np.all(res.s >= 0)


def test_lstsq_identity():
    rhs = np.arange(12.0).reshape(4, 3)
    res = lstsq(np.eye(4), rhs)
    assert np.allclose(res.x, rhs, atol=1e-14)


def test_lstsq_orthonormal_columns():
    rng = np.random.default_rng(7)
    c = np.linalg.qr(rng.standard_normal((20, 6)))[0]
    rhs = rng.standard_normal((20, 3))
    res = lstsq(c, rhs)
    want = c.T @ rhs
    assert np.linalg.norm(res.x - want) <= 1e-12 * np.linalg.norm(want)


def test_lstsq_normal_equation_residual():
    rng = np.random.default_rng(8)
    c = rng.standard_normal((40, 10))
    rhs = rng.standard_normal((40, 4))
    res = lstsq(c, rhs)
    resid = c.T @ (c @ res.x - rhs)
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(c, 2) * np.linalg.norm(rhs)


def test_lstsq_consistent_system_idempotent():
    rng = np.random.default_rng(9)
    c = rng.standard_normal((30, 8))
    x0 = rng.standard_normal((8, 5))
    res = lstsq(c, c @ x0)
    assert np.linalg.norm(res.x - x0) <= 1e-10 * np.linalg.norm(x0)
    assert not res.ill_conditioned


def test_lstsq_deficient_minimum_norm():
    rng = np.random.default_rng(10)
    base = rng.standard_normal((25, 3))
    c = np.hstack([base, base[:, :1]])  # rank 3, 4 columns
    rhs = rng.standard_normal((25, 2))
    res = lstsq(c, rhs)
    assert res.ill_conditioned
    assert np.isfinite(res.x).all()


def test_dense_matrix_contract():
    dm = DenseMatrix.from_array([[1.0, 2.0], [3.0, 4.0]])
    assert (dm.rows, dm.cols) == (2, 2)
    assert dm.precision is Precision.BINARY64
    assert dm.words == 4.0
    assert dm.to_precision(Precision.BINARY32).words == 2.0
    with pytest.raises(ValueError):
        DenseMatrix.from_array([[np.nan, 1.0]])
    with pytest.raises(ValueError):
        DenseMatrix.from_array(np.zeros((0, 3)))


def test_dense_matrix_cast_round_trip_bit_exact():
    rng = np.random.default_rng(11)
    dm = DenseMatrix.from_array(rng.standard_normal((7, 5)).astype(np.float32))
    back = dm.to_precision(Precision.BINARY64).to_precision(Precision.BINARY32)
    assert np.array_equal(back.data, dm.data)


@pytest.mark.parametrize("rows", [10, 1000], ids=["small", "large"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_all_finite_is_exact_and_makes_no_large_temporary(dtype, rows):
    import tracemalloc

    x = np.ones((rows, 300), dtype=dtype)
    assert all_finite(x) and all_finite(x[:0])
    for value in (np.nan, np.inf, -np.inf):
        y = x.copy()
        y[-1, -1] = value
        assert not all_finite(y)
    tracemalloc.start()
    try:
        all_finite(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # np.isfinite(x).all() takes x.size bytes: 300,000 for the large case.
    assert peak < (4096 if x.size > matrix_core._CHUNK else x.size + 4096)
