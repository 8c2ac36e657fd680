import functools
import os
import re
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchpower import matrix_core
from sketchpower.matrix_core import (
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
    assert np.linalg.norm(m - (res.u * res.s) @ res.v.T) <= 1e-12 * np.linalg.norm(m)


def test_svd_matches_full_spectrum_oracle():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((30, 20))
    res = svd_truncated(m, 5)
    sv = np.linalg.svd(m, compute_uv=False)
    tail = np.sqrt(np.sum(sv[5:] ** 2))
    err = np.linalg.norm(m - (res.u * res.s) @ res.v.T)
    assert abs(err - tail) <= 1e-10 * tail


def test_svd_is_best_rank_r():
    # No random rank-r candidate beats the truncated SVD in Frobenius norm.
    rng = np.random.default_rng(5)
    m = rng.standard_normal((18, 12))
    res = svd_truncated(m, 3)
    best = np.linalg.norm(m - (res.u * res.s) @ res.v.T)
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


def test_lstsq_refuses_a_wide_matrix():
    with pytest.raises(ValueError, match=re.escape("lstsq expects rows >= cols, got (2, 3)")):
        lstsq(np.ones((2, 3)), np.ones((2, 1)))


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


def _with_spectrum(rng, rows, cols, sv):
    """A rows x cols matrix with singular values sv (len(sv) <= min(rows, cols))."""
    u = np.linalg.qr(rng.standard_normal((rows, len(sv))))[0]
    v = np.linalg.qr(rng.standard_normal((cols, len(sv))))[0]
    return (u * sv) @ v.T


@pytest.mark.parametrize("cond", [1e1, 1e4, 1e8])
@pytest.mark.parametrize("d, s, n", [(62, 38, 400), (72, 24, 100), (9, 9, 3)])
def test_lstsq_agrees_with_the_pseudoinverse_solve(d, s, n, cond):
    """On full-rank systems the QR solve and gelsd agree within
    c * eps * cond(C) * (1 + cond(C) ||Rhs - C X|| / (||C|| ||X||)), with
    c = 10 d: both are backward stable, and this is the least-squares
    perturbation bound (the second term vanishes on consistent systems)."""
    rng = np.random.default_rng(int(cond) + d)
    c = _with_spectrum(rng, d, s, np.geomspace(1.0, 1.0 / cond, s))
    eps = np.finfo(np.float64).eps
    for rhs in (c @ rng.standard_normal((s, n)), rng.standard_normal((d, n))):
        got = lstsq(c, rhs)
        want = np.linalg.lstsq(c, rhs, rcond=None)[0]
        assert not got.ill_conditioned
        resid = np.linalg.norm(rhs - c @ want) / (np.linalg.norm(c, 2) * np.linalg.norm(want))
        bound = 10 * d * eps * cond * (1.0 + cond * resid)
        assert np.linalg.norm(got.x - want) <= bound * np.linalg.norm(want)


@pytest.mark.parametrize("ratio, flagged", [(1e-10, False), (1e-11, False), (3e-12, False), (3e-13, True),
                                            (1e-13, True), (1e-14, True)])
def test_lstsq_flag_is_the_singular_value_test_of_c(ratio, flagged):
    """The flag is raised where sigma_min(C) < LSTSQ_COND_TOL sigma_max(C),
    the test on C's singular values, taken here from a dense SVD of C."""
    rng = np.random.default_rng(12)
    c = _with_spectrum(rng, 40, 12, np.geomspace(1.0, ratio, 12))
    sv = np.linalg.svd(c, compute_uv=False)
    assert bool(sv[-1] < matrix_core.LSTSQ_COND_TOL * sv[0]) is flagged
    assert lstsq(c, rng.standard_normal((40, 5))).ill_conditioned is flagged


@pytest.mark.parametrize("case", ["cond 1e14", "rank deficient", "zero"])
def test_a_flagged_solve_returns_the_minimum_norm_bits(case):
    rng = np.random.default_rng(13)
    if case == "cond 1e14":
        c = _with_spectrum(rng, 30, 8, np.geomspace(1.0, 1e-14, 8))
    elif case == "rank deficient":
        c = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 8))
    else:
        c = np.zeros((30, 8))
    rhs = rng.standard_normal((30, 50))
    res = lstsq(c, rhs)
    assert res.ill_conditioned
    assert res.x.tobytes() == np.linalg.lstsq(c, rhs, rcond=matrix_core.LSTSQ_COND_TOL)[0].tobytes()


def test_a_full_rank_solve_runs_no_pseudoinverse(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called on a full-rank system")

    rng = np.random.default_rng(14)
    c, rhs = rng.standard_normal((62, 38)), rng.standard_normal((62, 400))
    want = lstsq(c, rhs).x
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    res = lstsq(c, rhs)
    assert not res.ill_conditioned and res.x.tobytes() == want.tobytes()


@pytest.mark.parametrize("rank", [None, 6], ids=["full", "deficient"])
@pytest.mark.parametrize("r", [4, 8])
@pytest.mark.parametrize("shape", [(24, 400), (400, 24), (30, 40), (40, 30), (12, 12), (10, 20)],
                         ids=lambda sh: f"{sh[0]}x{sh[1]}")
def test_svd_truncated_on_every_shape(shape, r, rank):
    """Wide, tall and near-square inputs, of full rank or not: orthonormal
    u and v, the leading singular values of a dense ``svdvals`` and the
    rank-r residual at sigma_{r+1}, all to roundoff."""
    rng = np.random.default_rng(15)
    k = min(shape)
    sv = np.geomspace(1.0, 1e-3, k)
    if rank is not None:
        sv[rank:] = 0.0
    m = _with_spectrum(rng, *shape, sv)
    res = svd_truncated(m, r)
    tol = 50 * max(shape) * np.finfo(np.float64).eps
    assert res.u.shape == (shape[0], r) and res.v.shape == (shape[1], r)
    assert np.linalg.norm(res.u.T @ res.u - np.eye(r)) <= tol
    assert np.linalg.norm(res.v.T @ res.v - np.eye(r)) <= tol
    want = la.svdvals(m)
    assert np.max(np.abs(res.s - want[:r])) <= tol * want[0]
    assert abs(np.linalg.norm(m - (res.u * res.s) @ res.v.T, 2) - want[r]) <= tol * want[0]


def test_svd_truncated_near_square_is_the_direct_svd():
    """Below the 2x aspect ratio (the two-sided core) the factors are the
    ones of ``la.svd``, bit for bit."""
    m = np.random.default_rng(16).standard_normal((30, 59))
    u, s, vt = la.svd(m, full_matrices=False)
    res = svd_truncated(m, 5)
    assert res.u.tobytes() == u[:, :5].tobytes() and res.s.tobytes() == s[:5].tobytes()
    assert res.v.tobytes() == vt[:5].T.tobytes()


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


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("dtype, huge", [(np.float32, 1e30), (np.float64, 1e200)], ids=["binary32", "binary64"])
def test_all_finite_fallback_makes_no_large_temporary(dtype, huge, layout):
    # Squares of these entries overflow, so the self-dot is +inf and every
    # array takes the exact test; a strided one takes it at once.
    import tracemalloc

    x = np.full((1000, 600 if layout == "strided" else 300), huge, dtype=dtype)
    x = {"C": x, "F": np.asfortranarray(x), "strided": x[:, ::2]}[layout]
    assert x.size > matrix_core._CHUNK and all_finite(x)
    tracemalloc.start()
    try:
        all_finite(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096


@st.composite
def _finite_case(draw):
    """An array of 0-3000 entries, binary32 or binary64, in C, F or strided
    layout, of ordinary, huge, subnormal and signed-zero entries with a few
    NaN or infinities planted at random positions."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    layout = draw(st.sampled_from(["vector", "C", "F", "strided", "strided_vector"]))
    rows, cols = draw(st.integers(0, 60)), draw(st.integers(0, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    huge = 1e30 if dtype is np.float32 else 1e200
    pool = np.array([huge, -huge, np.finfo(dtype).smallest_subnormal, 0.0, -0.0], dtype=dtype)
    full = rng.standard_normal((rows, 2 * cols)).astype(dtype)
    special = rng.random(full.shape) < draw(st.sampled_from([0.0, 0.01, 0.5, 1.0]))
    full[special] = pool[rng.integers(0, pool.size, int(special.sum()))]
    x = {
        "vector": full[:, :cols].reshape(-1),
        "strided_vector": full.reshape(-1)[::2],
        "C": full[:, :cols].copy(),
        "F": np.asfortranarray(full[:, :cols]),
        "strided": full[:, ::2],
    }[layout]
    for _ in range(draw(st.integers(0, 3)) if x.size else 0):
        x.flat[rng.integers(0, x.size)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return x


@settings(derandomize=True, deadline=None, max_examples=300)
@given(x=_finite_case())
def test_all_finite_agrees_with_the_elementwise_test(x):
    assert all_finite(x) == bool(np.isfinite(x).all())


# -- one BLAS thread and a helper thread ----------------------------------------

needs_managed_blas = pytest.mark.skipif(not matrix_core._BLAS, reason="no managed OpenBLAS build is loaded")


@pytest.fixture
def two_blas_threads():
    """Every managed build at two threads for the test, the counts restored after."""
    saved = [get() for get, _ in matrix_core._BLAS]
    for _, put in matrix_core._BLAS:
        put(2)
    yield
    for (_, put), n in zip(matrix_core._BLAS, saved):
        put(n)


def _counts():
    return [get() for get, _ in matrix_core._BLAS]


ONE, TWO = [1] * len(matrix_core._BLAS), [2] * len(matrix_core._BLAS)


@needs_managed_blas
def test_one_blas_thread_is_restored_after_a_call_and_an_exception(two_blas_threads):
    seen = []

    @matrix_core._one_blas_thread()
    def work(fail):
        seen.append(_counts())
        with matrix_core._one_blas_thread():  # nested entry keeps the pin
            seen.append(_counts())
        if fail:
            raise RuntimeError("inside the pin")
        return "done"

    assert work(False) == "done"
    assert _counts() == TWO
    with pytest.raises(RuntimeError, match="inside the pin"):
        work(True)
    assert _counts() == TWO
    assert seen == [ONE] * 4


@needs_managed_blas
def test_one_blas_thread_is_restored_after_overlapping_worker_threads(two_blas_threads):
    # Entries and exits interleave: the first holder to leave is not the
    # first to enter, and the pin holds until the last one leaves.
    entered, leave = threading.Barrier(4), [threading.Event() for _ in range(4)]
    inside = [None] * 4

    def work(i):
        with matrix_core._one_blas_thread():
            entered.wait(timeout=30)
            leave[i].wait(timeout=30)
            inside[i] = _counts()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for i in (2, 0, 3, 1):
        leave[i].set()
        threads[i].join(timeout=30)
        assert _counts() == (TWO if i == 1 else ONE)
    assert inside == [ONE] * 4


@needs_managed_blas
def test_one_blas_thread_holds_under_many_racing_holders(two_blas_threads):
    # More holders than CPUs enter and leave in a tight loop with frequent
    # thread switches; a lost update of the holder count would leave the
    # pin released while a holder is inside, or never released.
    wrong = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(5000):
                with matrix_core._one_blas_thread():
                    if _counts() != ONE:
                        wrong.append(_counts())

        threads = [threading.Thread(target=work) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert _counts() == TWO


def test_concurrently_keeps_input_order_and_raises_the_first_failure(monkeypatch):
    monkeypatch.setattr(matrix_core, "_TWO_CPUS", True)
    before = threading.active_count()
    names = []

    def call(i):
        names.append(threading.current_thread().name)
        time.sleep(0.002 * (i % 3))
        return i * i

    assert matrix_core._concurrently([functools.partial(call, i) for i in range(12)]) == [i * i for i in range(12)]
    assert len(set(names)) == 2  # the caller's thread and one helper

    def boom(i):
        raise ValueError(f"call {i}")

    calls = [functools.partial(call, 0), functools.partial(boom, 1), functools.partial(boom, 2)]
    with pytest.raises(ValueError, match="call 1"):
        matrix_core._concurrently(calls)
    assert threading.active_count() == before  # the helper was joined

    monkeypatch.setattr(matrix_core, "_TWO_CPUS", False)
    names.clear()
    assert matrix_core._concurrently([functools.partial(call, i) for i in range(4)]) == [0, 1, 4, 9]
    assert set(names) == {threading.current_thread().name}


def test_in_two_processes_keeps_input_order_and_raises_the_first_failure(monkeypatch):
    monkeypatch.setattr(matrix_core, "_TWO_CPUS", True)
    here = os.getpid()

    def call(i):
        return i * i, os.getpid()

    out = matrix_core._in_two_processes([functools.partial(call, i) for i in range(7)])
    assert [v for v, _ in out] == [i * i for i in range(7)]
    assert {pid for _, pid in out[0::2]} == {here}  # even positions made here
    assert here not in {pid for _, pid in out[1::2]}  # odd ones by the child

    def boom(i):
        raise ValueError(f"call {i} in {os.getpid()}")

    calls = [functools.partial(call, 0), functools.partial(boom, 1), functools.partial(boom, 2)]
    with pytest.raises(ValueError, match=f"call 1 in {here}$"):  # remade and raised here
        matrix_core._in_two_processes(calls)

    def dies_in_the_child():
        if os.getpid() != here:
            os._exit(3)
        return "made here"

    assert matrix_core._in_two_processes([lambda: 1, dies_in_the_child]) == [1, "made here"]

    monkeypatch.setattr(matrix_core, "_TWO_CPUS", False)
    assert {pid for _, pid in matrix_core._in_two_processes([functools.partial(call, i) for i in range(4)])} == {here}


def test_in_two_processes_does_not_fork_beside_another_thread(monkeypatch):
    monkeypatch.setattr(matrix_core, "_TWO_CPUS", True)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        pids = matrix_core._in_two_processes([os.getpid, os.getpid])
    finally:
        release.set()
        other.join()
    assert pids == [os.getpid()] * 2
