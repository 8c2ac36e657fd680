import dataclasses
import tracemalloc

import numpy as np
import pytest

from sketchpower import spi
from sketchpower.matrix_core import qr_economy
from sketchpower.spi import SpiParams, spi_plain, spi_stabilized, spi_variant


def _sines_between(u, w):
    """Sines of principal angles between the column spaces of u and w."""
    qu = np.linalg.qr(u)[0]
    qw = np.linalg.qr(w)[0]
    return np.linalg.norm(qu - qw @ (qw.T @ qu), 2)


def test_projector_fixed_point():
    rng = np.random.default_rng(0)
    z = np.linalg.qr(rng.standard_normal((40, 12)))[0]
    y = z[:, :5] @ rng.standard_normal((5, 5))  # range(Y) inside range(Z)
    out = spi_plain(z, y, 3)
    assert np.linalg.norm(out - y) <= 1e-12 * np.linalg.norm(y)


def test_zero_sketch_gives_zero():
    y = np.random.default_rng(1).standard_normal((30, 4))
    out = spi_plain(np.zeros((30, 9)), y, 2)
    assert not out.any()


def test_plain_matches_dense_oracle():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((60, 12))
    y = rng.standard_normal((60, 6))
    out = spi_plain(z, y, 2)
    oracle = np.linalg.matrix_power(z @ z.T, 2) @ y
    assert np.linalg.norm(out - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_width_and_power_preconditions():
    z = np.zeros((10, 4))
    y = np.zeros((10, 4))
    with pytest.raises(ValueError, match="wider"):
        spi_plain(z, y, 1)
    with pytest.raises(ValueError, match="q >= 1"):
        spi_plain(np.zeros((10, 6)), y, 0)
    with pytest.raises(ValueError, match="q >= 1"):
        spi_stabilized(np.zeros((10, 6)), y, 0)
    with pytest.raises(ValueError, match="same rows"):
        spi_plain(np.zeros((10, 6)), np.zeros((9, 4)), 1)


def test_stabilized_spans_same_space_as_plain():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((50, 10))
    y = rng.standard_normal((50, 5))
    out = spi_stabilized(z, y, 1)
    assert not out.rank_collapse
    assert _sines_between(out.y_hat, spi_plain(z, y, 1)) <= 1e-8


def test_stabilized_survives_extreme_conditioning():
    # kappa(Z) = 1e6 and q = 4: the plain iterate collapses numerically while
    # the re-orthonormalized one keeps full numerical rank.
    rng = np.random.default_rng(4)
    u = np.linalg.qr(rng.standard_normal((80, 10)))[0]
    v = np.linalg.qr(rng.standard_normal((10, 10)))[0]
    z = (u * np.logspace(0, -6, 10)) @ v.T
    y = rng.standard_normal((80, 5))
    plain = spi_plain(z, y, 4)
    stab = spi_stabilized(z, y, 4).y_hat
    sv_plain = np.linalg.svd(plain, compute_uv=False)
    sv_stab = np.linalg.svd(stab, compute_uv=False)
    assert sv_plain[-1] / sv_plain[0] < 1e-12
    assert sv_stab[-1] / sv_stab[0] > 1e-10
    q_final = np.linalg.qr(stab)[0]
    assert np.linalg.norm(q_final.T @ q_final - np.eye(5)) <= 1e-10


def test_stabilized_invariant_subspace():
    rng = np.random.default_rng(5)
    z = np.linalg.qr(rng.standard_normal((40, 8)))[0]
    y = z[:, :4].copy()
    out = spi_stabilized(z, y, 2)
    assert _sines_between(out.y_hat, y) <= 1e-10


def test_stabilized_flags_rank_collapse():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((30, 8))
    y = np.zeros((30, 3))
    y[:, :] = np.outer(rng.standard_normal(30), np.ones(3))  # rank-1 rangefinder
    out = spi_stabilized(z, y, 2)
    assert out.rank_collapse
    assert np.isfinite(out.y_hat).all()


def test_variant_zero_power_and_column_extraction():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((25, 10))
    o = rng.standard_normal((10, 4))
    assert np.allclose(spi_variant(z, o, 0), z @ o, atol=1e-13)
    e1 = np.zeros((10, 1))
    e1[0, 0] = 1.0
    col = spi_variant(z, e1, 2)
    want = (z @ np.linalg.matrix_power(z.T @ z, 2))[:, :1]
    assert np.linalg.norm(col - want) <= 1e-10 * np.linalg.norm(want)


def test_variant_matches_plain_cross_implementation():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((35, 12))
    o = rng.standard_normal((12, 5))
    out = spi_variant(z, o, 2)
    oracle = spi_plain(z, z @ o, 2)
    assert np.linalg.norm(out - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_variant_storage_contract():
    z = np.zeros((10, 6))
    with pytest.raises(ValueError, match="s <= l/2"):
        spi_variant(z, np.zeros((6, 4)), 1)
    spi_variant(z, np.zeros((6, 3)), 1)  # s = l/2 is inside the contract


def test_variant_refuses_a_negative_q_and_a_factor_of_other_rows():
    z = np.zeros((10, 6))
    with pytest.raises(ValueError, match="^power count must be >= 0, got -1$"):
        spi_variant(z, np.zeros((6, 3)), -1)
    with pytest.raises(ValueError, match="^right factor must have 6 rows, got 5$"):
        spi_variant(z, np.zeros((5, 3)), 1)


def test_spi_params_defaults():
    assert SpiParams() == SpiParams(q=1)
    assert [f.name for f in dataclasses.fields(SpiParams)] == ["q"]
    assert SpiParams(q=0).q == 0 and SpiParams(q=np.int64(2)).q == 2  # NumPy integers too
    for q in (-1, np.int32(-1)):
        with pytest.raises(ValueError, match="must be >= 0, got -1"):
            SpiParams(q=q)


@pytest.mark.parametrize("q", [1.5, 2.0, "2", None, True])
@pytest.mark.parametrize("entry", ["SpiParams", "spi_plain", "spi_stabilized", "spi_variant"])
def test_every_entry_point_refuses_a_q_that_is_no_integer(entry, q):
    z = np.random.default_rng(3).standard_normal((20, 8))
    call = {
        "SpiParams": lambda q: SpiParams(q=q),
        "spi_plain": lambda q: spi_plain(z, z[:, :3], q),
        "spi_stabilized": lambda q: spi_stabilized(z, z[:, :3], q),
        "spi_variant": lambda q: spi_variant(z, z[:8, :3], q),
    }[entry]
    with pytest.raises(ValueError, match=r"count q must be an integer, got"):
        call(q)
    call(np.int64(2))  # NumPy integers are taken


def test_cost_shape_and_no_large_intermediates():
    m, l, s, q = 2000, 20, 8, 3
    rng = np.random.default_rng(9)
    z = rng.standard_normal((m, l))
    y = rng.standard_normal((m, s))
    for run in (lambda: spi_plain(z, y, q), lambda: spi_stabilized(z, y, q),
                lambda: spi_variant(z, y[:l, :s], q)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * m * 8 / 20  # an m x m intermediate would take m^2 * 8 bytes


# -- the chunked reading of Z and Y ---------------------------------------------


def _ref_plain(z, y, q):
    """The iteration on whole binary64 upcasts of Z and Y."""
    z, y = z.astype(np.float64), y.astype(np.float64)
    t = z.T @ y
    for _ in range(q - 1):
        t = z.T @ (z @ t)
    return z @ t


def _ref_stabilized(z, y, q):
    z, y_hat = z.astype(np.float64), y.astype(np.float64)
    collapse = False
    for _ in range(q):
        qres = qr_economy(z.T @ y_hat)
        collapse = collapse or qres.rank_deficient
        y_hat = z @ qres.q
    return y_hat, collapse


def _ref_variant(z, o, q):
    z = z.astype(np.float64)
    t = o
    if q > 0:
        gram = z.T @ z
        for _ in range(q):
            t = gram @ t
    return z @ t


def _chunk_case(dtype, m=43, l=12, s=5):
    rng = np.random.default_rng(31)
    return rng.standard_normal((m, l)).astype(dtype), rng.standard_normal((m, s)).astype(dtype), rng.standard_normal((l, s))


@pytest.mark.parametrize("q", [0, 1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_chunk_equals_the_whole_upcast_bit_for_bit(dtype, q):
    z, y, o = _chunk_case(dtype)
    assert z.size <= spi._CHUNK
    assert spi_variant(z, o, q).tobytes() == _ref_variant(z, o, q).tobytes()
    if q >= 1:
        assert spi_plain(z, y, q).tobytes() == _ref_plain(z, y, q).tobytes()
        out = spi_stabilized(z, y, q)
        y_hat, collapse = _ref_stabilized(z, y, q)
        assert out.y_hat.tobytes() == y_hat.tobytes() and out.rank_collapse == collapse


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_many_chunks_agree_with_the_whole_upcast(dtype, q, monkeypatch):
    z, y, o = _chunk_case(dtype)
    monkeypatch.setattr(spi, "_CHUNK", 5 * z.shape[1])  # 5 rows a chunk: 9 chunks, the last partial
    for got, want in ((spi_plain(z, y, q), _ref_plain(z, y, q)),
                      (spi_stabilized(z, y, q).y_hat, _ref_stabilized(z, y, q)[0]),
                      (spi_variant(z, o, q), _ref_variant(z, o, q))):
        assert got.dtype == np.float64
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_binary32_z_is_not_upcast_whole(monkeypatch):
    m, l, s = 20000, 40, 4
    rng = np.random.default_rng(32)
    z = rng.standard_normal((m, l)).astype(np.float32)
    y = rng.standard_normal((m, s)).astype(np.float32)
    for run in (lambda: spi_plain(z, y, 2), lambda: spi_stabilized(z, y, 2),
                lambda: spi_variant(z, y[:l, :2].astype(np.float64), 2)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The m x s binary64 result and one 2 MiB chunk; a binary64 Z is 6.4 MB.
        assert peak < m * s * 8 + 2 * spi._CHUNK * 8 + (1 << 16)
