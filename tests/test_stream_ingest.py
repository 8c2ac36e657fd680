import contextlib
import re

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchpower import stream_ingest
from sketchpower.matrix_core import DenseMatrix, Precision
from sketchpower.precision_model import PIPELINES, PrecisionPlan
from sketchpower.stream_ingest import (
    LinearUpdate,
    PipelineKind,
    ingest_file,
    open_stream,
    read_matrix,
)
from sketchpower.synthetic import Family, SyntheticSpec, generate as gen_data, write_spim
from sketchpower.test_matrices import GAUSSIAN, SPARSE_RADEMACHER, SeedSpec, Stream, TestMatrixKind, generate


_SKETCH_NAMES = ("y", "w", "z", "x", "k")


def _random(m, n, seed=0):
    return np.random.default_rng(seed).standard_normal((m, n))


def test_one_shot_matches_direct_products():
    a = _random(60, 50, 1)
    st = open_stream(PipelineKind.TYUC17_SPI, 60, 50, s=6, d=14, l=12, base_seed=3)
    sk = st.ingest(LinearUpdate.dense(a)).finalize()
    assert np.linalg.norm(sk.y.data - a @ sk.omega) <= 1e-12 * np.linalg.norm(sk.y.data)
    assert np.linalg.norm(sk.w.data - sk.psi @ a) <= 1e-12 * np.linalg.norm(sk.w.data)
    assert np.linalg.norm(sk.z.data - a @ sk.phi) <= 1e-12 * np.linalg.norm(sk.z.data)
    assert sk.pass_count == 1


def test_row_blocks_match_one_shot():
    a = _random(100, 40, 2)
    one = open_stream(PipelineKind.TYUC17, 100, 40, s=5, d=12, base_seed=4)
    sk_one = one.ingest(LinearUpdate.dense(a)).finalize()
    blocked = open_stream(PipelineKind.TYUC17, 100, 40, s=5, d=12, base_seed=4)
    for i in range(0, 100, 10):
        blocked.ingest(LinearUpdate.row_block(i, a[i : i + 10]))
    sk_blk = blocked.finalize()
    assert np.linalg.norm(sk_blk.y.data - sk_one.y.data) <= 1e-12 * np.linalg.norm(sk_one.y.data)
    assert np.linalg.norm(sk_blk.w.data - sk_one.w.data) <= 1e-12 * np.linalg.norm(sk_one.w.data)


def test_rank_one_stream_matches_materialized():
    rng = np.random.default_rng(5)
    us = rng.standard_normal((5, 70))
    vs = rng.standard_normal((5, 30))
    a = sum(np.outer(us[k], vs[k]) for k in range(5))
    st = open_stream(PipelineKind.TYUC17_SPI, 70, 30, s=4, d=10, l=9, base_seed=6)
    for k in range(5):
        st.ingest(LinearUpdate.rank_one(us[k], vs[k]))
    sk = st.finalize()
    assert np.linalg.norm(sk.z.data - a @ sk.phi) <= 1e-12 * np.linalg.norm(sk.z.data)


def test_column_block_updates():
    a = _random(40, 60, 7)
    st = open_stream(PipelineKind.TYUC19, 40, 60, s=5, d=12, base_seed=8)
    for j in range(0, 60, 15):
        st.ingest(LinearUpdate.column_block(j, a[:, j : j + 15]))
    sk = st.finalize()
    assert np.allclose(sk.y.data, a @ sk.omega, atol=1e-12)
    assert np.allclose(sk.x.data, sk.gamma @ a, atol=1e-12)
    assert np.allclose(sk.k.data, sk.phi @ a @ sk.psi.T, atol=1e-12)


def test_linearity_of_updates():
    h1, h2 = _random(30, 20, 9), _random(30, 20, 10)
    split = open_stream(PipelineKind.TYUC17, 30, 20, s=4, d=8, base_seed=11)
    split.ingest(LinearUpdate.dense(h1)).ingest(LinearUpdate.dense(h2))
    sk_split = split.finalize()
    joint = open_stream(PipelineKind.TYUC17, 30, 20, s=4, d=8, base_seed=11)
    sk_joint = joint.ingest(LinearUpdate.dense(h1 + h2)).finalize()
    assert np.linalg.norm(sk_split.y.data - sk_joint.y.data) <= 1e-12 * np.linalg.norm(sk_joint.y.data)


def test_ingest_after_finalize_rejected():
    st = open_stream(PipelineKind.TYUC17, 10, 10, s=2, d=4, base_seed=0)
    st.ingest(LinearUpdate.dense(np.zeros((10, 10))))
    st.finalize()
    with pytest.raises(RuntimeError):
        st.ingest(LinearUpdate.dense(np.zeros((10, 10))))
    with pytest.raises(RuntimeError):
        st.finalize()


def test_shape_mismatches_rejected():
    st = open_stream(PipelineKind.TYUC17, 10, 8, s=2, d=4, base_seed=0)
    with pytest.raises(ValueError):
        st.ingest(LinearUpdate.dense(np.zeros((9, 8))))
    with pytest.raises(ValueError):
        st.ingest(LinearUpdate.row_block(9, np.zeros((2, 8))))
    with pytest.raises(ValueError):
        st.ingest(LinearUpdate.rank_one(np.zeros(10), np.zeros(7)))


def test_rowwise_sketching_matches_materialized():
    a = _random(200, 100, 12)
    st = open_stream(PipelineKind.RSVD_ONEPASS, 200, 100, s=15, base_seed=13)
    for i in range(0, 200, 23):
        st.ingest(LinearUpdate.row_block(i, a[i : i + 23]))
    sk = st.finalize()
    omega = sk.omega
    assert np.linalg.norm(sk.y.data - a @ omega) <= 1e-11 * np.linalg.norm(sk.y.data)
    want_w = a.T @ (a @ omega)
    assert np.linalg.norm(sk.w.data - want_w) <= 1e-11 * np.linalg.norm(want_w)


def test_rowwise_zero_and_single_row():
    st = open_stream(PipelineKind.RSVD_ONEPASS, 6, 5, s=3, base_seed=1)
    sk = st.ingest(LinearUpdate.row_block(0, np.zeros((6, 5)))).finalize()
    assert not sk.y.data.any() and not sk.w.data.any()

    a1 = np.arange(1.0, 6.0)
    st = open_stream(PipelineKind.RSVD_ONEPASS, 6, 5, s=3, base_seed=1)
    sk = st.ingest(LinearUpdate.row_block(2, a1[None, :])).finalize()
    want = np.outer(a1, a1 @ sk.omega)
    assert np.allclose(sk.w.data, want, atol=1e-13)


def test_rowwise_restrictions():
    st = open_stream(PipelineKind.RSVD_ONEPASS, 10, 5, s=2, base_seed=2)
    with pytest.raises(ValueError):
        st.ingest(LinearUpdate.dense(np.zeros((10, 5))))
    with pytest.raises(ValueError):
        st.ingest(LinearUpdate.column_block(0, np.zeros((10, 2))))
    st.ingest(LinearUpdate.row_block(0, np.zeros((4, 5))))
    with pytest.raises(ValueError):
        st.ingest(LinearUpdate.row_block(3, np.zeros((2, 5))))  # row 3 delivered twice


def test_rowwise_rejects_rank_one_spanning_several_rows():
    # Non-orthogonal left vectors used to give S_F = 0.16 on exact rank-3 data.
    rng = np.random.default_rng(21)
    st = open_stream(PipelineKind.RSVD_ONEPASS, 40, 30, s=6, base_seed=3)
    with pytest.raises(ValueError, match="exactly one nonzero entry"):
        st.ingest(LinearUpdate.rank_one(rng.standard_normal(40), rng.standard_normal(30)))
    with pytest.raises(ValueError, match="exactly one nonzero entry"):
        st.ingest(LinearUpdate.rank_one(np.zeros(40), rng.standard_normal(30)))


def test_rowwise_rank_one_repeated_row_rejected():
    st = open_stream(PipelineKind.RSVD_ONEPASS, 8, 5, s=2, base_seed=4)
    e3 = np.eye(8)[3]
    st.ingest(LinearUpdate.rank_one(e3, np.ones(5)))
    with pytest.raises(ValueError, match="twice"):
        st.ingest(LinearUpdate.rank_one(2.0 * e3, np.ones(5)))


def test_rowwise_rank_one_and_row_block_overlap_rejected():
    st = open_stream(PipelineKind.RSVD_ONEPASS, 8, 5, s=2, base_seed=5)
    st.ingest(LinearUpdate.row_block(2, np.ones((3, 5))))
    with pytest.raises(ValueError, match="twice"):
        st.ingest(LinearUpdate.rank_one(np.eye(8)[4], np.ones(5)))
    st = open_stream(PipelineKind.RSVD_ONEPASS, 8, 5, s=2, base_seed=5)
    st.ingest(LinearUpdate.rank_one(np.eye(8)[4], np.ones(5)))
    with pytest.raises(ValueError, match="twice"):
        st.ingest(LinearUpdate.row_block(2, np.ones((3, 5))))


def test_rowwise_single_row_rank_one_terms_match_one_shot():
    a = _random(30, 20, 22)
    one = open_stream(PipelineKind.RSVD_ONEPASS, 30, 20, s=5, base_seed=6)
    sk_one = one.ingest(LinearUpdate.row_block(0, a)).finalize()
    mixed = open_stream(PipelineKind.RSVD_ONEPASS, 30, 20, s=5, base_seed=6)
    mixed.ingest(LinearUpdate.row_block(0, a[:10]))
    for i in range(10, 30):
        mixed.ingest(LinearUpdate.rank_one(-3.0 * np.eye(30)[i], a[i] / -3.0))
    sk = mixed.finalize()
    assert np.linalg.norm(sk.y.data - sk_one.y.data) <= 1e-12 * np.linalg.norm(sk_one.y.data)
    assert np.linalg.norm(sk.w.data - sk_one.w.data) <= 1e-12 * np.linalg.norm(sk_one.w.data)


def test_mixed_precision_storage_and_accumulation():
    a = _random(50, 40, 14)
    st = open_stream(PipelineKind.TYUC17_SPI, 50, 40, s=5, d=12, l=10,
                     base_seed=15, plan=PrecisionPlan.MIXED_SINGLE_DOUBLE)
    sk_blocked = st
    for i in range(0, 50, 7):
        sk_blocked.ingest(LinearUpdate.row_block(i, a[i : i + 7]))
    sk_blocked = sk_blocked.finalize()
    assert sk_blocked.y.data.dtype == np.float32
    assert sk_blocked.w.data.dtype == np.float32
    assert sk_blocked.z.data.dtype == np.float32

    one = open_stream(PipelineKind.TYUC17_SPI, 50, 40, s=5, d=12, l=10,
                      base_seed=15, plan=PrecisionPlan.MIXED_SINGLE_DOUBLE)
    sk_one = one.ingest(LinearUpdate.dense(a)).finalize()
    eps32 = np.finfo(np.float32).eps
    y_blk, y_one = sk_blocked.y.data.astype(np.float64), sk_one.y.data.astype(np.float64)
    rel = np.linalg.norm(y_blk - y_one) / np.linalg.norm(y_one)
    assert rel <= 50 * eps32


def test_tyuc19_spi_sketch_shapes_and_content():
    a = _random(45, 35, 16)
    st = open_stream(PipelineKind.TYUC19_SPI, 45, 35, s=4, d=10, l=9, base_seed=17)
    sk = st.ingest(LinearUpdate.dense(a)).finalize()
    assert sk.z.data.shape == (45, 9)
    assert sk.w.data.shape == (9, 35)
    assert sk.k.data.shape == (10, 10)
    assert np.allclose(sk.z.data, a @ sk.omega, atol=1e-12)
    assert np.allclose(sk.w.data, sk.gamma @ a, atol=1e-12)


def _write(directory, a: np.ndarray, fmt: str):
    """The path of a written as a binary64 SPIM, binary32 SPIM or MatrixMarket file."""
    if fmt == "matrixmarket":
        import scipy.io

        path = directory / "data.mtx"
        scipy.io.mmwrite(path, a)
    else:
        path = directory / "data.spim"
        write_spim(path, a, Precision.BINARY32 if fmt == "binary32" else Precision.BINARY64)
    return path


_FILE_FORMATS = ["binary64", "binary32", "matrixmarket"]


@pytest.mark.parametrize("test_kind", [GAUSSIAN, SPARSE_RADEMACHER], ids=lambda k: k.variant)
@pytest.mark.parametrize("fmt", _FILE_FORMATS)
def test_ingest_file_bitwise_matches_memory(tmp_path, fmt, test_kind, monkeypatch):
    spec = SyntheticSpec(Family.LOWRANK_NOISE, m=120, n=90, plateau=5, snr=1e-4, base_seed=31)
    a = gen_data(spec)[0]
    path = _write(tmp_path, a, fmt)
    monkeypatch.setattr(stream_ingest, "_CHUNK", 7 * 90)  # chunks of 7 rows, pieces of 56
    assert _piece_rows(path) == [56, 56, 8]
    # The file's rows as the reader yields them: binary32 SPIM rows stay binary32.
    rows = a.astype(np.float32) if fmt == "binary32" else read_matrix(path)
    mem = open_stream(PipelineKind.TYUC17_SPI, 120, 90, s=6, d=14, l=12, base_seed=32, test_kind=test_kind)
    sk_mem = mem.ingest(LinearUpdate.row_block(0, rows)).finalize()
    sk_file = ingest_file(path, PipelineKind.TYUC17_SPI, s=6, d=14, l=12, base_seed=32, test_kind=test_kind)
    for name in ("y", "w", "z"):
        assert np.array_equal(getattr(sk_file, name).data, getattr(sk_mem, name).data)
    assert sk_file.pass_count == 1


def _recording_open(monkeypatch):
    """Record every file the stream_ingest module opens."""
    opened = []

    def recording(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(stream_ingest, "open", recording, raising=False)
    return opened


@pytest.mark.parametrize("fmt", _FILE_FORMATS)
def test_file_is_read_through_one_open(tmp_path, fmt, monkeypatch):
    path = _write(tmp_path, _random(30, 7, 41), fmt)
    opened = _recording_open(monkeypatch)
    read_matrix(path)
    ingest_file(path, PipelineKind.TYUC17, s=2, d=4)
    assert len(opened) == 2 and all(fh.closed for fh in opened)


@pytest.mark.parametrize("row, chunk_rows, where", [
    (25, None, "[0, 40)"),  # the whole file is one piece
    (33, 1, "[32, 40)"),  # in the fifth piece of 8 rows
])
@pytest.mark.parametrize("fmt", _FILE_FORMATS)
def test_file_is_closed_when_a_piece_is_refused(tmp_path, fmt, row, chunk_rows, where, monkeypatch):
    bad = _random(40, 6, 42)
    bad[row, 3] = np.nan
    path = _write(tmp_path, bad, fmt)
    if chunk_rows is not None:
        monkeypatch.setattr(stream_ingest, "_CHUNK", chunk_rows * 6)
    opened = _recording_open(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(f"non-finite entries in row_block update of rows {where}")):
        try:
            ingest_file(path, PipelineKind.TYUC17, s=2, d=4)
        finally:
            assert len(opened) == 1 and opened[0].closed


def test_ingest_file_rejects_garbage(tmp_path):
    empty = tmp_path / "empty.spim"
    empty.write_bytes(b"")
    with pytest.raises(ValueError, match="empty"):
        ingest_file(empty, PipelineKind.TYUC17, s=2, d=4)

    bad_magic = tmp_path / "bad.spim"
    bad_magic.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ValueError, match="magic|SPIM"):
        ingest_file(bad_magic, PipelineKind.TYUC17, s=2, d=4)

    truncated = tmp_path / "trunc.spim"
    write_spim(truncated, np.ones((4, 3)))
    data = truncated.read_bytes()
    truncated.write_bytes(data[:-8])  # payload shorter than the header claims
    with pytest.raises(ValueError, match="bytes"):
        ingest_file(truncated, PipelineKind.TYUC17, s=2, d=4)


def test_ingest_file_rejects_nonfinite(tmp_path):
    bad = np.ones((5, 4))
    bad[2, 2] = np.inf
    path = tmp_path / "inf.spim"
    write_spim(path, bad)
    with pytest.raises(ValueError, match="non-finite"):
        ingest_file(path, PipelineKind.TYUC17, s=2, d=3)


def test_matrix_market_ingestion(tmp_path):
    import scipy.io

    a = _random(25, 18, 33)
    path = tmp_path / "data.mtx"
    scipy.io.mmwrite(path, a)
    sk = ingest_file(path, PipelineKind.TYUC17, s=3, d=8, base_seed=2)
    direct = open_stream(PipelineKind.TYUC17, 25, 18, s=3, d=8, base_seed=2)
    sk2 = direct.ingest(LinearUpdate.dense(a)).finalize()
    assert np.allclose(sk.y.data, sk2.y.data, atol=1e-12)
    assert np.allclose(read_matrix(path), a, atol=1e-12)


def test_spim_dimension_overflow_rejected(tmp_path):
    import numpy as np

    header = b"SPIM" + np.array([1], dtype="<u2").tobytes() + bytes([0, 0])
    header += np.array([1 << 30, 1 << 30], dtype="<u8").tobytes()
    path = tmp_path / "huge.spim"
    path.write_bytes(header)
    with pytest.raises(ValueError, match="overflow"):
        ingest_file(path, PipelineKind.TYUC17, s=2, d=4)


def test_sketch_set_provenance():
    st = open_stream(PipelineKind.TYUC17, 10, 8, s=2, d=4, base_seed=77, trial=5)
    sk = st.ingest(LinearUpdate.dense(np.zeros((10, 8)))).finalize()
    assert (sk.base_seed, sk.trial) == (77, 5)
    assert sk.test_kind.variant == "gaussian"


@pytest.mark.parametrize("kind, sizes, message", [
    ("tyuc17", (20, 10, 12, 14, 0), "tyuc17: size rule 1 <= s <= min(m, n) fails with s=12, m=20, n=10"),
    ("rsvd_onepass", (20, 10, 0, 0, 0), "rsvd_onepass: size rule 1 <= s <= min(m, n) fails with s=0, m=20, n=10"),
    ("tyuc17_spi", (20, 10, 6, 5, 10), "tyuc17_spi: size rule d >= s fails with d=5, s=6"),
    ("tyuc19", (20, 10, 6, 6, 0), "tyuc19: size rule d > s fails with d=6, s=6"),
    ("tyuc17_spi", (20, 10, 6, 8, 6), "tyuc17_spi: size rule l > s fails with l=6, s=6"),
    ("tyuc17_spi_variant", (20, 10, 6, 8, 11), "tyuc17_spi_variant: size rule l >= 2s fails with l=11, s=6"),
    ("tyuc19_spi", (20, 10, 6, 8, 11), "tyuc19_spi: size rule l >= 2s fails with l=11, s=6"),
])
def test_open_stream_rejects_sizes_before_drawing(kind, sizes, message, monkeypatch):
    from sketchpower import stream_ingest

    def no_draw(*args, **kwargs):
        raise AssertionError("a test matrix was drawn")

    monkeypatch.setattr(stream_ingest, "generate", no_draw)
    with pytest.raises(ValueError, match=re.escape(message)):
        open_stream(PipelineKind(kind), *sizes)


def test_sizes_a_kind_does_not_use_are_ignored():
    open_stream(PipelineKind.RSVD_ONEPASS, 20, 10, 4)
    open_stream(PipelineKind.TYUC17, 20, 10, 4, 4, l=1)
    open_stream(PipelineKind.TYUC19, 20, 10, 4, 5, l=1)


@pytest.mark.parametrize("kind, make, where", [
    (PipelineKind.TYUC17, lambda h: LinearUpdate.dense(h), "dense update of rows [0, 12) x columns [0, 9)"),
    (PipelineKind.TYUC19, lambda h: LinearUpdate.rank_one(h[:, 3], h[4]),
     "rank_one update of rows [0, 12) x columns [0, 9)"),
    (PipelineKind.RSVD_ONEPASS, lambda h: LinearUpdate.row_block(3, h[3:7]), "row_block update of rows [3, 7)"),
    (PipelineKind.TYUC17_SPI, lambda h: LinearUpdate.column_block(2, h[:, 2:5]),
     "column_block update of columns [2, 5)"),
])
def test_ingest_rejects_nonfinite_updates(kind, make, where):
    h = _random(12, 9, 40)
    h[4, 3] = np.nan
    st = open_stream(kind, 12, 9, s=2, d=5, l=4, base_seed=41)
    with pytest.raises(ValueError, match=re.escape(f"non-finite entries in {where}")):
        st.ingest(make(h))
    h[4, 3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        st.ingest(make(h))
    # Nothing was folded in: the stream still gives the sketches of a clean pass.
    clean = _random(12, 9, 42)
    upd = LinearUpdate.row_block(0, clean) if kind is PipelineKind.RSVD_ONEPASS else LinearUpdate.dense(clean)
    sk = st.ingest(upd).finalize()
    ref = open_stream(kind, 12, 9, s=2, d=5, l=4, base_seed=41).ingest(upd).finalize()
    for name in _SKETCH_NAMES:
        if getattr(sk, name) is not None:
            assert np.array_equal(getattr(sk, name).data, getattr(ref, name).data)


@pytest.mark.parametrize("test_kind", [GAUSSIAN, TestMatrixKind("sparse_rademacher", 0.3)], ids=lambda k: k.variant)
@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
def test_finalized_sketch_set_is_read_only(kind, test_kind):
    st = open_stream(kind, 12, 9, s=2, d=5, l=4, plan=PrecisionPlan.MIXED_SINGLE_DOUBLE, test_kind=test_kind)
    upd = LinearUpdate.row_block(0, _random(12, 9, 43))
    sk = st.ingest(upd).finalize()
    mats = [getattr(sk, name) for name in _SKETCH_NAMES + ("omega", "psi", "phi", "gamma")]
    arrays = [a.data if isinstance(a, DenseMatrix) else a for a in mats if isinstance(a, (DenseMatrix, np.ndarray))]
    assert len(arrays) >= 3
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0
    for csc in (a for a in mats if isinstance(a, scipy.sparse.csc_array)):
        for arr in (csc.data, csc.indices, csc.indptr):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


# -- split invariance ---------------------------------------------------------


@st.composite
def _split_case(draw, rowwise):
    """Sizes, a seed and a split of a random matrix A into additive updates.

    Row-wise streams take a partition of the rows into row blocks and
    single-row rank-one terms; the others take any mix of dense parts,
    rank-one terms, row blocks and column blocks.
    """
    s = draw(st.integers(1, 3))
    m, n = draw(st.integers(s, 9)), draw(st.integers(s, 9))
    d, l = s + draw(st.integers(1, 3)), 2 * s + draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    total = np.zeros((m, n))
    updates = []
    if rowwise:
        i = 0
        while i < m:
            if draw(st.booleans()):
                c = draw(st.sampled_from([1.0, -2.0, 0.5]))
                upd = LinearUpdate.rank_one(c * np.eye(m)[i], rng.standard_normal(n) / c)
                total[i] = upd.u[i] * upd.v
                i += 1
            else:
                b = draw(st.integers(i + 1, m))
                upd = LinearUpdate.row_block(i, rng.standard_normal((b - i, n)))
                total[i:b] = upd.h
                i = b
            updates.append(upd)
    else:
        for kind in draw(st.lists(st.sampled_from(["dense", "rank_one", "row_block", "column_block"]),
                                  min_size=1, max_size=6)):
            if kind == "dense":
                upd = LinearUpdate.dense(rng.standard_normal((m, n)))
                total += upd.h
            elif kind == "rank_one":
                upd = LinearUpdate.rank_one(rng.standard_normal(m), rng.standard_normal(n))
                total += np.outer(upd.u, upd.v)
            elif kind == "row_block":
                a = draw(st.integers(0, m - 1))
                b = draw(st.integers(a + 1, m))
                upd = LinearUpdate.row_block(a, rng.standard_normal((b - a, n)))
                total[a:b] += upd.h
            else:
                a = draw(st.integers(0, n - 1))
                b = draw(st.integers(a + 1, n))
                upd = LinearUpdate.column_block(a, rng.standard_normal((m, b - a)))
                total[:, a:b] += upd.h
            updates.append(upd)
    order = draw(st.permutations(range(len(updates))))
    return (m, n, s, d, l), seed, total, [updates[i] for i in order]


@pytest.mark.parametrize("plan", list(PrecisionPlan), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
@settings(derandomize=True, deadline=None)
@given(data=st.data())
def test_any_split_matches_one_shot_ingestion(kind, plan, data):
    rowwise = kind is PipelineKind.RSVD_ONEPASS
    sizes, seed, total, updates = data.draw(_split_case(rowwise))
    split = open_stream(kind, *sizes, base_seed=seed, plan=plan)
    for upd in updates:
        split.ingest(upd)
    got = split.finalize()
    one = open_stream(kind, *sizes, base_seed=seed, plan=plan)
    want = one.ingest(LinearUpdate.row_block(0, total) if rowwise else LinearUpdate.dense(total)).finalize()
    for name in _SKETCH_NAMES:
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None), name
        if g is None:
            continue
        assert g.data.dtype == w.data.dtype, name
        eps = float(np.finfo(w.data.dtype).eps)
        ref = w.data.astype(np.float64)
        tol = (len(updates) * eps + 1e3 * np.finfo(np.float64).eps) * max(np.linalg.norm(ref), 1e-300)
        assert np.linalg.norm(g.data.astype(np.float64) - ref) <= tol, name


# -- invalid updates ------------------------------------------------------------


@st.composite
def _invalid_case(draw, rowwise):
    """Sizes, a seed, a data matrix split at row k, and one update ``ingest``
    must refuse after rows [0, k) arrived (None: a valid update after
    ``finalize``)."""
    s = draw(st.integers(1, 3))
    m, n = draw(st.integers(max(s, 2), 9)), draw(st.integers(s, 9))
    d, l = s + draw(st.integers(1, 3)), 2 * s + draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    a, k = rng.standard_normal((m, n)), draw(st.integers(1, m - 1))
    cases = ["wrong_shape", "start_out_of_range", "non_finite", "after_finalize"]
    if rowwise:
        cases += ["column_block", "rank_one_two_rows", "repeated_row"]
    case = draw(st.sampled_from(cases))
    if case == "wrong_shape":
        bad = draw(st.sampled_from([
            LinearUpdate.dense(np.ones((m + 1, n))),
            LinearUpdate.dense(np.ones((m, n - 1))),
            LinearUpdate.dense(np.ones(n)),
            LinearUpdate.rank_one(np.ones(m + 1), np.ones(n)),
            LinearUpdate.rank_one(np.eye(m)[k], np.ones(n + 1)),
            LinearUpdate.row_block(k, np.ones((1, n + 1))),
            LinearUpdate.column_block(0, np.ones((m - 1, 1))),
        ]))
    elif case == "start_out_of_range":
        rows, cols = draw(st.integers(1, m - k)), draw(st.integers(1, n))
        bad = draw(st.sampled_from([
            LinearUpdate.row_block(m - rows + 1, np.ones((rows, n))),
            LinearUpdate.row_block(-1, np.ones((rows, n))),
            LinearUpdate.column_block(n - cols + 1, np.ones((m, cols))),
            LinearUpdate.column_block(-1, np.ones((m, cols))),
        ]))
    elif case == "non_finite":
        h = rng.standard_normal((m, n))
        h[draw(st.integers(k, m - 1)), draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        i = int(np.flatnonzero(~np.isfinite(h).all(axis=1))[0])
        choices = [LinearUpdate.row_block(k, h[k:]), LinearUpdate.rank_one(np.eye(m)[i], h[i])]
        if not rowwise:
            choices += [LinearUpdate.dense(h), LinearUpdate.column_block(0, h)]
        bad = draw(st.sampled_from(choices))
    elif case == "after_finalize":
        bad = None
    elif case == "column_block":
        bad = LinearUpdate.column_block(0, rng.standard_normal((m, draw(st.integers(1, n)))))
    elif case == "rank_one_two_rows":
        u = np.zeros(m)
        u[draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))] = 1.0
        bad = LinearUpdate.rank_one(u, rng.standard_normal(n))
    else:  # repeated_row
        i = draw(st.integers(0, k - 1))
        bad = draw(st.sampled_from([
            LinearUpdate.rank_one(np.eye(m)[i], rng.standard_normal(n)),
            LinearUpdate.row_block(i, rng.standard_normal((m - i, n))),
        ]))
    return (m, n, s, d, l), seed, a, k, bad


@pytest.mark.parametrize("plan", list(PrecisionPlan), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
@settings(derandomize=True, deadline=None)
@given(data=st.data())
def test_invalid_update_raises_at_ingest_and_changes_nothing(kind, plan, data):
    rowwise = kind is PipelineKind.RSVD_ONEPASS
    sizes, seed, a, k, bad = data.draw(_invalid_case(rowwise))
    head, tail = LinearUpdate.row_block(0, a[:k]), LinearUpdate.row_block(k, a[k:])

    def stream():
        return open_stream(kind, *sizes, base_seed=seed, plan=plan).ingest(head)

    clean = stream().ingest(tail).finalize()
    st_ = stream()
    if bad is None:
        fin = st_.ingest(tail).finalize()
        with pytest.raises(RuntimeError, match="finalized"):
            st_.ingest(tail)
        for name in _SKETCH_NAMES:
            if getattr(fin, name) is not None:
                assert np.array_equal(getattr(fin, name).data, getattr(clean, name).data), name
        return
    with pytest.raises(ValueError):
        st_.ingest(bad)
    # The refused update left no trace: the rest of the pass gives the bytes
    # of a pass without it, and those match one-shot ingestion.
    got = st_.ingest(tail).finalize()
    one = open_stream(kind, *sizes, base_seed=seed, plan=plan)
    want = one.ingest(LinearUpdate.row_block(0, a) if rowwise else LinearUpdate.dense(a)).finalize()
    for name in _SKETCH_NAMES:
        g, c, w = getattr(got, name), getattr(clean, name), getattr(want, name)
        if w is None:
            continue
        assert np.array_equal(g.data, c.data), name
        eps = float(np.finfo(w.data.dtype).eps)
        ref = w.data.astype(np.float64)
        tol = (2 * eps + 1e3 * np.finfo(np.float64).eps) * max(np.linalg.norm(ref), 1e-300)
        assert np.linalg.norm(g.data.astype(np.float64) - ref) <= tol, name


# -- staged rank-one terms and column blocks ------------------------------------

_STAGED_KINDS = [k for k in PipelineKind if k is not PipelineKind.RSVD_ONEPASS]
_TEST_KINDS = [GAUSSIAN] + [TestMatrixKind(v, 0.3) for v in ("sparse_rademacher", "sparse_sign", "countsketch")]
_STAGE_SIZES = (12, 9, 2, 5, 4)  # staging widths k of 3 to 5 columns


def _term(rng, m, n, width):
    """A rank-one term (width 0) or a column block of that width at a random start."""
    if width == 0:
        return LinearUpdate.rank_one(rng.standard_normal(m), rng.standard_normal(n))
    return LinearUpdate.column_block(int(rng.integers(0, n - width + 1)), rng.standard_normal((m, width)))


def _staging_scenario(name, k, rng, m, n):
    """Updates of one staging scenario; widths are relative to the stream's k."""
    small = min(2, k)
    if name == "several_flushes":
        return [_term(rng, m, n, w) for w in [0, small, 0, k, 0, 0, small] * 3]
    if name == "wide_block":
        return [_term(rng, m, n, 0), _term(rng, m, n, k + 1), _term(rng, m, n, small), _term(rng, m, n, k + 1)]
    if name == "then_dense":
        return [_term(rng, m, n, 0), _term(rng, m, n, small), LinearUpdate.dense(rng.standard_normal((m, n))),
                _term(rng, m, n, 0)]
    if name == "then_row_block":
        return [_term(rng, m, n, small), _term(rng, m, n, 0), LinearUpdate.row_block(3, rng.standard_normal((4, n))),
                _term(rng, m, n, small)]
    return [_term(rng, m, n, 0)]  # pending_at_finalize


def _total(updates, m, n):
    total = np.zeros((m, n))
    for upd in updates:
        if upd.kind == "dense":
            total += upd.h
        elif upd.kind == "rank_one":
            total += np.outer(upd.u, upd.v)
        elif upd.kind == "row_block":
            total[upd.start : upd.start + upd.h.shape[0]] += upd.h
        else:
            total[:, upd.start : upd.start + upd.h.shape[1]] += upd.h
    return total


def _assert_matches_one_shot(got, kind, sizes, seed, plan, total, count, want=None, test_kind=GAUSSIAN):
    if want is None:
        want = open_stream(kind, *sizes, base_seed=seed, plan=plan, test_kind=test_kind)
        want = want.ingest(LinearUpdate.dense(total)).finalize()
    for name in _SKETCH_NAMES:
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None), name
        if g is None:
            continue
        assert g.data.dtype == w.data.dtype, name
        eps = float(np.finfo(w.data.dtype).eps)
        ref = w.data.astype(np.float64)
        tol = (count * eps + 1e3 * np.finfo(np.float64).eps) * max(np.linalg.norm(ref), 1e-300)
        assert np.linalg.norm(g.data.astype(np.float64) - ref) <= tol, name


def _assert_same_bytes(a, b):
    for name in _SKETCH_NAMES:
        if getattr(a, name) is not None:
            assert getattr(a, name).data.tobytes() == getattr(b, name).data.tobytes(), name


@pytest.mark.parametrize("scenario", ["several_flushes", "wide_block", "then_dense", "then_row_block",
                                      "pending_at_finalize"])
@pytest.mark.parametrize("plan", list(PrecisionPlan), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", _STAGED_KINDS, ids=lambda k: k.value)
def test_staged_updates_match_one_shot_ingestion(kind, plan, scenario):
    m, n = _STAGE_SIZES[:2]
    st_ = open_stream(kind, *_STAGE_SIZES, base_seed=5, plan=plan)
    k = st_._stage_cols
    assert 3 <= k < n
    updates = _staging_scenario(scenario, k, np.random.default_rng(17), m, n)
    if scenario == "several_flushes":
        assert sum(1 if u.kind == "rank_one" else u.h.shape[1] for u in updates) > 3 * k
    for upd in updates:
        st_.ingest(upd)
    got = st_.finalize()
    _assert_matches_one_shot(got, kind, _STAGE_SIZES, 5, plan, _total(updates, m, n), len(updates))


@pytest.mark.parametrize("test_kind", _TEST_KINDS[1:], ids=lambda k: k.variant)
@pytest.mark.parametrize("plan", list(PrecisionPlan), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", _STAGED_KINDS, ids=lambda k: k.value)
def test_staged_updates_with_sparse_test_matrices_match_one_shot(kind, plan, test_kind):
    m, n = _STAGE_SIZES[:2]
    st_ = open_stream(kind, *_STAGE_SIZES, base_seed=6, plan=plan, test_kind=test_kind)
    rng = np.random.default_rng(19)
    updates = [u for name in ("several_flushes", "wide_block", "then_row_block")
               for u in _staging_scenario(name, st_._stage_cols, rng, m, n)]
    for upd in updates:
        st_.ingest(upd)
    _assert_matches_one_shot(st_.finalize(), kind, _STAGE_SIZES, 6, plan, _total(updates, m, n), len(updates),
                             test_kind=test_kind)


@pytest.mark.parametrize("plan", list(PrecisionPlan), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", _STAGED_KINDS, ids=lambda k: k.value)
def test_staging_copies_the_callers_buffers(kind, plan):
    m, n = _STAGE_SIZES[:2]
    rng = np.random.default_rng(23)
    u, v, h = rng.standard_normal(m), rng.standard_normal(n), rng.standard_normal((m, 2))
    ref = open_stream(kind, *_STAGE_SIZES, base_seed=2, plan=plan)
    ref.ingest(LinearUpdate.rank_one(u.copy(), v.copy())).ingest(LinearUpdate.column_block(4, h.copy()))
    reused = open_stream(kind, *_STAGE_SIZES, base_seed=2, plan=plan)
    reused.ingest(LinearUpdate.rank_one(u, v)).ingest(LinearUpdate.column_block(4, h))
    u[:], v[:], h[:] = 1e3, -7.0, np.nan  # the caller reuses its buffers while both terms are pending
    _assert_same_bytes(reused.finalize(), ref.finalize())


@pytest.mark.parametrize("plan", list(PrecisionPlan), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", _STAGED_KINDS, ids=lambda k: k.value)
def test_refused_update_leaves_pending_terms_alone(kind, plan):
    m, n = _STAGE_SIZES[:2]
    rng = np.random.default_rng(31)
    head = [_term(rng, m, n, 0), _term(rng, m, n, 2)]
    tail = [_term(rng, m, n, 0), LinearUpdate.dense(rng.standard_normal((m, n))), _term(rng, m, n, 1)]
    nan_h = rng.standard_normal((m, n))
    nan_h[3, 4] = np.nan
    refused = [
        LinearUpdate.rank_one(nan_h[:, 4], rng.standard_normal(n)),
        LinearUpdate.column_block(2, nan_h[:, 2:5]),
        LinearUpdate.dense(nan_h),
        LinearUpdate.row_block(3, nan_h[3:5]),
        LinearUpdate.dense(np.ones((m, n + 1))),
        LinearUpdate.rank_one(np.ones(m + 1), np.ones(n)),
        LinearUpdate.column_block(n - 1, np.ones((m, 2))),
    ]

    def stream():
        st_ = open_stream(kind, *_STAGE_SIZES, base_seed=8, plan=plan)
        for upd in head:
            st_.ingest(upd)
        return st_

    clean = stream()
    for upd in tail:
        clean.ingest(upd)
    clean = clean.finalize()
    for bad in refused:
        st_ = stream()
        with pytest.raises(ValueError):
            st_.ingest(bad)
        for upd in tail:
            st_.ingest(upd)
        _assert_same_bytes(st_.finalize(), clean)
    _assert_matches_one_shot(clean, kind, _STAGE_SIZES, 8, plan, _total(head + tail, m, n), len(head + tail))


# -- staging memory ---------------------------------------------------------------


def _retained_bytes(action):
    """Bytes still allocated after ``action()`` that were not before it."""
    import tracemalloc

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        action()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", _STAGED_KINDS, ids=lambda k: k.value)
def test_dense_and_row_block_streams_allocate_no_staging_pair(kind):
    m, n, sizes = 2000, 200, (4, 10, 8)
    rng = np.random.default_rng(3)
    dense, block = LinearUpdate.dense(rng.standard_normal((m, n))), LinearUpdate.row_block(7, rng.standard_normal((90, n)))
    term = LinearUpdate.rank_one(rng.standard_normal(m), rng.standard_normal(n))
    plain, staged = open_stream(kind, m, n, *sizes), open_stream(kind, m, n, *sizes)
    pair_bytes = staged._stage_cols * (m + n) * 8
    assert pair_bytes >= 4 * (m + n) * 8
    assert _retained_bytes(lambda: plain.ingest(dense).ingest(block).ingest(dense)) < pair_bytes / 4
    assert _retained_bytes(lambda: staged.ingest(term)) >= pair_bytes
    assert plain._stage is None


@pytest.mark.parametrize("plan", list(PrecisionPlan), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", _STAGED_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("m, n, s, d, l", [(12, 9, 2, 5, 4), (9, 40, 1, 2, 2), (300, 7, 3, 4, 6), (1000, 1000, 24, 72, 96)])
def test_staging_pair_never_outgrows_the_sketches(kind, plan, m, n, s, d, l):
    st_ = open_stream(kind, m, n, s, d, l, plan=plan)
    entries = sum(a.size for a in st_._sk.values())
    assert st_._stage_cols == min(32, entries // (m + n)) >= 1
    st_.ingest(LinearUpdate.rank_one(np.ones(m), np.ones(n)))
    u, v = st_._stage
    assert u.shape == (m, st_._stage_cols) and v.shape == (n, st_._stage_cols)
    assert u.size + v.size <= entries
    st_.finalize()
    assert st_._stage is None  # a finalized stream holds no staging buffer


def test_staging_width_at_the_turnstile_sizes():
    mixed = PrecisionPlan.MIXED_SINGLE_DOUBLE
    assert open_stream(PipelineKind.TYUC17_SPI, 1000, 1000, 24, 72, 96, plan=mixed)._stage_cols == 32
    assert open_stream(PipelineKind.TYUC19, 1000, 1000, 24, 72)._stage_cols == 26


@pytest.mark.parametrize("plan", list(PrecisionPlan), ids=lambda p: p.value)
def test_rsvd_onepass_never_stages(plan):
    m, n = 12, 9
    rng = np.random.default_rng(41)
    st_ = open_stream(PipelineKind.RSVD_ONEPASS, m, n, 3, plan=plan)
    assert st_._stage_cols == 0
    st_.ingest(LinearUpdate.rank_one(np.eye(m)[5], rng.standard_normal(n)))
    assert st_._stage is None and np.any(st_._sk["y"][5])  # folded at once
    st_.ingest(LinearUpdate.row_block(0, rng.standard_normal((5, n))))
    assert st_._stage is None


# -- chunked row folds, binary32 payloads and sparse test matrices ----------------

_CHUNK_SIZES = (40, 9, 2, 5, 4)
_CHUNK_ROWS = 5  # rows per chunk once _CHUNK is lowered to 5 * n


def _row_updates(kind, a, split):
    """The whole of ``a`` as one dense update (a row block for a row-only
    stream) or, if ``split``, as row blocks [0, split) and [split, m)."""
    if split:
        return [LinearUpdate.row_block(0, a[:split]), LinearUpdate.row_block(split, a[split:])]
    return [LinearUpdate.row_block(0, a) if kind is PipelineKind.RSVD_ONEPASS else LinearUpdate.dense(a)]


def _ingested(kind, plan, test_kind, updates, seed=3):
    st_ = open_stream(kind, *_CHUNK_SIZES, base_seed=seed, plan=plan, test_kind=test_kind)
    for upd in updates:
        st_.ingest(upd)
    return st_.finalize()


def test_add_in_place_matches_the_old_formula():
    st_ = open_stream(PipelineKind.TYUC17_SPI, 30, 20, 3, 7, 6, plan=PrecisionPlan.MIXED_SINGLE_DOUBLE)
    rng = np.random.default_rng(5)
    st_._sk["z"][:] = rng.standard_normal((30, 6)).astype(np.float32)
    for sl in (slice(None), slice(4, 17), (slice(None), slice(1, 4))):
        before = st_._sk["z"][sl].copy()
        inc = rng.standard_normal(before.shape)  # as large as the sketch: a second rounding would show
        kept = inc.copy()
        st_._add("z", sl, inc)
        assert st_._sk["z"][sl].tobytes() == (before.astype(np.float64) + inc).astype(np.float32).tobytes()
        assert inc.tobytes() == kept.tobytes()  # a gram sketch may still read it


@pytest.mark.parametrize("test_kind", _TEST_KINDS, ids=lambda k: k.variant)
@pytest.mark.parametrize("plan", list(PrecisionPlan), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
def test_multi_chunk_updates_match_one_shot_ingestion(kind, plan, test_kind, monkeypatch):
    m, n = _CHUNK_SIZES[:2]
    a = np.random.default_rng(11).standard_normal((m, n))
    want = _ingested(kind, plan, test_kind, _row_updates(kind, a, 0))  # one chunk: the direct path
    monkeypatch.setattr(stream_ingest, "_CHUNK", _CHUNK_ROWS * n)
    for split in (0, 33):  # 8 chunks; then blocks of 7 and 2 chunks, each ending in a partial chunk
        updates = _row_updates(kind, a, split)
        _assert_matches_one_shot(_ingested(kind, plan, test_kind, updates), kind, _CHUNK_SIZES, 3, plan,
                                 a, m // _CHUNK_ROWS, want=want)


@pytest.mark.parametrize("test_kind", _TEST_KINDS, ids=lambda k: k.variant)
@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
def test_binary32_sketches_are_rounded_once_per_update(kind, test_kind, monkeypatch):
    """A fresh mixed-plan stream holds the binary64 increments of the same
    update rounded once: the all-binary64 stream's sketches, rounded."""
    m, n = _CHUNK_SIZES[:2]
    monkeypatch.setattr(stream_ingest, "_CHUNK", _CHUNK_ROWS * n)
    updates = _row_updates(kind, np.random.default_rng(12).standard_normal((m, n)), 0)
    mixed = _ingested(kind, PrecisionPlan.MIXED_SINGLE_DOUBLE, test_kind, updates)
    double = _ingested(kind, PrecisionPlan.ALL_DOUBLE, test_kind, updates)
    for name in _SKETCH_NAMES:
        got = getattr(mixed, name)
        if got is not None:
            assert got.data.tobytes() == getattr(double, name).data.astype(got.data.dtype).tobytes(), name


@pytest.mark.parametrize("test_kind", _TEST_KINDS, ids=lambda k: k.variant)
@pytest.mark.parametrize("plan", list(PrecisionPlan), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
def test_binary32_row_block_gives_the_bytes_of_its_upcast(kind, plan, test_kind, monkeypatch):
    m, n = _CHUNK_SIZES[:2]
    monkeypatch.setattr(stream_ingest, "_CHUNK", _CHUNK_ROWS * n)
    a = np.random.default_rng(13).standard_normal((m, n)).astype(np.float32)
    kept = LinearUpdate.row_block(3, a[3:31])
    assert kept.h.dtype == np.float32
    got = _ingested(kind, plan, test_kind, [LinearUpdate.row_block(0, a[:3]), kept, LinearUpdate.row_block(31, a[31:])])
    want = _ingested(kind, plan, test_kind, [LinearUpdate.row_block(0, a[:3].astype(np.float64)),
                                             LinearUpdate.row_block(3, a[3:31].astype(np.float64)),
                                             LinearUpdate.row_block(31, a[31:].astype(np.float64))])
    _assert_same_bytes(got, want)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
@pytest.mark.parametrize("test_kind", _TEST_KINDS, ids=lambda k: k.variant)
@pytest.mark.parametrize("plan", list(PrecisionPlan), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
def test_refused_multi_chunk_row_block_changes_nothing(kind, plan, test_kind, value, monkeypatch):
    m, n = _CHUNK_SIZES[:2]
    monkeypatch.setattr(stream_ingest, "_CHUNK", _CHUNK_ROWS * n)
    a = np.random.default_rng(14).standard_normal((m, n))
    bad = a[4:40].astype(np.float32)
    bad[-1, 2] = value  # in the last of the block's 8 chunks
    st_ = open_stream(kind, *_CHUNK_SIZES, base_seed=3, plan=plan, test_kind=test_kind)
    st_.ingest(LinearUpdate.row_block(0, a[:4]))
    before = {name: arr.tobytes() for name, arr in st_._sk.items()}
    with pytest.raises(ValueError, match=r"non-finite entries in row_block update of rows \[4, 40\)"):
        st_.ingest(LinearUpdate.row_block(4, bad))
    assert {name: arr.tobytes() for name, arr in st_._sk.items()} == before
    got = st_.ingest(LinearUpdate.row_block(4, a[4:])).finalize()
    _assert_same_bytes(got, _ingested(kind, plan, test_kind, [LinearUpdate.row_block(0, a[:4]),
                                                              LinearUpdate.row_block(4, a[4:])]))


@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
def test_sparse_test_matrices_stay_sparse_on_the_m_side(kind):
    """A sparse-kind test matrix with m columns is the drawn CSC array in the
    sketch set; one on the n side is dense.  Both are read-only."""
    test_kind = TestMatrixKind("sparse_sign", 0.2)
    st_ = open_stream(kind, 30, 20, 3, 5, 7, base_seed=8, test_kind=test_kind)
    sk = st_.ingest(LinearUpdate.row_block(0, np.ones((30, 20)))).finalize()
    for name, (_, cols) in PIPELINES[kind.value].test_matrices:
        mat = getattr(sk, name)
        seed = SeedSpec(8, Stream[name.upper()], 0)
        if cols == "m":
            want = generate(test_kind, *mat.shape, seed)
            assert isinstance(mat, scipy.sparse.csc_array) and mat.shape[1] == 30, name
            for got, ref in ((mat.data, want.data), (mat.indices, want.indices), (mat.indptr, want.indptr)):
                assert not got.flags.writeable and got.tobytes() == ref.tobytes(), name
        else:
            want = generate(test_kind, *mat.shape, seed).toarray()
            assert isinstance(mat, np.ndarray) and not mat.flags.writeable, name
            assert mat.tobytes() == want.tobytes(), name


# -- file ingestion of binary32 SPIM ----------------------------------------------


def _piece_rows(path):
    """The rows of each piece the reader yields for a file."""
    with contextlib.closing(stream_ingest._row_pieces(path)) as pieces:
        next(pieces)
        return [piece.shape[0] for piece in pieces]


@pytest.mark.parametrize("test_kind", _TEST_KINDS[:2], ids=lambda k: k.variant)
@pytest.mark.parametrize("plan", list(PrecisionPlan), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
def test_file_blocks_read_in_pieces_give_the_bytes_of_whole_blocks(tmp_path, kind, plan, test_kind, monkeypatch):
    """A binary32 file is one row block; read in several pieces, the last
    one partial, it gives the sketches the bytes of folding all its rows
    as one row block held in memory."""
    m, n, sizes = 132, 9, (2, 5, 4)
    a = np.random.default_rng(23).standard_normal((m, n)).astype(np.float32)
    path = tmp_path / "a32.spim"
    write_spim(path, a)
    monkeypatch.setattr(stream_ingest, "_CHUNK", _CHUNK_ROWS * n)
    piece = stream_ingest._PIECE_CHUNKS * _CHUNK_ROWS
    assert _piece_rows(path) == [piece, piece, piece, 12]
    want = open_stream(kind, m, n, *sizes, base_seed=9, plan=plan, test_kind=test_kind)
    want.ingest(LinearUpdate.row_block(0, a))
    got = ingest_file(path, kind, *sizes, base_seed=9, plan=plan, test_kind=test_kind)
    _assert_same_bytes(got, want.finalize())


@pytest.mark.parametrize("test_kind", [GAUSSIAN, SPARSE_RADEMACHER], ids=lambda k: k.variant)
def test_file_ingest_peak_does_not_grow_with_the_block(tmp_path, test_kind, monkeypatch):
    """Above the sketch set it returns, ingest_file's tracemalloc peak is the
    same for files (each one row block) of 4,096 and 32,768 rows: the read
    holds one piece."""
    import tracemalloc

    n, chunk_rows = 64, 16
    monkeypatch.setattr(stream_ingest, "_CHUNK", chunk_rows * n)
    excess = []
    for m in (4096, 32768):
        path = tmp_path / f"tall32-{m}.spim"
        write_spim(path, np.random.default_rng(24).standard_normal((m, n)).astype(np.float32))
        tracemalloc.start()
        try:
            sk = ingest_file(path, PipelineKind.TYUC17_SPI, 4, 10, 12, plan=PrecisionPlan.MIXED_SINGLE_DOUBLE,
                             test_kind=test_kind)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sk.pass_count == 1
        excess.append(peak - held)
    piece32 = stream_ingest._PIECE_CHUNKS * chunk_rows * n * 4
    assert abs(excess[1] - excess[0]) < piece32 / 8


def test_read_matrix_of_binary32_spim_is_binary64(tmp_path):
    a = np.random.default_rng(21).standard_normal((37, 11)).astype(np.float32)
    path = tmp_path / "a32.spim"
    write_spim(path, a)
    got = read_matrix(path)
    assert got.dtype == np.float64
    assert got.tobytes() == a.astype(np.float64).tobytes()


def test_ingest_file_makes_no_binary64_copy_of_a_block(tmp_path):
    import tracemalloc

    n, piece_rows = 64, stream_ingest._PIECE_CHUNKS * stream_ingest._CHUNK // 64
    a = np.random.default_rng(22).standard_normal((2 * piece_rows, n)).astype(np.float32)  # two pieces
    path = tmp_path / "tall32.spim"
    write_spim(path, a)
    piece32 = piece_rows * n * 4
    piece64 = 2 * piece32
    del a
    tracemalloc.start()
    try:
        sk = ingest_file(path, PipelineKind.TYUC17, s=2, d=3, test_kind=SPARSE_RADEMACHER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sk.pass_count == 1
    assert peak < piece32 + piece64 / 2
