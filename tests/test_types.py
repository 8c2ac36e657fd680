"""The types each layer hands over.

Data matrices, files and test matrices are plain ndarrays (a sparse test
matrix with m columns a CSC array); a finalized sketch is a
:class:`DenseMatrix` record of its read-only array and nothing more.
"""
import dataclasses
import hashlib

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from sketchpower import synthetic, test_matrices
from sketchpower.matrix_core import DenseMatrix, Precision
from sketchpower.precision_model import PIPELINES, PrecisionPlan
from sketchpower.stream_ingest import LinearUpdate, PipelineKind, open_stream, read_matrix
from sketchpower.test_matrices import GAUSSIAN, SeedSpec, Stream, TestMatrixKind

# The five sketches stay records only because perfbench/tracer.py
# (``Tracer._wrap_finalize``) reads ``.data.size`` and ``.data.dtype`` of
# them, and on an ndarray ``.data`` is a memoryview with neither.
_SKETCHES = ("y", "w", "z", "x", "k")
_TEST_MATRICES = ("omega", "psi", "phi", "gamma")
_SPARSE = TestMatrixKind("sparse_sign", 0.3)


def _is_plain(a) -> bool:
    return type(a) is np.ndarray and a.dtype == np.float64 and a.flags.c_contiguous


@pytest.mark.parametrize("test_kind", [GAUSSIAN, _SPARSE], ids=lambda k: k.variant)
@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
def test_sketch_set_holds_sketch_records_and_plain_test_matrices(kind, test_kind):
    spec = PIPELINES[kind.value]
    st = open_stream(kind, 30, 20, 3, 5, 7, base_seed=2, test_kind=test_kind, plan=PrecisionPlan.MIXED_SINGLE_DOUBLE)
    sk = st.ingest(LinearUpdate.row_block(0, np.random.default_rng(3).standard_normal((30, 20)))).finalize()
    sketches = {s.name for s in spec.sketches}
    for name in _SKETCHES:
        value = getattr(sk, name)
        if name not in sketches:
            assert value is None, name
            continue
        assert type(value) is DenseMatrix and [f.name for f in dataclasses.fields(value)] == ["data"], name
        assert type(value.data) is np.ndarray and value.data.flags.c_contiguous, name
        assert not value.data.flags.writeable, name
    tests = dict(spec.test_matrices)
    for name in _TEST_MATRICES:
        value = getattr(sk, name)
        if name not in tests:
            assert value is None, name
            continue
        if test_kind is _SPARSE and tests[name][1] == "m":
            assert type(value) is scipy.sparse.csc_array, name
            arrays = (value.data, value.indices, value.indptr)
        else:
            assert _is_plain(value), name
            arrays = (value,)
        assert not any(a.flags.writeable for a in arrays), name


def test_data_files_and_test_matrices_are_ndarrays(tmp_path):
    a, factors = synthetic.generate(synthetic.SyntheticSpec(synthetic.Family.POLY_DECAY, 12, 9, plateau=3))
    assert _is_plain(a) and factors is not None
    noisy, none = synthetic.generate(synthetic.SyntheticSpec(synthetic.Family.LOWRANK_NOISE, 12, 9, plateau=3))
    assert _is_plain(noisy) and none is None

    spim, mtx = tmp_path / "a.spim", tmp_path / "a.mtx"
    synthetic.write_spim(spim, a, Precision.BINARY32)
    scipy.io.mmwrite(mtx, a)
    for path in (spim, mtx):
        assert _is_plain(read_matrix(path)), path

    seed = SeedSpec(4, Stream.PSI, 1)
    for variant in ("gaussian", "sparse_rademacher", "sparse_sign", "countsketch"):
        kind = TestMatrixKind(variant, 0.3)
        assert _is_plain(test_matrices.generate(kind, 6, 4, seed)), variant
        if variant != "gaussian":
            assert type(test_matrices.generate(kind, 6, 4, seed, sparse=True)) is scipy.sparse.csc_array, variant


@pytest.mark.parametrize("bad, problem", [
    (np.ones(4), "expected a 2-d array, got ndim=1"),
    (np.zeros((0, 3)), r"matrix dimensions must be >= 1, got \(0, 3\)"),
    (np.zeros((3, 0)), r"matrix dimensions must be >= 1, got \(3, 0\)"),
])
def test_write_spim_refuses_what_is_not_a_matrix(tmp_path, bad, problem):
    path = tmp_path / "bad.spim"
    with pytest.raises(ValueError, match=problem):
        synthetic.write_spim(path, bad)
    assert not path.exists()


# sha256 prefixes of the files write_spim wrote when it took a DenseMatrix
# (``DenseMatrix.from_array(a)``, which cast a non-float array to binary64).
_SPIM_DIGESTS = {
    ("binary64", None): "0d1249772868bbcc",
    ("binary64", Precision.BINARY32): "4cbb62478bebf39e",
    ("binary64", Precision.BINARY64): "0d1249772868bbcc",
    ("binary32", None): "4cbb62478bebf39e",
    ("binary32", Precision.BINARY32): "4cbb62478bebf39e",
    ("binary32", Precision.BINARY64): "39f312d5b4f2d5d0",
    ("int", None): "bad5fe534e30e539",
    ("int", Precision.BINARY32): "202e503afe8f1e54",
    ("int", Precision.BINARY64): "bad5fe534e30e539",
}


@pytest.mark.parametrize("dtype, precision", sorted(_SPIM_DIGESTS, key=str), ids=str)
def test_write_spim_writes_the_bytes_it_always_has(tmp_path, dtype, precision):
    a64 = np.random.default_rng(7).standard_normal((5, 3))
    a = {"binary64": a64, "binary32": a64.astype(np.float32), "int": np.arange(15).reshape(5, 3)}[dtype]
    path = tmp_path / "a.spim"
    synthetic.write_spim(path, a, precision)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == _SPIM_DIGESTS[(dtype, precision)]
