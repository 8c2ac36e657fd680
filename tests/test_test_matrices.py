import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchpower import test_matrices
from sketchpower.stream_ingest import LinearUpdate, PipelineKind, open_stream
from sketchpower.test_matrices import (
    GAUSSIAN,
    SeedSpec,
    Stream,
    TestMatrixKind,
    _drawn_once,
    generate,
    stream_seed,
)


def test_reproducibility_bit_identical():
    spec = SeedSpec(123, Stream.OMEGA, 4)
    a = generate(GAUSSIAN, 40, 7, spec)
    b = generate(GAUSSIAN, 40, 7, spec)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = generate(GAUSSIAN, 20, 5, SeedSpec(1, Stream.OMEGA, 0))
    b = generate(GAUSSIAN, 20, 5, SeedSpec(1, Stream.PHI, 0))
    c = generate(GAUSSIAN, 20, 5, SeedSpec(1, Stream.OMEGA, 1))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from(list(Stream)),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=200, deadline=None)
def test_stream_seed_is_pure_and_64_bit(base, tag, trial):
    a = stream_seed(SeedSpec(base, tag, trial))
    assert a == stream_seed(SeedSpec(base, tag, trial))
    assert 0 <= a < 2**64


def test_sparse_rademacher_full_density():
    m = generate(TestMatrixKind("sparse_rademacher", 1.0), 4, 4, SeedSpec(0, Stream.PHI, 0)).toarray()
    assert np.all(np.abs(m) == 1.0)


def test_sparse_rademacher_exact_count():
    kind = TestMatrixKind("sparse_rademacher", 0.01)
    m = generate(kind, 200, 50, SeedSpec(5, Stream.PHI, 1)).toarray()
    nnz = np.count_nonzero(m)
    assert nnz == round(200 * 50 * 0.01)
    vals = m[m != 0]
    assert set(np.unique(vals)) <= {-1.0, 1.0}


def test_sparse_rademacher_zero_nnz_rejected():
    with pytest.raises(ValueError):
        generate(TestMatrixKind("sparse_rademacher", 0.001), 10, 10, SeedSpec(0, Stream.PHI, 0))


def test_gaussian_moments():
    m = generate(GAUSSIAN, 1000, 50, SeedSpec(7, Stream.OMEGA, 0))
    assert -0.02 <= m.mean() <= 0.02
    assert 0.97 <= m.var() <= 1.03


def test_countsketch_structure():
    m = generate(TestMatrixKind("countsketch"), 10, 5, SeedSpec(2, Stream.PSI, 0)).toarray()
    assert np.count_nonzero(m) == 5
    assert np.all(np.count_nonzero(m, axis=0) == 1)
    assert set(np.unique(m[m != 0])) <= {-1.0, 1.0}


def test_sparse_sign_rate():
    kind = TestMatrixKind("sparse_sign", 0.1)
    m = generate(kind, 400, 100, SeedSpec(3, Stream.PHI, 0)).toarray()
    rate = np.count_nonzero(m) / m.size
    assert abs(rate - 0.1) < 0.01


def test_sparse_sign_draw_without_nonzeros_rejected():
    with pytest.raises(ValueError, match="sparsity 1e-09 drew zero nonzeros for a 50x5 sparse_sign matrix"):
        generate(TestMatrixKind("sparse_sign", 1e-9), 50, 5, SeedSpec(0, Stream.PSI, 0))


def test_cross_stream_independence():
    # Entries of Omega^T Phi are inner products of independent unit-variance
    # vectors; their normalized empirical mean should be near zero.
    n = 500
    omega = generate(GAUSSIAN, n, 50, SeedSpec(11, Stream.OMEGA, 0))
    phi = generate(GAUSSIAN, n, 50, SeedSpec(11, Stream.PHI, 0))
    corr = (omega.T @ phi) / np.sqrt(n)
    assert abs(corr.mean()) <= 0.05


def test_bad_variant_and_dims():
    with pytest.raises(ValueError):
        TestMatrixKind("fourier")
    with pytest.raises(ValueError):
        TestMatrixKind("sparse_sign", 0.0)
    with pytest.raises(ValueError):
        generate(GAUSSIAN, 0, 4, SeedSpec(0, Stream.OMEGA, 0))


# sha256 prefixes of the entries of generate(TestMatrixKind(variant, 0.1), 30, 20,
# SeedSpec(9, Stream.PSI, 2)) (``toarray()`` of a sparse kind), recorded from the
# dense-only generator (numpy 2.4 PCG64 streams): the sparse form must not
# change a draw.
_DRAW_DIGESTS = {
    "gaussian": "a67a759bbc491799",
    "sparse_rademacher": "223ab79d78134f00",
    "sparse_sign": "c882dca9c5b23e34",
    "countsketch": "c2fbd7af23ea215d",
}


@pytest.mark.parametrize("variant", sorted(_DRAW_DIGESTS))
def test_draws_are_unchanged(variant):
    import hashlib

    a = generate(TestMatrixKind(variant, 0.1), 30, 20, SeedSpec(9, Stream.PSI, 2))
    a = a if variant == "gaussian" else a.toarray()
    assert hashlib.sha256(a.tobytes()).hexdigest()[:16] == _DRAW_DIGESTS[variant]


@pytest.mark.parametrize("variant", ["sparse_rademacher", "sparse_sign", "countsketch"])
@pytest.mark.parametrize("rows, cols", [(30, 200), (200, 30), (1, 7)])
def test_sparse_form_holds_the_same_entries(variant, rows, cols):
    """A sparse kind comes as a CSC array that stores each nonzero entry
    once, each +-1."""
    sparse = generate(TestMatrixKind(variant, 0.1), rows, cols, SeedSpec(4, Stream.PSI, 1))
    assert sparse.format == "csc" and sparse.shape == (rows, cols)
    assert sparse.has_canonical_format
    assert sparse.nnz == np.count_nonzero(sparse.toarray())
    assert set(np.unique(sparse.data)) <= {-1.0, 1.0}


def test_drawn_once_serves_prefix_views_with_the_bits_of_fresh_draws():
    """Inside the scope a Gaussian matrix of a drawn stream is a read-only
    view of the shared draw when it fits in it, with the bits of a fresh
    draw; a larger one, another stream and a sparse kind are drawn afresh."""
    seed, other = SeedSpec(3, Stream.OMEGA, 2), SeedSpec(3, Stream.PSI, 2)
    sparse = TestMatrixKind("sparse_sign", 0.2)
    shapes = [(40, 7), (7, 40), (1, 1), (20, 14), (1, 280), (40, 8), (281, 1)]
    fresh = {shape: generate(GAUSSIAN, *shape, seed) for shape in shapes}
    fresh_other = generate(GAUSSIAN, 9, 9, other)
    fresh_sparse = generate(sparse, 40, 7, seed)
    with _drawn_once({seed: 280}):
        for shape, want in fresh.items():
            got = generate(GAUSSIAN, *shape, seed)
            shared = shape[0] * shape[1] <= 280
            assert got.tobytes() == want.tobytes(), shape
            assert np.shares_memory(got, test_matrices._drawn[seed]) is shared, shape
            assert got.flags.writeable is not shared, shape
        assert generate(GAUSSIAN, 9, 9, other).tobytes() == fresh_other.tobytes()
        assert generate(sparse, 40, 7, seed).toarray().tobytes() == fresh_sparse.toarray().tobytes()
    assert test_matrices._drawn == {}


def test_drawn_once_drops_its_draws_when_the_scope_raises():
    seed = SeedSpec(3, Stream.PHI, 0)
    with pytest.raises(RuntimeError, match="inside"):
        with _drawn_once({seed: 50}):
            held = weakref.ref(test_matrices._drawn[seed])
            raise RuntimeError("inside")
    assert test_matrices._drawn == {} and held() is None


def test_shared_test_matrices_are_read_only_in_the_stream_and_the_sketch_set():
    """A stream opened in the scope holds read-only views, and its sketch set
    the same bits, read-only, as a stream opened outside it."""
    kind, a = PipelineKind.TYUC17_SPI, np.random.default_rng(1).standard_normal((30, 20))
    names = ("omega", "psi", "phi")

    def sketch_set():
        st_ = open_stream(kind, 30, 20, 3, 5, 7, base_seed=5)
        return st_, st_.ingest(LinearUpdate.row_block(0, a)).finalize()

    _, outside = sketch_set()
    with _drawn_once({SeedSpec(5, Stream[name.upper()], 0): 300 for name in names}):
        st_, inside = sketch_set()
        for name in names:
            assert not st_._t[name].flags.writeable, name
            assert np.shares_memory(st_._t[name], test_matrices._drawn[SeedSpec(5, Stream[name.upper()], 0)])
    for name in names:
        for sk in (outside, inside):
            assert not getattr(sk, name).flags.writeable, name
        assert getattr(inside, name).tobytes() == getattr(outside, name).tobytes(), name
    assert inside.y.data.tobytes() == outside.y.data.tobytes()
