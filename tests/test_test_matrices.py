import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchpower import test_matrices
from sketchpower.test_matrices import (
    GAUSSIAN,
    SeedSpec,
    Stream,
    TestMatrixKind,
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


def test_gaussian_draw_is_the_prefix_of_every_longer_draw_of_its_stream():
    """A Gaussian matrix is drawn row-major: it has the bits of the first
    rows of a draw with more rows, and of the first rows*cols numbers of
    its stream, which the oracle sweep shares between its grid points."""
    seed = SeedSpec(3, Stream.OMEGA, 2)
    flat = test_matrices.rng_for(seed).standard_normal(400)
    for rows, cols in [(40, 7), (7, 40), (1, 1), (20, 14), (1, 280), (40, 10)]:
        got = generate(GAUSSIAN, rows, cols, seed)
        assert got.tobytes() == generate(GAUSSIAN, rows + 3, cols, seed)[:rows].tobytes()
        assert got.tobytes() == flat[: rows * cols].tobytes()
