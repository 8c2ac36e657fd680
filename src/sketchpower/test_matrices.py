"""Seeded generators for random test matrices.

Every random draw in the library derives from a :class:`SeedSpec`: a 64-bit
base seed, a stream tag naming the role of the matrix, and a trial index.
The effective stream seed is a frozen mixing function of the triple (see
:func:`stream_seed`), so identical triples give bit-identical matrices across
runs and thread schedules, and distinct triples give statistically
independent streams.

Gaussian entries are drawn with numpy's PCG64 generator (ziggurat normal
transform); ports to other languages can match the distributions, though not
the bit streams.  A Gaussian matrix is drawn row-major from its stream, so a
rows x cols draw is the first rows*cols numbers of any longer draw of the
same stream, bit for bit; :func:`_drawn_once` lets callers that need many
sizes of one stream (the oracle sweep's grid points) share one draw.
"""
from __future__ import annotations

import contextlib
import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse

__all__ = [
    "Stream",
    "SeedSpec",
    "TestMatrixKind",
    "stream_seed",
    "rng_for",
    "generate",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One step of the SplitMix64 output mixer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Stream(enum.Enum):
    """Role tag of a random stream; one independent stream per tag."""

    OMEGA = 1          # rangefinder test matrix
    PSI = 2            # corange / right test matrix
    PHI = 3            # power-iteration sketch test matrix
    OMEGA_TILDE = 4    # small right factor of the storage-reduced variants
    GAMMA = 5          # corange test matrix of the two-sided pipelines
    GAMMA_TILDE = 6    # small left factor of the storage-reduced variants
    # Data-generation streams (synthetic module plumbing).
    DATA_LEFT = 7
    DATA_RIGHT = 8
    DATA_NOISE = 9


@dataclass(frozen=True)
class SeedSpec:
    """(base_seed, stream tag, trial index) naming one random stream."""

    base_seed: int
    stream: Stream
    trial: int = 0


def stream_seed(spec: SeedSpec) -> int:
    """The frozen 64-bit mixer: fold stream tag and trial into the base seed.

    ``h = base; h = splitmix64(h ^ splitmix64(tag)); h = splitmix64(h ^ splitmix64(trial))``
    This definition is part of the output contract (CSV replayability) and
    must not change.
    """
    h = spec.base_seed & _MASK64
    for word in (spec.stream.value, spec.trial):
        h = _splitmix64(h ^ _splitmix64(word & _MASK64))
    return h


def rng_for(spec: SeedSpec) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(stream_seed(spec)))


@dataclass(frozen=True)
class TestMatrixKind:
    """Distribution of a test matrix.

    variant:
        ``gaussian``          i.i.d. standard normal entries.
        ``sparse_rademacher`` exactly round(rows*cols*sparsity) nonzeros placed
                              uniformly without replacement, each +-1.
        ``sparse_sign``       each entry independently +1 w.p. sparsity/2,
                              -1 w.p. sparsity/2, 0 otherwise.
        ``countsketch``       one +-1 per column at a uniform random row.
    """

    __test__ = False  # not a test case, despite the name

    variant: str = "gaussian"
    sparsity: float = 0.01

    def __post_init__(self):
        if self.variant not in ("gaussian", "sparse_rademacher", "sparse_sign", "countsketch"):
            raise ValueError(f"unknown test-matrix variant {self.variant!r}")
        if self.variant in ("sparse_rademacher", "sparse_sign"):
            if not (0.0 < self.sparsity <= 1.0):
                raise ValueError(f"sparsity must be in (0, 1], got {self.sparsity}")


GAUSSIAN = TestMatrixKind("gaussian")
SPARSE_RADEMACHER = TestMatrixKind("sparse_rademacher", 0.01)

# The flat, read-only Gaussian draws of the open :func:`_drawn_once` scope,
# by seed; empty outside it.
_drawn: dict[SeedSpec, np.ndarray] = {}


@contextlib.contextmanager
def _drawn_once(counts: dict[SeedSpec, int]):
    """Draw ``counts[seed]`` Gaussian numbers from each stream once, for
    :func:`generate` to serve while the scope is open.

    Inside the scope a Gaussian test matrix of one of these seeds, of at
    most that many entries, is a read-only view of the first rows*cols
    numbers, which are the bits a fresh draw would give; a larger one is
    drawn afresh.  The draws are dropped when the scope closes, also when it
    raises.  A forked child inherits an open scope.
    """
    try:
        for seed, count in counts.items():
            _drawn[seed] = draw = rng_for(seed).standard_normal(count)
            draw.flags.writeable = False
        yield
    finally:
        _drawn.clear()


def generate(
    kind: TestMatrixKind, rows: int, cols: int, seed: SeedSpec, *, sparse: bool = False
) -> np.ndarray | scipy.sparse.csc_array:
    """Draw a rows x cols test matrix of the given kind, deterministically.

    Sparse kinds are sampled as coordinate lists.  By default every kind is
    returned as a C-ordered binary64 ndarray (read-only if it is a view of a
    :func:`_drawn_once` draw); with ``sparse=True`` a sparse kind
    is returned as a ``scipy.sparse.csc_array`` of the same entries, built
    from the coordinates without materializing the dense matrix (the draws
    do not depend on ``sparse``).  Stream ingestion applies that form with
    sparse products, and the finalized sketch set keeps it for a test
    matrix with m columns; the storage ledger counts no test matrix.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"test matrix dimensions must be >= 1, got {rows}x{cols}")
    if sparse and kind.variant == "gaussian":
        raise ValueError("gaussian test matrices have no sparse form")
    if kind.variant == "gaussian":
        drawn = _drawn.get(seed)
        if drawn is not None and drawn.size >= rows * cols:
            return drawn[: rows * cols].reshape(rows, cols)
        return rng_for(seed).standard_normal((rows, cols))
    rng = rng_for(seed)
    if kind.variant == "sparse_rademacher":
        total = rows * cols
        nnz = int(round(total * kind.sparsity))
        if nnz < 1:
            raise ValueError(
                f"sparsity {kind.sparsity} gives zero nonzeros for a {rows}x{cols} matrix"
            )
        flat_idx = rng.choice(total, size=nnz, replace=False)
        vals = rng.integers(0, 2, size=nnz) * 2.0 - 1.0
        i, j = np.divmod(flat_idx, cols)
    elif kind.variant == "sparse_sign":
        u = rng.random((rows, cols))
        signs = rng.integers(0, 2, size=(rows, cols)) * 2.0 - 1.0
        i, j = np.nonzero(u < kind.sparsity)
        vals = signs[i, j]
    else:  # countsketch
        i = rng.integers(0, rows, size=cols)
        vals = rng.integers(0, 2, size=cols) * 2.0 - 1.0
        j = np.arange(cols)
    if sparse:
        return scipy.sparse.csc_array((vals, (i, j)), shape=(rows, cols))
    a = np.zeros((rows, cols))
    a[i, j] = vals
    return a
