"""One-pass randomized low-rank approximation with sketch-power iteration.

The rangefinder sketch of a streamed matrix is powered through a second,
wider sketch -- mimicking subspace power iteration without revisiting the
data -- and the resulting basis feeds the usual one-pass reconstruction
pipelines.  Includes a-priori sketch-size guidance from a storage budget, a
mixed-precision storage model with exact word accounting, synthetic data
generators with prescribed spectra, error metrics and bound evaluators, and
a benchmark CLI.
"""

from .matrix_core import DenseMatrix, Precision, lstsq, qr_economy, svd_truncated
from .precision_model import PrecisionPlan, StorageLedger, plan_mixed
from .spi import SpiParams, spi_plain, spi_stabilized, spi_variant
from .stream_ingest import (
    LinearUpdate,
    PipelineKind,
    SketchSet,
    SketchStream,
    ingest_file,
    open_stream,
)
from .approximators import (
    ApproxResult,
    approximate,
    rsvd_onepass,
    tyuc17,
    tyuc17_spi,
    tyuc17_spi_variant,
    tyuc19,
    tyuc19_spi,
)
from .guidance import DecayKind, SpectrumClass, budget_sizes, classify_spectrum
from .test_matrices import SeedSpec, Stream, TestMatrixKind, generate

__version__ = "0.1.0"

__all__ = [
    "DenseMatrix",
    "Precision",
    "qr_economy",
    "svd_truncated",
    "lstsq",
    "PrecisionPlan",
    "StorageLedger",
    "plan_mixed",
    "SpiParams",
    "spi_plain",
    "spi_stabilized",
    "spi_variant",
    "LinearUpdate",
    "PipelineKind",
    "SketchSet",
    "SketchStream",
    "open_stream",
    "ingest_file",
    "ApproxResult",
    "approximate",
    "tyuc17",
    "tyuc17_spi",
    "tyuc17_spi_variant",
    "rsvd_onepass",
    "tyuc19",
    "tyuc19_spi",
    "DecayKind",
    "SpectrumClass",
    "classify_spectrum",
    "budget_sizes",
    "SeedSpec",
    "Stream",
    "TestMatrixKind",
    "generate",
    "__version__",
]
