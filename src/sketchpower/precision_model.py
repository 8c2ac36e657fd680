"""The pipeline table, the mixed-precision storage plans and an exact storage ledger.

:data:`PIPELINES` holds one :class:`PipelineSpec` per pipeline kind: its
sketches with their shapes and update rules, its test matrices, which
sketches are binary32 under the mixed plan, its size rules, the steps of its
mixed-plan finish and its default plan.  Stream allocation, ingestion, the
ledger, every size check and :func:`guidance.budget_sizes` read this one
table; each kind's finisher is the function of its name in
:mod:`approximators`.

Storage is counted in double-precision words (a binary32 entry costs half a
word).  Under the mixed plan the large sketches are held in binary32, which
doubles the affordable sketch sizes under a fixed word budget; they are
upcast to binary64 right before orthonormalization and the solves, reusing
the space of the sketch that is no longer needed.  Each kind declares that
finish as steps (``new``, ``free``, ``up``), and :func:`simulate_storage`
replays them, checking each reuse against a pool of freed words.  The ledger
proves the space reuse is feasible.  The finishers do not alias bytes: they
leave the finalized sketches intact and allocate fresh buffers, but no
binary64 copy of Z (it is read one row chunk at a time, see :mod:`spi`) and
no dense copy of a sparse test matrix, so what they add to the sketches is a
few m x s binary64 arrays, one row chunk and the small factors.  The ledger and
:meth:`PipelineSpec.words` count sketches only, so the budget stays the
paper's sketch storage: the test matrices and a stream's binary64 staging
pair of at most k(m + n) words (:mod:`stream_ingest`) sit outside both.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .matrix_core import Precision

__all__ = [
    "PrecisionPlan",
    "LedgerError",
    "LedgerEntry",
    "StorageLedger",
    "Sketch",
    "PipelineSpec",
    "PIPELINES",
    "plan_mixed",
    "simulate_storage",
]


class PrecisionPlan(enum.Enum):
    ALL_DOUBLE = "all_double"
    MIXED_SINGLE_DOUBLE = "mixed_single_double"


class LedgerError(RuntimeError):
    """Raised when a buffer operation or a mixed-plan cast's space reuse is infeasible."""


def plan_mixed(m: int, n: int, s: int, d: int) -> int:
    """Power-sketch size l making single {Y, W, Z} fit the double {Y, W} budget.

    Solves m*l = m*s + d*n, rounded up: the freed binary32 words of Z then
    cover the binary64 upcast of Y-hat and W exactly (equality for m = n,
    where l = s + d).
    """
    if min(m, n, s, d) < 1:
        raise ValueError("plan_mixed requires m, n, s, d >= 1")
    return -((m * s + d * n) // -m)  # ceil


@dataclass(frozen=True)
class Sketch:
    """One sketch of a pipeline: its shape in size letters and its update rule.

    ``update`` names the ingestion kernel: ``right`` (sketch += H T),
    ``left`` (sketch += T H), ``two_sided`` (sketch += T1 H T2^T) or
    ``gram`` (sketch += H^T dY for a row block, dY the same update's
    increment of the right sketch it names; with Y = A Omega this
    accumulates A^T A Omega).  ``operands`` are the test matrices the rule
    reads, in kernel order, or for ``gram`` the right sketch.
    """

    name: str
    shape: tuple[str, str]
    update: str
    operands: tuple[str, ...]


@dataclass(frozen=True)
class PipelineSpec:
    """Everything the stream, the ledger and the validators know of a pipeline.

    ``test_matrices`` pairs each test matrix with its shape in size letters
    (m, n: the data; s, d, l: the sketch sizes); ``binary32`` names the
    sketches stored in binary32 under the mixed plan; ``rules`` are size
    rules ``"<size> <op> [k]s"`` that hold on top of 1 <= s <= min(m, n).
    A size a pipeline does not use is ignored.  ``finish`` is the mixed-plan
    finish as :func:`simulate_storage` replays it, one step a string:
    ``"new <label> <rows> <cols> <precision>"`` (rows and cols in size
    letters or ``1``), ``"free <label>"`` and ``"up <label>"`` (upcast to
    binary64).
    """

    kind: str
    sketches: tuple[Sketch, ...]
    test_matrices: tuple[tuple[str, tuple[str, str]], ...]
    binary32: frozenset
    rules: tuple[str, ...]
    finish: tuple[str, ...]
    default_plan: PrecisionPlan

    def _letters(self) -> list[tuple[str, tuple[str, str]]]:
        return [(sk.name, sk.shape) for sk in self.sketches] + list(self.test_matrices)

    def shapes(self, m: int, n: int, s: int, d: int = 0, l: int = 0) -> dict[str, tuple[int, int]]:
        """Shape of every sketch and test matrix of the pipeline, by name."""
        size = {"m": m, "n": n, "s": s, "d": d, "l": l}
        return {name: (size[r], size[c]) for name, (r, c) in self._letters()}

    def uses(self, size: str) -> bool:
        """Whether some sketch or test matrix of the pipeline has this size."""
        return any(size in shape for _, shape in self._letters())

    def applied_q(self, q: int) -> int:
        """The power iterations the pipeline applies: q with a power sketch (size l), else 0."""
        return q if self.uses("l") else 0

    def precision(self, name: str, plan: PrecisionPlan) -> Precision:
        """Storage precision of a sketch under a plan."""
        mixed = plan is PrecisionPlan.MIXED_SINGLE_DOUBLE
        return Precision.BINARY32 if mixed and name in self.binary32 else Precision.BINARY64

    def words(self, plan: PrecisionPlan, m: int, n: int, s: int, d: int = 0, l: int = 0) -> float:
        """Double-precision words the pipeline's sketches store under a plan."""
        shapes = self.shapes(m, n, s, d, l)
        return sum(math.prod(shapes[sk.name]) * self.precision(sk.name, plan).words_per_entry for sk in self.sketches)

    def check_sizes(self, m: int, n: int, s: int, d: int = 0, l: int = 0) -> None:
        """Raise ValueError naming the kind, the rule and the values if a size rule fails."""
        if not 1 <= s <= min(m, n):
            raise ValueError(f"{self.kind}: size rule 1 <= s <= min(m, n) fails with s={s}, m={m}, n={n}")
        size = {"d": d, "l": l}
        for rule in self.rules:
            lhs, op, rhs = rule.split()
            bound = int(rhs[:-1] or 1) * s
            if not (size[lhs] >= bound if op == ">=" else size[lhs] > bound):
                raise ValueError(f"{self.kind}: size rule {rule} fails with {lhs}={size[lhs]}, s={s}")


def _spec(kind, sketches, test_matrices, binary32, rules, finish, default_plan) -> PipelineSpec:
    return PipelineSpec(
        kind, tuple(Sketch(*sk) for sk in sketches), test_matrices, frozenset(binary32), rules, finish, default_plan
    )


_DOUBLE, _MIXED = PrecisionPlan.ALL_DOUBLE, PrecisionPlan.MIXED_SINGLE_DOUBLE

# The storage-reduced power iteration: the l x l Gram matrix Z^T Z and an
# s-word column buffer, both dropped before Y-hat lands in Z's first s columns.
_SPI_GRAM = ("new ztz l l binary64", "new colbuf 1 s binary64", "free ztz", "free colbuf")

# One entry per pipeline kind, keyed by ``PipelineKind.value``.  The
# two-sided core sketch K stays binary64 under every plan.
PIPELINES: dict[str, PipelineSpec] = {
    spec.kind: spec
    for spec in (
        _spec("tyuc17",
              [("y", ("m", "s"), "right", ("omega",)), ("w", ("d", "n"), "left", ("psi",))],
              (("omega", ("n", "s")), ("psi", ("d", "m"))),
              ("w",), ("d >= s",),
              ("new b s n binary32", "free w", "up b"), _DOUBLE),
        _spec("tyuc17_spi",
              [("y", ("m", "s"), "right", ("omega",)), ("w", ("d", "n"), "left", ("psi",)),
               ("z", ("m", "l"), "right", ("phi",))],
              (("omega", ("n", "s")), ("psi", ("d", "m")), ("phi", ("n", "l"))),
              ("y", "w", "z"), ("d >= s", "l > s"),
              ("free z", "up y", "up w"), _MIXED),
        _spec("tyuc17_spi_variant",
              [("w", ("d", "n"), "left", ("psi",)), ("z", ("m", "l"), "right", ("phi",))],
              (("psi", ("d", "m")), ("phi", ("n", "l"))),
              ("w", "z"), ("d >= s", "l > s", "l >= 2s"),
              _SPI_GRAM + ("free z", "new y m s binary32", "up y"), _MIXED),
        _spec("rsvd_onepass",
              [("y", ("m", "s"), "right", ("omega",)), ("w", ("n", "s"), "gram", ("y",))],
              (("omega", ("n", "s")),),
              ("y", "w"), (), ("up y", "up w"), _DOUBLE),
        _spec("tyuc19",
              [("y", ("m", "s"), "right", ("omega",)), ("x", ("s", "n"), "left", ("gamma",)),
               ("k", ("d", "d"), "two_sided", ("phi", "psi"))],
              (("omega", ("n", "s")), ("gamma", ("s", "m")), ("phi", ("d", "m")), ("psi", ("d", "n"))),
              ("y", "x"), ("d > s",), ("up y", "up x"), _DOUBLE),
        _spec("tyuc19_spi",
              [("z", ("m", "l"), "right", ("omega",)), ("w", ("l", "n"), "left", ("gamma",)),
               ("k", ("d", "d"), "two_sided", ("phi", "psi"))],
              (("omega", ("n", "l")), ("gamma", ("l", "m")), ("phi", ("d", "m")), ("psi", ("d", "n"))),
              ("z", "w"), ("d > s", "l > s", "l >= 2s"),
              _SPI_GRAM + ("free z", "new y m s binary32", "up y", "new wwt l l binary64", "free wwt",
                           "free w", "new x s n binary32", "up x"), _MIXED),
    )
}


@dataclass
class LedgerEntry:
    label: str
    rows: int
    cols: int
    precision: Precision

    @property
    def words(self) -> float:
        return self.rows * self.cols * self.precision.words_per_entry


@dataclass
class StorageLedger:
    """Exact storage accounting in double-precision words.

    ``entries`` logs every allocation (freed or not); ``peak_words`` is the
    running maximum of live words.  Internally counts half-words so binary32
    buffers stay exact.
    """

    entries: list[LedgerEntry] = field(default_factory=list)
    _live: dict = field(default_factory=dict)
    _current2: int = 0
    _peak2: int = 0

    def alloc(self, label: str, rows: int, cols: int, precision: Precision) -> None:
        if label in self._live:
            raise LedgerError(f"buffer {label!r} already allocated")
        e = LedgerEntry(label, rows, cols, precision)
        self.entries.append(e)
        self._live[label] = e
        self._current2 += self._half_words(e)
        self._peak2 = max(self._peak2, self._current2)

    def free(self, label: str) -> float:
        e = self._live.pop(label, None)
        if e is None:
            raise LedgerError(f"buffer {label!r} is not live")
        self._current2 -= self._half_words(e)
        return e.words

    def convert(self, label: str, to: Precision) -> float:
        """Re-declare a live buffer's precision; returns the words it grew by."""
        e = self._live.get(label)
        if e is None:
            raise LedgerError(f"buffer {label!r} is not live")
        new = LedgerEntry(e.label, e.rows, e.cols, to)
        self._current2 += self._half_words(new) - self._half_words(e)
        self._peak2 = max(self._peak2, self._current2)
        self._live[label] = new
        self.entries.append(new)
        return new.words - e.words

    @staticmethod
    def _half_words(e: LedgerEntry) -> int:
        return int(round(2 * e.words))

    @property
    def current_words(self) -> float:
        return self._current2 / 2

    @property
    def peak_words(self) -> float:
        return self._peak2 / 2

    def csv_rows(self) -> list[tuple]:
        return [(e.label, e.rows, e.cols, e.precision.value, e.words) for e in self.entries]


def simulate_storage(
    pipeline: str,
    plan: PrecisionPlan,
    m: int,
    n: int,
    s: int,
    d: int = 0,
    l: int = 0,
) -> StorageLedger:
    """Run a pipeline's allocations and mixed-plan finish through a fresh ledger.

    The sketches are allocated as the pipeline's :data:`PIPELINES` entry
    gives them; under the mixed plan the entry's ``finish`` steps follow.

    Space reuse is checked against a pool of freed words.  The pool is
    unbounded until a sketch is freed; each sketch free sets it to the words
    that sketch held.  Each later binary32 allocation and each upcast draws
    its words from the pool and raises :class:`LedgerError` when the pool
    cannot cover them; binary64 scratch buffers do not touch it.  This is
    where the l >= 2s contract of the storage-reduced kinds comes from: Y-hat
    lands in Z's first s columns and its upcast needs the other l - s.

    The accounting follows the big-buffer convention: the large sketch
    buffers and, for the storage-reduced kinds, the l x l Gram matrices plus
    an s-word buffer.  Test matrices, O(s^2) iterates and a stream's staging
    pair for rank-one terms and column blocks (at most k(m + n) binary64
    words, never more than the sketches hold) are disregarded.
    """
    spec = PIPELINES[pipeline]
    shapes = spec.shapes(m, n, s, d, l)
    led = StorageLedger()
    for sk in spec.sketches:
        led.alloc(sk.name, *shapes[sk.name], spec.precision(sk.name, plan))

    if plan is PrecisionPlan.ALL_DOUBLE:
        return led

    size = {"m": m, "n": n, "s": s, "d": d, "l": l, "1": 1}
    sketches = {sk.name for sk in spec.sketches}
    pool = math.inf
    for step in spec.finish:
        op, label, *new = step.split()
        if op == "free":
            freed = led.free(label)
            if label in sketches:
                pool = freed
            continue
        if op == "new":
            rows, cols, precision = size[new[0]], size[new[1]], Precision(new[2])
            led.alloc(label, rows, cols, precision)
            need = rows * cols * precision.words_per_entry if precision is Precision.BINARY32 else 0.0
        else:
            need = led.convert(label, Precision.BINARY64)
        if need > pool + 1e-9:
            raise LedgerError(f"{step!r} needs {need} words but only {pool} were freed")
        pool -= need
    return led
