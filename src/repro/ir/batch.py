"""Batched analytic evaluation: compile IR programs to flat numpy tapes
and price many evaluation points in one vectorized pass.

The scalar :class:`~repro.ir.analytic.AnalyticBackend` walks the op tree
per evaluation point; a figure sweep re-walks it hundreds of times.  This
module splits that walk into a **compile** step and an **evaluate** step:

* :func:`compile_tape` flattens a :class:`~repro.ir.program.Program` into
  a :class:`Tape` — per-row structural records (op kind, kernel, comm
  pattern, phase id) plus per-row numeric columns (flops, bytes, seconds,
  imbalance, size, count) and a per-occurrence loop-multiplicity column.
  Loops are unrolled *symbolically* through the multiplicity column, never
  materialized.
* :class:`BatchAnalyticBackend` (registry name ``batch``) evaluates one
  or many :class:`BatchJob` points — ``(program, cluster, n_nodes,
  overrides)`` tuples — by stacking the numeric columns of jobs that share
  a tape structure into ``(n_points, n_rows)`` matrices and running the
  roofline/collective arithmetic as numpy array operations over the point
  axis.

Exactness contract: the evaluation replicates the scalar backend's
expression shapes and accumulation order operation for operation (same
``max(t_flops, t_bytes) * imbalance`` roofline, same ``ceil(log2 p)``
collective rounds priced through the *same* :class:`NetworkModel` calls,
same left-to-right per-phase sums), so a job without ``overrides`` is
**bit-for-bit identical** to ``AnalyticBackend.run`` — the differential
gate in ``scripts/check.sh`` and ``tests/test_ir_batch.py`` enforces it.
``overrides`` (``compute_scale`` / ``comm_scale`` / ``serial_scale`` /
``bandwidth_scale`` / ``rate_scale``) are batch-only what-if knobs used by
the resilience campaign's analytic degradation estimates.

Caching layers (all process-local, cleared by :func:`clear_caches`):
tape per Program, network per (cluster, n_nodes), binary per program
identity, and a result memo keyed by a content hash of (tape structure +
numeric columns + cluster + mapping + binary + overrides + pricing model).

Million-point scale adds one streaming entry point on top of
``run_batch``: :meth:`BatchAnalyticBackend.run_override_columns`, the
tuner's fast path — one prepared job plus structure-of-arrays override
columns, priced in chunks sized by a memory budget
(:func:`stream_chunk_points`).  The job's tape is priced once, as a
single lane that broadcasts against the override vectors, never
materializing ``(n_points, n_rows)`` matrices; each yielded
:class:`ColumnChunk` carries per-point elapsed/phase arrays.

Both entry points price through ONE kernel, :func:`_evaluate`; only the
source of the override knob vectors differs (the jobs' ``overrides``, or
the columns).  The differential tests hold every column lane
bit-identical to ``run_batch`` over the job with the equivalent scalar
``overrides``, and ``run_batch`` bit-identical to the scalar walk.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.ir.backend import BACKENDS, Backend, RunResult
from repro.ir.ops import Barrier, CommOp, ComputeOp, MemOp, SerialOp
from repro.ir.program import Program
from repro.machine.cluster import ClusterModel
from repro.machine.models import (
    PricingContext,
    PricingModel,
    column_extractors,
    on_pricing_registered,
    resolve_pricing,
)
from repro.network.model import NetworkModel, network_for
from repro.simmpi.mapping import RankMapping
from repro.toolchain.compiler import Binary
from repro.toolchain.profiles import default_compiler_for
from repro.util.errors import ConfigurationError

__all__ = [
    "DEFAULT_STREAM_BUDGET",
    "OVERRIDE_KEYS",
    "BatchAnalyticBackend",
    "BatchJob",
    "ColumnChunk",
    "Tape",
    "TapeCache",
    "binary_fingerprint",
    "clear_caches",
    "cluster_fingerprint",
    "compile_tape",
    "set_tape_budget",
    "shared_batch_backend",
    "stream_chunk_points",
    "tape_cache_stats",
    "validate_overrides",
]

#: model-parameter override knobs a :class:`BatchJob` accepts.  Each is a
#: multiplicative factor on one analytic term; 1.0 is the identity.
OVERRIDE_KEYS = frozenset({
    "compute_scale", "comm_scale", "serial_scale",
    "bandwidth_scale", "rate_scale",
})

#: default per-chunk working-set budget (bytes) of the streaming entry
#: points; 64 MiB keeps a chunk comfortably inside L2+HBM while leaving
#: thousands of points per vectorized pass.
DEFAULT_STREAM_BUDGET = 64 << 20


def validate_overrides(
    overrides: "dict[str, Any] | None",
) -> dict[str, Any]:
    """Validate override keys against :data:`OVERRIDE_KEYS` and values as
    finite numbers > 0; return a plain (possibly empty) dict.

    A value is a scalar (a job's override) or a 1-D array (an override
    column, checked lane by lane).  This is the single validation seam
    shared by :meth:`_prepare`, the column-stream fast path and the
    capacity service, so the error always names both the offending keys
    and the sorted set of allowed ones.
    """
    out = dict(overrides) if overrides else {}
    bad = set(out) - OVERRIDE_KEYS
    if bad:
        raise ConfigurationError(
            f"unknown override(s) {sorted(bad)}; "
            f"choose from {sorted(OVERRIDE_KEYS)}"
        )
    for key in sorted(out):
        try:
            values = np.asarray(out[key], dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            values = np.asarray(math.nan)
        # NaN fails both comparisons
        if values.size and not (0.0 < values.min()
                                and values.max() < math.inf):
            raise ConfigurationError(
                f"override {key!r} must be a finite number > 0")
    return out

# row kind codes (structural)
_K_COMPUTE = 0       # modeled roofline work
_K_SECONDS = 1       # fixed-seconds compute
_K_MEM = 2
_K_SERIAL = 3
_K_COMM = 4
_K_BARRIER = 5

_COLUMNS = ("flops", "bytes", "seconds", "imbalance", "rate", "size", "count")


class Tape:
    """A Program flattened to structural rows + numeric columns.

    ``structure`` is a hashable tuple describing everything *shape-like*
    (phase layout, op kinds, kernels, comm patterns, halo degrees); two
    programs with equal structures — e.g. the same app model at different
    node counts — can be stacked into one evaluation matrix.  ``cols``
    holds the per-row numeric quantities; ``occ_mult`` the per-occurrence
    loop multiplicity (trip-count product).
    """

    __slots__ = ("structure", "names", "occ_names", "rows", "cols",
                 "occ_mult", "occ_rows", "toolchain_rows",
                 "kernel_needed", "extra_names", "digest")

    def __init__(self, structure: tuple, names: tuple[str, ...],
                 occ_names: tuple[int, ...], rows: tuple[tuple, ...],
                 cols: dict[str, np.ndarray],
                 occ_mult: np.ndarray) -> None:
        self.structure = structure
        self.names = names              # distinct phase names, first-appearance order
        self.occ_names = occ_names      # name index per occurrence
        self.rows = rows                # (occ, kind, kernel, comm_kind, neighbors, has_rate)
        self.cols = cols                # column name -> (n_rows,) ndarray
        self.occ_mult = occ_mult        # (n_occurrences,) int64
        self.occ_rows = _rows_by_occurrence(rows, len(occ_names))
        # structural toolchain demand: modeled compute with a kernel and no
        # explicit rate always builds the binary (matching Backend._binary)
        self.kernel_needed = any(
            kind == _K_COMPUTE and not has_rate and kernel is not None
            for (_, kind, kernel, _, _, has_rate) in rows
        )
        # rows that need a toolchain (or raise) only when their flops > 0
        self.toolchain_rows = tuple(
            i for i, (_, kind, kernel, _, _, has_rate) in enumerate(rows)
            if kind == _K_COMPUTE and not has_rate and kernel is None
        )
        # pricing-model tape columns stacked next to the core ones; the
        # digest covers them so a tape compiled before a model registered
        # its columns never aliases one compiled after
        self.extra_names = tuple(sorted(set(cols) - set(_COLUMNS)))
        digest = hashlib.sha256(repr(structure).encode())
        for col in _COLUMNS + self.extra_names:
            digest.update(col.encode())
            digest.update(cols[col].tobytes())
        digest.update(occ_mult.tobytes())
        self.digest = digest.digest()

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_occurrences(self) -> int:
        return len(self.occ_names)

    @property
    def nbytes(self) -> int:
        """Resident-size estimate: the numpy columns plus a repr-length
        proxy for the Python-side structure tuples.  Deterministic for a
        given program, so eviction decisions are reproducible."""
        return (sum(a.nbytes for a in self.cols.values())
                + self.occ_mult.nbytes + len(repr(self.structure)))


def _rows_by_occurrence(rows: tuple[tuple, ...],
                        n_occ: int) -> tuple[tuple[int, ...], ...]:
    by_occ: list[list[int]] = [[] for _ in range(n_occ)]
    for i, row in enumerate(rows):
        by_occ[row[0]].append(i)
    return tuple(tuple(r) for r in by_occ)


class TapeCache:
    """Warm-tape store: an LRU over compiled tapes bounded by **both** an
    entry count and an optional resident-byte budget.

    This is the serving layer's eviction seam (ISSUE 8): a long-running
    :class:`repro.service.CapacityService` keeps tapes warm across
    requests but must bound resident memory.  Eviction is safe by
    construction — :func:`compile_tape` is a pure function of the
    program, so a cold recompute is bit-identical to a warm hit (pinned
    by ``tests/test_service.py``).  Thread-safe; the budget counts
    :attr:`Tape.nbytes` of every resident tape.
    """

    def __init__(self, max_entries: int = 1024,
                 budget_bytes: int | None = None) -> None:
        self._max_entries = max_entries
        self._budget_bytes = budget_bytes
        self._lock = threading.Lock()
        self._tapes: OrderedDict[Program, Tape] = OrderedDict()
        self._resident = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, program: Program) -> Tape:
        with self._lock:
            tape = self._tapes.get(program)
            if tape is not None:
                self.hits += 1
                self._tapes.move_to_end(program)
                return tape
        built = _compile_tape(program)
        with self._lock:
            tape = self._tapes.get(program)
            if tape is not None:  # raced compile: keep the resident one
                self.hits += 1
                self._tapes.move_to_end(program)
                return tape
            self.misses += 1
            self._tapes[program] = built
            self._resident += built.nbytes
            self._evict_over_budget()
            return built

    def _evict_over_budget(self) -> None:
        """Drop least-recently-used tapes until within bounds (the
        newest entry always stays so oversized tapes still serve)."""
        while len(self._tapes) > 1 and (
            len(self._tapes) > self._max_entries
            or (self._budget_bytes is not None
                and self._resident > self._budget_bytes)
        ):
            _, victim = self._tapes.popitem(last=False)
            self._resident -= victim.nbytes
            self.evictions += 1

    def set_budget(self, budget_bytes: int | None) -> None:
        """Re-size the byte budget (``None`` = unbounded) and evict down
        to it immediately."""
        with self._lock:
            self._budget_bytes = budget_bytes
            self._evict_over_budget()

    @property
    def resident_bytes(self) -> int:
        return self._resident

    @property
    def budget_bytes(self) -> int | None:
        return self._budget_bytes

    def __len__(self) -> int:
        return len(self._tapes)

    def stats(self) -> dict[str, int | None]:
        with self._lock:
            return {
                "entries": len(self._tapes),
                "resident_bytes": self._resident,
                "budget_bytes": self._budget_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def clear(self) -> None:
        with self._lock:
            self._tapes.clear()
            self._resident = 0
            self.hits = self.misses = self.evictions = 0


_TAPES = TapeCache()


def compile_tape(program: Program) -> Tape:
    """Flatten ``program`` into a :class:`Tape` (cached per Program in
    the process-wide :class:`TapeCache`; see :func:`set_tape_budget`)."""
    return _TAPES.get(program)


def set_tape_budget(budget_bytes: int | None) -> None:
    """Bound the resident bytes of warm compiled tapes (``None`` lifts
    the bound).  Evicts least-recently-used tapes immediately."""
    _TAPES.set_budget(budget_bytes)


def tape_cache_stats() -> dict[str, int | None]:
    """Entry/byte/hit/miss/eviction counters of the warm-tape store."""
    return _TAPES.stats()


def stream_chunk_points(tape: Tape, memory_budget_bytes: int) -> int:
    """Override-column points per chunk so one vectorized pass of
    :meth:`BatchAnalyticBackend.run_override_columns` stays under the
    budget.  The column path never stacks rows — its footprint is the
    per-phase accumulators plus O(1) working vectors per point.

    Pure and deterministic (tests pin monotonicity in the budget), and
    conservative by design: the differential memory test asserts the
    evaluator's peak allocation stays below the configured budget.
    """
    if memory_budget_bytes < 1:
        raise ConfigurationError(
            f"memory budget must be positive, got {memory_budget_bytes}"
        )
    # per-phase sec/comp/comm/tf/tb accumulators + working vectors
    per_point = 8 * (5 * max(1, len(tape.names)) + 24)
    return max(1, memory_budget_bytes // per_point)


def _compile_tape(program: Program) -> Tape:
    names: list[str] = []
    name_idx: dict[str, int] = {}
    occ_names: list[int] = []
    occ_mult: list[int] = []
    rows: list[tuple] = []
    extractors = column_extractors()
    cols: dict[str, list[float]] = {
        c: [] for c in _COLUMNS + tuple(sorted(extractors))
    }

    def push(occ: int, kind: int, kernel: Any = None, comm_kind: str = "",
             neighbors: int = 0, has_rate: bool = False, *,
             flops: float = 0.0, bytes_: float = 0.0, seconds: float = 0.0,
             imbalance: float = 1.0, rate: float = 0.0, size: int = 0,
             count: float = 0.0, op: Any = None) -> None:
        rows.append((occ, kind, kernel, comm_kind, neighbors, has_rate))
        cols["flops"].append(flops)
        cols["bytes"].append(bytes_)
        cols["seconds"].append(seconds)
        cols["imbalance"].append(imbalance)
        cols["rate"].append(rate)
        cols["size"].append(size)
        cols["count"].append(count)
        for name, extractor in extractors.items():
            cols[name].append(extractor(op) if op is not None else 0.0)

    for phase, mult in program.iter_phases():
        if phase.name not in name_idx:
            name_idx[phase.name] = len(names)
            names.append(phase.name)
        occ = len(occ_mult)
        occ_mult.append(mult)
        occ_names.append(name_idx[phase.name])
        for op in phase.ops:
            if isinstance(op, ComputeOp):
                if op.seconds is not None:
                    push(occ, _K_SECONDS, seconds=op.seconds,
                         imbalance=op.imbalance)
                else:
                    push(occ, _K_COMPUTE, kernel=op.kernel,
                         has_rate=op.rate_per_core is not None,
                         flops=op.flops, bytes_=op.bytes_moved,
                         imbalance=op.imbalance,
                         rate=op.rate_per_core or 0.0, op=op)
            elif isinstance(op, MemOp):
                push(occ, _K_MEM, bytes_=op.bytes_moved, op=op)
            elif isinstance(op, SerialOp):
                push(occ, _K_SERIAL, seconds=op.seconds)
            elif isinstance(op, CommOp):
                push(occ, _K_COMM, comm_kind=op.kind,
                     neighbors=op.neighbors, size=op.size, count=op.count)
            elif isinstance(op, Barrier):
                push(occ, _K_BARRIER)
            else:  # pragma: no cover - Phase only holds Op members
                raise ConfigurationError(f"cannot tape op {op!r}")

    structure = (tuple(names), tuple(occ_names), tuple(rows))
    np_cols = {
        c: np.asarray(cols[c],
                      dtype=np.int64 if c == "size" else np.float64)
        for c in cols
    }
    return Tape(structure, tuple(names), tuple(occ_names), tuple(rows),
                np_cols, np.asarray(occ_mult, dtype=np.int64))


@dataclass
class BatchJob:
    """One evaluation point of a batched run.

    Mirrors the keyword surface of ``AnalyticBackend.run``; ``overrides``
    adds the batch-only what-if knobs of :data:`OVERRIDE_KEYS`, and
    ``analyze=True`` admission-checks the program against the static
    communication-safety analyzer (:func:`repro.ir.analyze.static_clean`,
    memoized) before pricing it — the analytic walk would happily price a
    program whose lowered form deadlocks.
    """

    program: Program
    cluster: ClusterModel
    n_nodes: int
    mapping: RankMapping | None = None
    network: NetworkModel | None = None
    binary: Binary | None = None
    check_memory: bool = True
    overrides: dict[str, float] | None = None
    analyze: bool = False
    #: pricing model name/instance (None = process default, i.e. roofline);
    #: the resolved model's identity is folded into every cache key
    pricing: str | PricingModel | None = None


@dataclass
class ColumnChunk:
    """Per-point results of one column-stream chunk.

    ``start`` is the chunk's offset in the caller's point space; all
    arrays are float64 of the chunk length.  The per-phase dicts mirror
    :class:`~repro.ir.backend.RunResult`'s accounting (seconds, compute,
    comm, flops-time, bytes-time), so a lane of a ColumnChunk carries the
    same numbers ``run_batch`` would return for the equivalent scalar
    ``overrides`` job.
    """

    start: int
    n_ranks: int
    elapsed: np.ndarray
    phase_seconds: dict[str, np.ndarray]
    phase_compute: dict[str, np.ndarray]
    phase_comm: dict[str, np.ndarray]
    phase_flops_time: dict[str, np.ndarray]
    phase_bytes_time: dict[str, np.ndarray]

    def __len__(self) -> int:
        return int(self.elapsed.shape[0])


# -- process-local caches -----------------------------------------------------

_CLUSTER_FP: dict[int, tuple[Any, bytes]] = {}   # id -> (strong ref, digest)
_NETWORKS: dict[tuple[bytes, int], NetworkModel] = {}
_RANK_BW: dict[tuple[bytes, int, int], float] = {}
_BINARIES: dict[tuple, Binary] = {}
_RESULT_MEMO: dict[bytes, tuple] = {}
_MEMO_MAX = 65536


def clear_caches() -> None:
    """Drop every process-local cache (benchmarks, tests)."""
    _CLUSTER_FP.clear()
    _COMPILER_FP.clear()
    _NETWORKS.clear()
    _RANK_BW.clear()
    _BINARIES.clear()
    _RESULT_MEMO.clear()
    _TAPES.clear()


def cluster_fingerprint(cluster: ClusterModel) -> bytes:
    """Public alias of the content digest used in batch cache keys."""
    return _cluster_fp(cluster)


def binary_fingerprint(binary: Binary) -> tuple:
    """Content key of a binary: application, compiler digest (labels are
    not unique — vec_table patches keep the label), language, flags,
    kernel classes."""
    return _binary_key(binary)


def _cluster_fp(cluster: ClusterModel) -> bytes:
    """Content digest of a cluster model (repr over the frozen tree)."""
    hit = _CLUSTER_FP.get(id(cluster))
    if hit is not None and hit[0] is cluster:
        return hit[1]
    if len(_CLUSTER_FP) > 512:
        _CLUSTER_FP.clear()
    fp = hashlib.sha256(repr(cluster).encode()).digest()
    _CLUSTER_FP[id(cluster)] = (cluster, fp)
    return fp


def _network(cluster: ClusterModel, n_nodes: int) -> NetworkModel:
    key = (_cluster_fp(cluster), n_nodes)
    net = _NETWORKS.get(key)
    if net is None:
        net = network_for(cluster, n_nodes=n_nodes)
        _NETWORKS[key] = net
    return net


def _rank_bw(mapping: RankMapping) -> float:
    """``mapping.rank_memory_bandwidth(0)`` — independent of n_nodes, so
    cacheable per (cluster, ranks_per_node, threads_per_rank)."""
    key = (_cluster_fp(mapping.cluster), mapping.ranks_per_node,
           mapping.threads_per_rank)
    hit = _RANK_BW.get(key)
    if hit is None:
        hit = mapping.rank_memory_bandwidth(0)
        _RANK_BW[key] = hit
    return hit


_COMPILER_FP: dict[int, tuple[Any, bytes]] = {}


def _compiler_fp(compiler: Any) -> bytes:
    """Content digest of a compiler profile.  Labels are NOT unique —
    what-if experiments patch vec_table on a profile keeping its label —
    so the whole frozen-dataclass repr is hashed (id-memoized: profiles
    are module constants or short-lived patched copies)."""
    hit = _COMPILER_FP.get(id(compiler))
    if hit is not None and hit[0] is compiler:
        return hit[1]
    if len(_COMPILER_FP) > 512:
        _COMPILER_FP.clear()
    fp = hashlib.sha256(repr(compiler).encode()).digest()
    _COMPILER_FP[id(compiler)] = (compiler, fp)
    return fp


def _binary_key(binary: Binary) -> tuple:
    return (binary.application, _compiler_fp(binary.compiler),
            binary.language, binary.flags, binary.kernels)


def _resolve_binary(program: Program, cluster: ClusterModel,
                    binary: Binary | None, needed: bool) -> Binary | None:
    """Same resolution as ``Backend._binary`` but memoized per program
    identity (the build is deterministic in these fields)."""
    if binary is not None:
        binary.check_runnable()
        return binary
    if not needed:
        return None
    key = (program.name, _cluster_fp(cluster), program.kernels,
           program.language)
    built = _BINARIES.get(key)
    if built is None:
        compiler = default_compiler_for(program.name, cluster.name)
        built = compiler.build(program.name, program.kernels,
                               language=program.language)
        _BINARIES[key] = built
    built.check_runnable()
    return built


class _JobCtx:
    """Per-job evaluation context resolved during prepare."""

    __slots__ = ("job", "tape", "mapping", "binary", "network", "digest",
                 "overrides", "model", "pricing_prep")

    def __init__(self, job: "BatchJob", tape: Tape, mapping: RankMapping,
                 binary: Binary | None, network: NetworkModel,
                 digest: bytes, overrides: dict[str, float],
                 model: PricingModel,
                 pricing_prep: float) -> None:
        self.job = job
        self.tape = tape
        self.mapping = mapping
        self.binary = binary
        self.network = network
        self.digest = digest
        self.overrides = overrides
        self.model = model
        self.pricing_prep = pricing_prep


class BatchAnalyticBackend(Backend):
    """Vectorized analytic pricing: one tape, many evaluation points."""

    name = "batch"

    def run(
        self,
        program: Program,
        cluster: ClusterModel,
        n_nodes: int,
        *,
        mapping: RankMapping | None = None,
        network: NetworkModel | None = None,
        binary: Binary | None = None,
        check_memory: bool = True,
        overrides: dict[str, float] | None = None,
        analyze: bool = False,
        pricing: str | PricingModel | None = None,
        **kwargs: Any,
    ) -> RunResult:
        if kwargs:
            raise ConfigurationError(
                f"batch backend does not accept {sorted(kwargs)}"
            )
        return self.run_batch([BatchJob(
            program, cluster, n_nodes, mapping=mapping, network=network,
            binary=binary, check_memory=check_memory, overrides=overrides,
            analyze=analyze, pricing=pricing,
        )])[0]

    def run_batch(self, jobs: Sequence[BatchJob]) -> list[RunResult]:
        """Evaluate every job, grouping shared tape structures into one
        vectorized pass; returns results in input order."""
        ctxs = [self._prepare(job) for job in jobs]
        payloads = self._payloads(ctxs)
        return [self._result(ctx, payload)
                for ctx, payload in zip(ctxs, payloads)]

    def run_override_columns(
        self,
        job: BatchJob,
        columns: "dict[str, Any]",
        *,
        chunk_points: int | None = None,
        memory_budget_bytes: int | None = None,
    ) -> "Iterator[ColumnChunk]":
        """Price one prepared job against structure-of-arrays override
        columns — the tuner's fast path.

        ``columns`` maps :data:`OVERRIDE_KEYS` names to equal-length 1-D
        float arrays of finite values > 0; point ``i`` is ``job``
        evaluated under scalar overrides ``{k: columns[k][i]}``.  Each
        chunk is one :func:`_evaluate` call over the job's single
        context with the column slices as knobs: the tape constants
        (primitive network times, kernel rates, the phase walk) are
        resolved once and broadcast against the override vectors — no
        ``(points, n_rows)`` stacking, no per-point ``_prepare`` — which
        is where the order-of-magnitude throughput over chunk-serial
        ``run_batch`` comes from.  Each lane is bit-identical to the
        equivalent scalar-overrides ``run_batch`` job (differential-tested).

        Yields :class:`ColumnChunk`\\ s of at most ``chunk_points`` points
        (default: :func:`stream_chunk_points` under the budget), keeping peak allocation bounded.  ``job.overrides``
        must be empty — the columns ARE the overrides.
        """
        if job.overrides:
            raise ConfigurationError(
                "run_override_columns prices the override columns; "
                "job.overrides must be empty"
            )
        cols: dict[str, np.ndarray] = {}
        for key, values in columns.items():
            arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
            if arr.ndim != 1:
                raise ConfigurationError(
                    f"override column {key!r} must be 1-D, got shape "
                    f"{arr.shape}"
                )
            cols[key] = arr
        validate_overrides(cols)
        if not cols:
            raise ConfigurationError("need at least one override column")
        lengths = {arr.shape[0] for arr in cols.values()}
        if len(lengths) != 1:
            raise ConfigurationError(
                f"override columns must share one length, got "
                f"{sorted(lengths)}"
            )
        n_points = lengths.pop()
        ctx = self._prepare(job)
        if chunk_points is None:
            budget = (DEFAULT_STREAM_BUDGET if memory_budget_bytes is None
                      else memory_budget_bytes)
            chunk_points = stream_chunk_points(ctx.tape, budget)
        elif chunk_points < 1:
            raise ConfigurationError(
                f"chunk_points must be positive, got {chunk_points}"
            )
        for lo in range(0, n_points, chunk_points):
            hi = min(lo + chunk_points, n_points)
            knobs = {key: arr[lo:hi] for key, arr in cols.items()}
            yield _column_chunk(ctx.tape, _evaluate([ctx], knobs),
                                hi - lo, lo)

    # -- prepare -------------------------------------------------------------

    def _prepare(self, job: BatchJob) -> _JobCtx:
        if job.check_memory:
            job.program.check_feasible(job.cluster, job.n_nodes)
        tape = compile_tape(job.program)
        mapping = (job.mapping if job.mapping is not None
                   else job.program.mapping(job.cluster, job.n_nodes))
        if job.analyze:
            from repro.ir.analyze import static_clean

            if not static_clean(job.program, mapping.n_ranks):
                raise ConfigurationError(
                    f"program {job.program.name!r} fails static "
                    "communication-safety analysis at "
                    f"{mapping.n_ranks} ranks; run `repro-lab analyze` "
                    "for the diagnostics"
                )
        binary = _resolve_binary(job.program, job.cluster, job.binary,
                                 tape.kernel_needed)
        model = resolve_pricing(job.pricing)
        prep = model.prepare(PricingContext(
            mapping=mapping,
            cluster=job.cluster,
            core=job.cluster.node.core_model,
            binary=binary,
            n_ranks=mapping.n_ranks,
            agg_bw=mapping.n_ranks * _rank_bw(mapping),
        ))
        overrides = validate_overrides(job.overrides)
        network = job.network
        if network is not None:
            digest = None  # user-supplied network: uncacheable
        else:
            network = _network(job.cluster, job.n_nodes)
            h = hashlib.sha256(tape.digest)
            h.update(_cluster_fp(job.cluster))
            h.update(str(job.n_nodes).encode())
            h.update(repr((mapping.n_nodes, mapping.ranks_per_node,
                           mapping.threads_per_rank)).encode())
            h.update(_cluster_fp(mapping.cluster))
            h.update(repr(None if binary is None
                          else _binary_key(binary)).encode())
            h.update(repr(tuple(sorted(overrides.items()))).encode())
            h.update(model.identity().encode())
            digest = h.digest()
        return _JobCtx(job, tape, mapping, binary, network, digest,
                       overrides, model, prep)

    # -- cache orchestration -------------------------------------------------

    def _payloads(self, ctxs: list[_JobCtx]) -> list[tuple]:
        payloads: list[tuple | None] = [None] * len(ctxs)
        groups: dict[tuple, list[int]] = {}
        for i, ctx in enumerate(ctxs):
            memo = (_RESULT_MEMO.get(ctx.digest)
                    if ctx.digest is not None else None)
            if memo is not None:
                payloads[i] = memo
            else:
                key = (ctx.tape.structure, ctx.model.identity())
                groups.setdefault(key, []).append(i)
        if groups and len(_RESULT_MEMO) > _MEMO_MAX:
            _RESULT_MEMO.clear()
        for indices in groups.values():
            group = [ctxs[i] for i in indices]
            lanes = _evaluate(group)
            for i, payload in zip(indices,
                                  _job_payloads(group[0].tape, lanes)):
                payloads[i] = payload
                if ctxs[i].digest is not None:
                    _RESULT_MEMO[ctxs[i].digest] = payload
        done = [p for p in payloads if p is not None]
        assert len(done) == len(ctxs)
        return done

    # -- assembly ------------------------------------------------------------

    def _result(self, ctx: _JobCtx, payload: tuple) -> RunResult:
        n_ranks, elapsed, per_phase = payload
        result = RunResult(
            backend=self.name,
            program=ctx.job.program.name,
            cluster=ctx.job.cluster.name,
            n_nodes=ctx.job.n_nodes,
            n_ranks=n_ranks,
            elapsed=elapsed,
            steps=ctx.job.program.steps,
        )
        for name, sec, comp, comm, tf, tb in per_phase:
            result.phase_seconds[name] = sec
            result.phase_compute[name] = comp
            result.phase_comm[name] = comm
            result.phase_flops_time[name] = tf
            result.phase_bytes_time[name] = tb
        return result


def _evaluate(ctxs: list[_JobCtx],
              knobs: "dict[str, np.ndarray] | None" = None) -> tuple:
    """Vectorized pricing of one structure group — the one cost kernel.

    ``run_batch`` passes the group's contexts and no ``knobs``: each
    override knob is read from the jobs' ``overrides``, one lane per job.
    ``run_override_columns`` passes ONE context and its ``(k,)`` override
    columns; the context's ``(1,)``-shaped quantities broadcast against
    them, so the lanes come out ``k`` long (or ``(1,)`` where no knob
    touches a quantity — :func:`_column_chunk` widens those).

    Replicates ``AnalyticBackend.run`` exactly: scalar per-job quantities
    (aggregate bandwidth/rates, ``ceil(log2 p)``) are computed with the
    same Python arithmetic, point-to-point primitives go through the same
    ``NetworkModel`` calls, and the per-row work is numpy elementwise math
    over the point axis in the scalar backend's accumulation order.

    Bit-identity of the two call shapes: ``k`` contexts that differ only
    in their scalar overrides stack ``k`` identical copies of every tape
    column, and IEEE-754 elementwise ops on equal inputs give equal
    outputs, so broadcasting one context's ``(1,)`` row against the ``k``
    override lanes reproduces every lane bit for bit.
    ``tests/test_ir_batch_stream.py`` enforces the identity
    differentially against ``run_batch`` over every app, both clusters
    and random programs.

    Returns ``(p, elapsed, ph_sec, ph_comp, ph_comm, ph_tf, ph_tb)``: the
    per-lane rank counts and elapsed seconds, then five per-phase-name
    lists of lane arrays (seconds, compute, comm, flops-time, bytes-time).
    """
    tape = ctxs[0].tape
    n = len(ctxs)

    # stacked numeric columns: (n_points, n_rows)
    def stack(col: str) -> np.ndarray:
        if n == 1:
            return tape.cols[col][np.newaxis]
        return np.stack([c.tape.cols[col] for c in ctxs])

    F, B, S = stack("flops"), stack("bytes"), stack("seconds")
    IMB, RATE, CNT = stack("imbalance"), stack("rate"), stack("count")
    SZ = stack("size")
    MULT = (tape.occ_mult[np.newaxis] if n == 1  # (n_points, n_occ)
            else np.stack([c.tape.occ_mult for c in ctxs]))

    # pricing model (one per structure group — the group key includes the
    # model identity) and its extra tape columns / per-job prepare scalars
    model = ctxs[0].model
    EXTRA = {name: stack(name) for name in tape.extra_names}
    preps = np.asarray([c.pricing_prep for c in ctxs])

    def data_seconds(r: int, b: np.ndarray) -> np.ndarray:
        return model.batch_data_seconds(
            b, {name: col[:, r] for name, col in EXTRA.items()},
            agg_bw, preps)

    mappings = [c.mapping for c in ctxs]
    networks = [c.network for c in ctxs]
    binaries = [c.binary for c in ctxs]
    cores = [c.job.cluster.node.core_model for c in ctxs]
    p = np.asarray([m.n_ranks for m in mappings], dtype=np.int64)
    m_nodes = np.asarray([m.n_nodes for m in mappings], dtype=np.int64)
    rpn = np.asarray([m.ranks_per_node for m in mappings], dtype=np.int64)
    clog = np.asarray(
        [math.ceil(math.log2(m.n_ranks)) if m.n_ranks > 1 else 0
         for m in mappings], dtype=np.int64)
    link_bw = np.asarray([net.link.bandwidth for net in networks])
    # scalar backend computes agg_bw = n_ranks * rank_memory_bandwidth(0)
    # with Python arithmetic; replicate per job for bit-identity.
    agg_bw = np.asarray([m.n_ranks * _rank_bw(m) for m in mappings])

    # -- overrides: a knob no job (or column) sets is skipped, so the
    #    default path is literally the scalar arithmetic; a knob of ones
    #    multiplies or divides by exactly 1.0, an IEEE identity ------------
    if knobs is None:
        knobs = {
            name: np.asarray([c.overrides.get(name, 1.0) for c in ctxs])
            for name in set().union(*(c.overrides for c in ctxs))
        }
    compute_scale = knobs.get("compute_scale")
    comm_scale = knobs.get("comm_scale")
    serial_scale = knobs.get("serial_scale")
    bandwidth_scale = knobs.get("bandwidth_scale")
    rate_scale = knobs.get("rate_scale")
    if bandwidth_scale is not None:
        agg_bw = agg_bw * bandwidth_scale

    # jobs whose kernel-less modeled compute carries flops would raise in
    # the scalar walk; raise the same error here (after binary resolution,
    # matching the scalar backend's order of checks).
    for r in tape.toolchain_rows:
        if np.any(F[:, r] > 0):
            occ = tape.rows[r][0]
            name = tape.names[tape.occ_names[occ]]
            raise ConfigurationError(
                f"compute op in phase {name!r} needs a "
                "kernel class or an explicit rate_per_core"
            )

    # aggregate kernel rates per (job, kernel), resolved lazily: the scalar
    # walk resolves a rate only for ops with flops > 0, so lanes without
    # flops keep the placeholder 1.0 and never trigger the toolchain/rate
    # validation the scalar walk skips
    kernel_agg: dict[tuple[int, Any], float] = {}

    def agg_rate_for_kernel(j: int, kernel: Any) -> float:
        agg = kernel_agg.get((j, kernel))
        if agg is None:
            rate = binaries[j].sustained_flops(cores[j], kernel)
            agg = mappings[j].n_ranks * mappings[j].rank_compute_rate(
                0, rate)
            kernel_agg[j, kernel] = agg
        return agg

    # point-to-point primitives through the real network model, memoized
    # per (network, destination node, size) for the duration of this
    # batch; destination node 0 is rank 0's own node (shared memory)
    pcache: dict[tuple, float] = {}

    def prim(j: int, dst: int, size: int) -> float:
        key = (id(networks[j]), dst, size)
        hit = pcache.get(key)
        if hit is None:
            net = networks[j]
            hit = (net.link.p2p_time(max(1, size), 0) if dst == 0
                   else net.p2p_time(0, dst, max(1, size)))
            pcache[key] = hit
        return hit

    # the typical collective partner's node: mid-machine, or rank 0's own
    probe = [0 if mn == 1 else min(max(1, mn // 2), mn - 1)
             for mn in m_nodes.tolist()]

    zeros = np.zeros(n)
    one_node = m_nodes == 1
    p_le1 = p <= 1
    off_fraction = np.asarray([
        (min(1.0, 2.0 / math.sqrt(r)) if r > 1 else 1.0) for r in rpn
    ])

    def comm_cost(r: int, kind: str, neighbors: int) -> np.ndarray:
        sizes = SZ[:, r]
        if kind == "halo":
            if neighbors <= 0:
                return zeros
            shm = np.asarray([prim(j, 0, int(sizes[j])) for j in range(n)])
            t_off = np.asarray([
                0.0 if one_node[j] else prim(j, 1, int(sizes[j]))
                for j in range(n)
            ])
            off = neighbors * off_fraction
            on = neighbors - off
            return np.where(one_node, neighbors * shm,
                            off * t_off + on * shm)
        typ = np.asarray([prim(j, probe[j], int(sizes[j]))
                          for j in range(n)])
        if kind in ("allreduce", "bcast", "reduce"):
            return np.where(p_le1, 0.0, clog * typ)
        if kind in ("allgather", "gather"):
            return np.where(p_le1, 0.0, (p - 1) * typ)
        if kind == "alltoall":
            rounds = (p - 1) * typ
            nic = ((p - rpn) * rpn * np.maximum(sizes, 1)) / link_bw
            return np.where(p_le1, 0.0, np.maximum(rounds, nic))
        # p2p / ring
        return typ

    # -- the walk, occurrence by occurrence, in scalar op order.  Sums
    #    start at the scalar 0.0 (as in the scalar walk); the first lane
    #    array added, at the latest ``mult``, makes them lane arrays -----
    n_names = len(tape.names)
    ph_sec: list[Any] = [0.0] * n_names
    ph_comp: list[Any] = [0.0] * n_names
    ph_comm: list[Any] = [0.0] * n_names
    ph_tf: list[Any] = [0.0] * n_names
    ph_tb: list[Any] = [0.0] * n_names

    for occ, name_idx in enumerate(tape.occ_names):
        t_compute: Any = 0.0
        t_comm: Any = 0.0
        serial: Any = 0.0
        tf_sum: Any = 0.0
        tb_sum: Any = 0.0
        for r in tape.occ_rows[occ]:
            _, kind, kernel, comm_kind, neighbors, has_rate = tape.rows[r]
            if kind == _K_SECONDS:
                t = S[:, r] * IMB[:, r]
                if compute_scale is not None:
                    t = t * compute_scale
                t_compute = t_compute + t
            elif kind == _K_COMPUTE:
                f = F[:, r]
                nonzero = f != 0.0
                if not nonzero.any():
                    tf = zeros
                elif has_rate:
                    agg = np.asarray([
                        mappings[j].n_ranks * mappings[j].rank_compute_rate(
                            0, RATE[j, r])
                        if nonzero[j] else 1.0
                        for j in range(n)
                    ])
                    tf = np.where(nonzero, f / agg, 0.0)
                else:
                    agg = np.asarray([
                        agg_rate_for_kernel(j, kernel) if nonzero[j] else 1.0
                        for j in range(n)
                    ])
                    tf = np.where(nonzero, f / agg, 0.0)
                if rate_scale is not None:
                    tf = tf / rate_scale
                b = B[:, r]
                tb = data_seconds(r, b)
                t = np.maximum(tf, tb) * IMB[:, r]
                if compute_scale is not None:
                    t = t * compute_scale
                t_compute = t_compute + t
                tf_sum = tf_sum + tf
                tb_sum = tb_sum + tb
            elif kind == _K_MEM:
                b = B[:, r]
                tb = data_seconds(r, b)
                t = tb if compute_scale is None else tb * compute_scale
                t_compute = t_compute + t
                tb_sum = tb_sum + tb
            elif kind == _K_SERIAL:
                s = S[:, r]
                if serial_scale is not None:
                    s = s * serial_scale
                serial = serial + s
            elif kind == _K_COMM:
                one = comm_cost(r, comm_kind, neighbors)
                cnt = CNT[:, r]
                cost = np.where(cnt <= 0.0, 0.0, cnt * one)
                if comm_scale is not None:
                    cost = cost * comm_scale
                t_comm = t_comm + cost
            else:  # _K_BARRIER
                typ1 = np.asarray([prim(j, probe[j], 1) for j in range(n)])
                cost = np.where(p_le1, 0.0, clog * typ1)
                if comm_scale is not None:
                    cost = cost * comm_scale
                t_comm = t_comm + cost
        total = t_compute + t_comm + serial
        mult = MULT[:, occ]
        ph_sec[name_idx] = ph_sec[name_idx] + mult * total
        ph_comp[name_idx] = ph_comp[name_idx] + mult * t_compute
        ph_comm[name_idx] = ph_comm[name_idx] + mult * t_comm
        ph_tf[name_idx] = ph_tf[name_idx] + mult * tf_sum
        ph_tb[name_idx] = ph_tb[name_idx] + mult * tb_sum

    elapsed = np.zeros(n)
    for arr in ph_sec:
        elapsed = elapsed + arr
    return p, elapsed, ph_sec, ph_comp, ph_comm, ph_tf, ph_tb


def _job_payloads(tape: Tape, lanes: tuple) -> list[tuple]:
    """The kernel's lanes as per-job ``run_batch`` payloads."""
    p, elapsed, ph_sec, ph_comp, ph_comm, ph_tf, ph_tb = lanes
    n_names = len(tape.names)
    payloads = []
    for j in range(len(p)):
        per_phase = tuple(
            (tape.names[i], float(ph_sec[i][j]), float(ph_comp[i][j]),
             float(ph_comm[i][j]), float(ph_tf[i][j]), float(ph_tb[i][j]))
            for i in range(n_names)
        )
        payloads.append((int(p[j]), float(elapsed[j]), per_phase))
    return payloads


def _column_chunk(tape: Tape, lanes: tuple, k: int,
                  start: int) -> ColumnChunk:
    """The kernel's lanes for one context as a ``k``-point chunk."""
    p, elapsed, ph_sec, ph_comp, ph_comm, ph_tf, ph_tb = lanes

    def lane(x: np.ndarray) -> np.ndarray:
        return x if x.shape[0] == k else np.full(k, x[0])

    def by_name(acc: list[np.ndarray]) -> dict[str, np.ndarray]:
        return {name: lane(arr) for name, arr in zip(tape.names, acc)}

    return ColumnChunk(
        start=start,
        n_ranks=int(p[0]),
        elapsed=lane(elapsed),
        phase_seconds=by_name(ph_sec),
        phase_compute=by_name(ph_comp),
        phase_comm=by_name(ph_comm),
        phase_flops_time=by_name(ph_tf),
        phase_bytes_time=by_name(ph_tb),
    )


def _on_new_pricing_model(_model: PricingModel) -> None:
    """A late-registered model may declare tape columns existing tapes
    lack; drop every compiled tape (and the payload memos keyed off their
    digests) so the next compile stacks the new columns."""
    _TAPES.clear()
    _RESULT_MEMO.clear()


on_pricing_registered(_on_new_pricing_model)


_SHARED: BatchAnalyticBackend | None = None


def shared_batch_backend() -> BatchAnalyticBackend:
    """Process-wide backend instance for the auto-routing call sites."""
    global _SHARED
    if _SHARED is None:
        _SHARED = BatchAnalyticBackend()
    return _SHARED


BACKENDS[BatchAnalyticBackend.name] = BatchAnalyticBackend
