"""Static analysis over the workload IR — no DES execution.

Two analyzer families over :class:`~repro.ir.program.Program` op
streams, all running in milliseconds:

* **Communication safety** (:mod:`~repro.ir.analyze.commsafety`) —
  per-rank symbolic unrolling (:mod:`~repro.ir.analyze.trace`) feeding an
  abstract matching walk: static deadlocks (STA001), unmatched
  point-to-point ops (STA002/STA003), collective divergence
  (STA004–STA006), and the eager/rendezvous overtaking hazard class that
  property testing once needed hours to find dynamically (STA007).
* **Resource bounds** (:mod:`~repro.ir.analyze.resources`) — per-node
  footprint vs memory, rank layout vs cores and NUMA/CMG domains, NIC
  injection floors (STA008–STA012, STA016/STA017), over
  :class:`~repro.machine.capacity.PartitionCapacity` facts.

Entry points: :func:`analyze_program` (full report),
:func:`static_clean` (memoized yes/no for backends), and the
``repro-lab analyze`` CLI.  Diagnostics share the
:mod:`repro.verify.diagnostics` stream; see ``docs/ANALYSIS.md``.
"""

from repro.ir.analyze.commsafety import check_traces
from repro.ir.analyze.catalog import (
    AnalysisTarget,
    BENCH_NAMES,
    bundled_targets,
    target,
)
from repro.ir.analyze.framework import (
    ANALYZE_VERSION,
    DEFAULT_CHECKS,
    analyze_program,
    static_clean,
)
from repro.ir.analyze.resources import check_resources, nic_floor_seconds
from repro.ir.analyze.trace import (
    CollEv,
    DEFAULT_EAGER_THRESHOLD,
    RecvEv,
    SendEv,
    Traces,
    unroll,
)

__all__ = [
    "ANALYZE_VERSION",
    "AnalysisTarget",
    "BENCH_NAMES",
    "CollEv",
    "DEFAULT_CHECKS",
    "DEFAULT_EAGER_THRESHOLD",
    "RecvEv",
    "SendEv",
    "Traces",
    "analyze_program",
    "bundled_targets",
    "check_resources",
    "check_traces",
    "nic_floor_seconds",
    "static_clean",
    "target",
    "unroll",
]
