"""Static resource-bound analysis: will this program even fit?

Pure arithmetic over the program's resource metadata and a
:class:`~repro.machine.capacity.PartitionCapacity` — no scheduler, no
mapping object, no network model:

* **Memory** — per-node working set (replicated x ranks + decomposed /
  nodes, the Table-IV split) against node memory: over is STA008 (with
  the minimum feasible node count when one exists), within 10% of the
  roof is STA009, a comfortable fit is STA017 (reported with
  ``include_ok``).
* **Cores** — ranks x threads against the node's core count (STA010) and
  against the NUMA/CMG domain structure (STA011: ranks that do not
  divide the cores evenly, or thread blocks that avoidably straddle a
  domain boundary — the Fig. 2 trap's static shadow).
* **NIC** — a lower bound on per-node injection time per step against
  the modeled step time (when the caller supplies one): when the floor
  alone is at least half the step, the program is network-bound on this
  partition and scaling it further mostly scales the wait (STA012,
  advice — OSU-style pure-communication microbenchmarks trip this by
  design).
* **Dead ops** — ops contributing exactly zero modeled work (STA016,
  advice): usually a generator bug upstream, always free to delete.
"""

from __future__ import annotations

import math

from repro.ir.ops import CommOp, ComputeOp, MemOp, Op, SerialOp
from repro.ir.program import Program
from repro.machine.capacity import PartitionCapacity
from repro.util.units import GB
from repro.verify.diagnostics import Diagnostic

__all__ = ["check_resources", "nic_floor_seconds"]


def _fmt_bytes(n: float) -> str:
    return f"{n / GB:.2f} GB"


def _memory_checks(program: Program, cap: PartitionCapacity,
                   include_ok: bool) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    replicated = program.replicated_bytes_per_rank * program.ranks_per_node
    distributed = program.distributed_bytes_total
    if replicated == 0 and distributed == 0:
        return diags  # synthetic program with no declared footprint
    per_node = cap.footprint_per_node(replicated, distributed)
    roof = cap.memory_bytes_per_node
    location = f"{program.name} @ {cap.cluster_name}/{cap.n_nodes} nodes"
    details = {
        "per_node_bytes": per_node,
        "node_memory_bytes": roof,
        "n_nodes": cap.n_nodes,
    }
    if per_node > roof:
        n_min = cap.min_feasible_nodes(replicated, distributed)
        if n_min is None:
            hint = ("the replicated footprint alone exceeds node memory; "
                    "no node count can fit this layout")
        else:
            hint = f"minimum feasible nodes: {n_min}"
            details["min_feasible_nodes"] = n_min
        diags.append(Diagnostic(
            "STA008",
            f"per-node footprint {_fmt_bytes(per_node)} exceeds "
            f"{_fmt_bytes(roof)} node memory at {cap.n_nodes} nodes",
            hint=hint,
            location=location,
            details=details,
        ))
    elif per_node > 0.9 * roof:
        diags.append(Diagnostic(
            "STA009",
            f"per-node footprint {_fmt_bytes(per_node)} is within 10% of "
            f"{_fmt_bytes(roof)} node memory",
            hint="page tables, MPI buffers and the OS live in the same "
            "memory; add nodes before this becomes an allocation failure",
            location=location,
            details=details,
        ))
    elif include_ok:
        diags.append(Diagnostic(
            "STA017",
            f"per-node footprint {_fmt_bytes(per_node)} fits "
            f"{_fmt_bytes(roof)} node memory "
            f"({100 * per_node / roof:.0f}% used)",
            location=location,
            details=details,
        ))
    return diags


def _layout_checks(program: Program,
                   cap: PartitionCapacity) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    rpn = program.ranks_per_node
    tpr = program.threads_per_rank
    cores = cap.cores_per_node
    location = f"{program.name}: {rpn} ranks x {tpr} threads per node"
    if rpn * tpr > cores:
        diags.append(Diagnostic(
            "STA010",
            f"{rpn} ranks x {tpr} threads = {rpn * tpr} threads "
            f"oversubscribe the {cores}-core node",
            hint="both evaluated systems disable SMT; oversubscription "
            "timeshares cores and destroys the roofline assumptions",
            location=location,
            details={"ranks_per_node": rpn, "threads_per_rank": tpr,
                     "cores": cores},
        ))
        return diags  # the finer placement checks presuppose feasibility
    dcores = cap.cores_per_domain
    if cores % rpn != 0:
        diags.append(Diagnostic(
            "STA011",
            f"{rpn} ranks per node do not divide the {cores} cores evenly",
            hint="uneven rank blocks unbalance per-rank memory bandwidth; "
            f"use a divisor of {cores}",
            location=location,
            details={"ranks_per_node": rpn, "cores": cores},
        ))
    elif tpr > 1 and tpr <= dcores and dcores % (cores // rpn) != 0:
        diags.append(Diagnostic(
            "STA011",
            f"thread blocks of {cores // rpn} cores straddle the "
            f"{dcores}-core {cap.domain_kind} boundary although "
            f"{tpr} threads would fit inside one domain",
            hint=f"align ranks to {cap.domain_kind}s (e.g. "
            f"{cores // dcores} ranks x {dcores} threads) to keep every "
            "thread's pages local",
            location=location,
            details={"cores_per_rank": cores // rpn,
                     "cores_per_domain": dcores},
        ))
    return diags


def _messages_per_rank(op: CommOp, p: int) -> float:
    """Injected message count per rank per occurrence (floor estimate)."""
    if p <= 1:
        return 0.0
    if op.kind == "halo":
        return float(min(op.neighbors, p - 1))
    if op.kind in ("ring", "p2p", "bcast", "reduce", "gather"):
        return 1.0
    if op.kind == "allreduce":
        return float(max(1, math.ceil(math.log2(p))))
    # allgather (ring) and alltoall move p-1 blocks per rank
    return float(p - 1)


def nic_floor_seconds(program: Program, cap: PartitionCapacity) -> float:
    """Lower bound on per-node NIC injection seconds per step."""
    p = cap.n_nodes * program.ranks_per_node
    total_bytes = 0.0
    for phase, mult in program.iter_phases():
        for op in phase.ops:
            if isinstance(op, CommOp) and op.count > 0:
                total_bytes += (mult * op.count * op.size
                                * _messages_per_rank(op, p))
    per_node_per_step = (
        total_bytes * program.ranks_per_node / max(1, program.steps))
    return per_node_per_step / cap.nic_bandwidth


def _nic_check(program: Program, cap: PartitionCapacity,
               elapsed_hint: float | None) -> list[Diagnostic]:
    if elapsed_hint is None or elapsed_hint <= 0:
        return []
    floor = nic_floor_seconds(program, cap)
    step = elapsed_hint / max(1, program.steps)
    if floor < 0.5 * step:
        return []
    return [Diagnostic(
        "STA012",
        f"NIC injection floor ({floor * 1e3:.2f} ms/step) is "
        f"{100 * floor / step:.0f}% of the modeled step time "
        f"({step * 1e3:.2f} ms): the program is network-bound at "
        f"{cap.n_nodes} nodes on {cap.cluster_name}",
        hint="adding nodes past this point mostly scales the wait; "
        "grow the per-node working set or aggregate messages",
        location=f"{program.name} @ {cap.cluster_name}/{cap.n_nodes} nodes",
        details={"nic_floor_seconds": floor, "step_seconds": step,
                 "nic_bandwidth": cap.nic_bandwidth},
    )]


def _is_zero_op(op: Op) -> bool:
    """Ops whose analytic contribution is exactly ``+0.0``."""
    if isinstance(op, SerialOp):
        return op.seconds == 0.0
    if isinstance(op, MemOp):
        return op.bytes_moved == 0.0
    if isinstance(op, ComputeOp):
        if op.seconds is not None:
            return op.seconds == 0.0
        return op.flops == 0.0 and op.bytes_moved == 0.0
    if isinstance(op, CommOp):
        return op.count <= 0
    return False  # Barrier


def _dead_op_check(program: Program) -> list[Diagnostic]:
    dead: list[str] = []
    for phase, _ in program.iter_phases():
        for op in phase.ops:
            if _is_zero_op(op):
                dead.append(f"{phase.name}/{type(op).__name__}")
    if not dead:
        return []
    return [Diagnostic(
        "STA016",
        f"{len(dead)} op(s) contribute zero modeled work: "
        + ", ".join(dead[:6]) + ("…" if len(dead) > 6 else ""),
        hint="delete them; emitting them usually means a generator "
        "filled in empty work quantities",
        location=program.name,
        details={"count": len(dead), "ops": dead[:32]},
    )]


def check_resources(
    program: Program,
    capacity: PartitionCapacity,
    *,
    elapsed_hint: float | None = None,
    include_ok: bool = False,
) -> list[Diagnostic]:
    """All static resource diagnostics for one program on one partition."""
    diags = _memory_checks(program, capacity, include_ok)
    diags.extend(_layout_checks(program, capacity))
    diags.extend(_nic_check(program, capacity, elapsed_hint))
    diags.extend(_dead_op_check(program))
    return diags
