"""Hypothesis strategies for random simulated-MPI programs and random
fault schedules.

A drawn :class:`ProgramSpec` is a deterministic SPMD program — a sequence
of collective/point-to-point/compute operations every rank executes in
lockstep — compiled to a rank-program generator by :meth:`ProgramSpec.build`.
All ranks run the same op list (so collective call sequences always match)
and every operand is derived from the op's parameters and the rank id, so
two runs of the same spec are bit-identical.

``fault_schedules`` draws :class:`~repro.resilience.FaultSchedule`\\ s
over a fixed node count; ``allow_crash=False`` restricts the mix to
degradation-only events (link degrade/recover, slowdown, noise) — the
subset for which "faults never make a run faster" is a theorem (a crash
can shorten a run by killing ranks early).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from hypothesis import strategies as st

from repro.resilience import (
    FaultSchedule,
    LinkDegrade,
    LinkRecover,
    NodeCrash,
    NoiseBurst,
    SlowdownOnset,
)

#: op kinds a ProgramSpec may contain; ops carrying a size use
#: power-of-two payloads straddling the eager threshold.
_SIZES = (64, 4096, 65536, 262144)


@dataclass(frozen=True)
class ProgramSpec:
    """A reproducible SPMD program: (op, arg) pairs run by every rank."""

    n_ranks: int
    ops: tuple[tuple[str, int], ...]

    def build(self):
        """Compile to a rank-program generator function."""
        ops = self.ops

        def program(comm) -> Generator[Any, Any, Any]:
            comm.set_phase("prop")
            acc: Any = float(comm.rank + 1)
            p = comm.size
            for step, (op, arg) in enumerate(ops):
                if op == "barrier":
                    yield from comm.barrier()
                elif op == "allreduce":
                    acc = yield from comm.allreduce(acc, size=arg)
                elif op == "bcast":
                    root = arg % p
                    payload = acc if comm.rank == root else None
                    acc = yield from comm.bcast(payload, root=root, size=64)
                elif op == "reduce":
                    root = arg % p
                    got = yield from comm.reduce(acc, root=root, size=64)
                    acc = got if comm.rank == root else acc
                elif op == "allgather":
                    blocks = yield from comm.allgather(acc, size=arg)
                    acc = sum(blocks)
                elif op == "alltoall":
                    out = yield from comm.alltoall(
                        [comm.rank * p + d for d in range(p)], size=arg
                    )
                    acc = float(sum(out))
                elif op == "compute":
                    yield from comm.compute(arg * 1e-6)
                elif op == "ring":
                    if p > 1:
                        got = yield from comm.sendrecv(
                            (comm.rank + 1) % p,
                            acc,
                            source=(comm.rank - 1) % p,
                            tag=1000 + step,
                            size=arg,
                        )
                        acc = got
                else:  # pragma: no cover - strategy never draws this
                    raise AssertionError(f"unknown op {op!r}")
            return acc

        return program


def _ops(kinds: tuple[str, ...]) -> st.SearchStrategy:
    def one(kind: str) -> st.SearchStrategy:
        if kind in ("barrier",):
            return st.just((kind, 0))
        if kind in ("bcast", "reduce"):
            return st.tuples(st.just(kind), st.integers(0, 7))
        if kind == "compute":
            return st.tuples(st.just(kind), st.integers(1, 50))
        return st.tuples(st.just(kind), st.sampled_from(_SIZES))

    return st.one_of([one(k) for k in kinds])


#: every op kind; ``collective_only=True`` below restricts to the subset
#: on which the analytic fast path is *exact* for arbitrary entry skew:
#: the symmetric collectives (every rank waits on messages from others,
#: so no completion is ever clamped to the collective's last arrival)
#: plus uniform compute.  Rooted collectives (bcast/reduce) let the root
#: run ahead in the DES via eager sends while the fast path resumes it at
#: the last arrival — a documented approximation, differentially covered
#: by the fixed-program tests and the 5% suite in test_fastcoll.py.
_ALL_KINDS = ("barrier", "allreduce", "bcast", "reduce", "allgather",
              "alltoall", "compute", "ring")
_COLLECTIVE_KINDS = ("barrier", "allreduce", "allgather", "alltoall",
                     "compute")


@st.composite
def program_specs(draw, *, collective_only: bool = False,
                  max_ops: int = 6) -> ProgramSpec:
    """Draw a random SPMD program over 2, 4 or 8 ranks."""
    n_ranks = draw(st.sampled_from([2, 4, 8]))
    kinds = _COLLECTIVE_KINDS if collective_only else _ALL_KINDS
    ops = draw(st.lists(_ops(kinds), min_size=1, max_size=max_ops))
    return ProgramSpec(n_ranks=n_ranks, ops=tuple(ops))


#: CommOp kinds drawn for random IR programs.  Restricted to the subset on
#: which fastcoll ≡ DES holds exactly for arbitrary entry skew: the
#: symmetric collectives (allreduce/allgather/alltoall/barrier) plus the
#: ops the fast path never touches (halo/ring/p2p sendrecvs, gather).
#: The rooted bcast/reduce are excluded for the same reason they are
#: excluded from ``_COLLECTIVE_KINDS`` above.
_IR_EXACT_COMM = ("allreduce", "allgather", "alltoall", "halo", "ring",
                  "p2p", "gather")


@st.composite
def ir_programs(draw, *, max_phases: int = 3, max_ops: int = 3,
                max_steps: int = 3, rich: bool = False):
    """Draw a random bulk-synchronous :class:`repro.ir.Program`.

    Structure: ``steps`` repetitions of 1..``max_phases`` phases, each
    holding fixed-seconds compute, barriers, and exact-subset CommOps.
    Rank counts are chosen by the test (programs carry no rank count);
    use power-of-two ranks so the fastcoll allreduce stays exact.

    ``rich=True`` widens the op mix with the analytic-only shapes the
    batched tape must price — SerialOps, MemOps, explicit-rate roofline
    ComputeOps, fractional CommOp counts — and wraps some phases in
    nested loops, including zero- and one-trip loops.  Rich programs are
    meant for batch-vs-scalar properties, not DES differentials (the DES
    subsamples fractional-count CommOps by step index).
    """
    from repro.ir import (
        Barrier,
        CommOp,
        ComputeOp,
        Loop,
        MemOp,
        Phase,
        Program,
        SerialOp,
    )

    kinds = ("compute", "barrier", "comm")
    if rich:
        kinds = kinds + ("serial", "mem", "roofline")

    def one_op(i):
        kind = draw(st.sampled_from(kinds))
        if kind == "compute":
            return ComputeOp(seconds=draw(st.integers(1, 50)) * 1e-6,
                             imbalance=draw(st.sampled_from([1.0, 1.25]))
                             if rich else 1.0)
        if kind == "barrier":
            return Barrier()
        if kind == "serial":
            return SerialOp(draw(st.integers(0, 30)) * 1e-6)
        if kind == "mem":
            return MemOp(float(draw(st.sampled_from((0, 4096, 1 << 20)))))
        if kind == "roofline":
            return ComputeOp(
                flops=float(draw(st.sampled_from((0, 10**6, 10**9)))),
                bytes_moved=float(draw(st.sampled_from((0, 1 << 16)))),
                rate_per_core=draw(st.sampled_from((1e9, 4e9))),
                imbalance=draw(st.sampled_from([1.0, 1.5])),
            )
        return CommOp(
            draw(st.sampled_from(_IR_EXACT_COMM)),
            draw(st.sampled_from(_SIZES)),
            count=draw(st.sampled_from([1.0, 2.0, 0.5] if rich
                                       else [1.0, 2.0])),
            neighbors=draw(st.sampled_from([2, 4, 6])),
        )

    n_phases = draw(st.integers(1, max_phases))
    phases = tuple(
        Phase(
            f"p{i}",
            tuple(one_op(i) for _ in range(draw(st.integers(1, max_ops)))),
        )
        for i in range(n_phases)
    )
    body: tuple = phases
    if rich and draw(st.booleans()):
        # wrap a suffix of the phases in a nested loop (possibly empty
        # or single-trip — the tape's multiplicity edge cases)
        cut = draw(st.integers(0, len(phases)))
        trips = draw(st.sampled_from([0, 1, 2, 5]))
        body = phases[:cut] + (Loop(trips, phases[cut:]),)
    steps = draw(st.integers(1, max_steps))
    return Program(name="random-ir", body=(Loop(steps, body),),
                   steps=steps)


@st.composite
def clean_ir_programs(draw, *, max_phases: int = 3, max_ops: int = 3,
                      max_steps: int = 3):
    """Draw a random SPMD IR program that is statically clean **by
    construction** — the zero-false-positive half of the defect-injection
    property.

    Construction rules (each closes one real diagnostic class):

    * all ranks run the same op stream (collective sequences agree);
    * every point-to-point pattern is one of the symmetric exchanges the
      lowering matches pairwise (halo/ring/p2p);
    * all user-level sendrecvs in one program share a single payload size:
      they share the one ``("user", 0)`` matching channel, so mixing a
      rendezvous-sized send with a later eager-sized one would be a *true*
      overtaking hazard, not a false positive.

    Collective payloads still vary freely (instance-numbered channels), a
    rooted collective may appear with either root, and a trailing
    collective is always present so trace-level defect injection has a
    victim.
    """
    from repro.ir import Barrier, CommOp, ComputeOp, Loop, Phase, Program

    p2p_size = draw(st.sampled_from(_SIZES))
    kinds = ("compute", "barrier", "allreduce", "allgather", "alltoall",
             "bcast", "reduce", "halo", "ring", "p2p")

    def one_op():
        kind = draw(st.sampled_from(kinds))
        if kind == "compute":
            return ComputeOp(seconds=draw(st.integers(1, 50)) * 1e-6)
        if kind == "barrier":
            return Barrier()
        if kind in ("halo", "ring", "p2p"):
            return CommOp(kind, p2p_size,
                          neighbors=draw(st.sampled_from((2, 4, 6))))
        root = draw(st.integers(0, 1)) if kind in ("bcast", "reduce") else 0
        return CommOp(kind, draw(st.sampled_from(_SIZES)), root=root)

    n_phases = draw(st.integers(1, max_phases))
    phases = tuple(
        Phase(f"p{i}",
              tuple(one_op() for _ in range(draw(st.integers(1, max_ops)))))
        for i in range(n_phases)
    ) + (Phase("sync", (CommOp("allreduce", 64),)),)
    steps = draw(st.integers(1, max_steps))
    return Program(name="random-clean-ir", body=(Loop(steps, phases),),
                   steps=steps)


#: trace-level defect kinds :func:`defect_cases` injects; the fourth kind,
#: ``oversize_footprint``, mutates the program instead of the traces.
_TRACE_DEFECTS = ("drop_collective", "skew_collective_kind",
                  "skew_collective_size")


@dataclass(frozen=True)
class DefectCase:
    """A statically-clean program plus one seeded defect.

    ``mutate_traces`` applies trace-level defects (asymmetric by nature,
    so they are injected into one rank's unrolled trace rather than the
    SPMD program); ``mutated_program`` applies the program-level
    footprint defect.  The analyzer must stay silent on the unmutated
    artifact and flag the mutated one.
    """

    program: Any
    n_ranks: int
    defect: str

    def mutate_traces(self, traces):
        """Inject the defect into rank 1's trace (trace-level kinds)."""
        from repro.ir.analyze import CollEv, Traces

        assert self.defect in _TRACE_DEFECTS
        victim = list(traces.per_rank[1])
        at = next(i for i, ev in enumerate(victim)
                  if isinstance(ev, CollEv))
        ev = victim[at]
        if self.defect == "drop_collective":
            del victim[at]
        elif self.defect == "skew_collective_kind":
            new_kind = "allreduce" if ev.kind != "allreduce" else "barrier"
            victim[at] = ev._replace(kind=new_kind)
        else:  # skew_collective_size
            victim[at] = ev._replace(size=ev.size + 777)
        per_rank = list(traces.per_rank)
        per_rank[1] = victim
        return Traces(
            n_ranks=traces.n_ranks,
            per_rank=per_rank,
            eager_threshold=traces.eager_threshold,
            truncated=traces.truncated,
            op_labels=traces.op_labels,
        )

    def mutated_program(self, memory_bytes_per_node: float):
        """The program with a per-rank footprint no node can hold."""
        from dataclasses import replace

        assert self.defect == "oversize_footprint"
        return replace(self.program,
                       replicated_bytes_per_rank=2.0 * memory_bytes_per_node)


@st.composite
def defect_cases(draw) -> DefectCase:
    """Draw a clean program and one defect to seed into it."""
    program = draw(clean_ir_programs())
    n_ranks = draw(st.sampled_from([2, 4, 8]))
    defect = draw(st.sampled_from(_TRACE_DEFECTS + ("oversize_footprint",)))
    return DefectCase(program=program, n_ranks=n_ranks, defect=defect)


@st.composite
def traffic_configs(draw, *, max_stages: int = 3,
                    max_rate_hz: float = 200.0):
    """Draw a reproducible open-loop traffic shape for the service
    harness (:mod:`repro.service.traffic`).

    Scenario workloads are synthetic labels — schedule generation never
    resolves them, so the determinism/monotonicity/mix properties run
    without pricing anything.  Rates may be zero (a silent stage is a
    legal ramp segment the hazard inversion must skip).
    """
    from repro.service.traffic import Scenario, TrafficConfig

    n_stages = draw(st.integers(1, max_stages))
    stages = tuple(
        (
            draw(st.sampled_from((0.25, 0.5, 1.0, 2.0))),
            draw(st.sampled_from((0.0, 5.0, 25.0, 80.0, max_rate_hz))),
        )
        for _ in range(n_stages)
    )
    # at least one stage must offer load or every schedule is empty
    if all(rate == 0.0 for _, rate in stages):
        stages = stages[:-1] + ((stages[-1][0], 25.0),)
    n_scenarios = draw(st.integers(1, 4))
    scenarios = tuple(
        Scenario(
            name=f"s{i}",
            workload=f"synthetic-{i}",
            n_nodes=draw(st.sampled_from((1, 4, 16))),
            weight=draw(st.sampled_from((0.5, 1.0, 2.0, 4.0))),
        )
        for i in range(n_scenarios)
    )
    return TrafficConfig(
        stages=stages,
        scenarios=scenarios,
        n_clients=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@st.composite
def fault_schedules(draw, *, n_nodes: int, horizon: float = 0.02,
                    allow_crash: bool = True,
                    max_events: int = 4) -> FaultSchedule:
    """Draw a random fault schedule over ``n_nodes`` nodes."""
    nodes = st.integers(0, n_nodes - 1)
    times = st.floats(0.0, horizon, allow_nan=False, allow_infinity=False)
    factors = st.floats(0.2, 0.9, allow_nan=False)
    degrade = st.builds(
        LinkDegrade, times, node=nodes, factor=factors,
        direction=st.sampled_from(["recv", "send", "both"]),
    )
    recover = st.builds(
        LinkRecover, times, node=nodes,
        direction=st.sampled_from(["recv", "send", "both"]),
    )
    slowdown = st.builds(SlowdownOnset, times, node=nodes, factor=factors)
    noise = st.builds(
        NoiseBurst, times,
        duration=st.floats(horizon * 0.05, horizon * 0.5, allow_nan=False),
        amplitude=st.floats(0.05, 0.5, allow_nan=False),
    )
    events = [degrade, recover, slowdown, noise]
    if allow_crash:
        # at most one crash, never node 0 (rank 0 aggregates results)
        crash_nodes = st.integers(min(1, n_nodes - 1), n_nodes - 1)
        events.append(st.builds(NodeCrash, times, node=crash_nodes))
    drawn = draw(st.lists(st.one_of(events), min_size=0,
                          max_size=max_events))
    crashes = [e for e in drawn if isinstance(e, NodeCrash)]
    if len(crashes) > 1:
        keep = crashes[0]
        drawn = [e for e in drawn
                 if not isinstance(e, NodeCrash) or e is keep]
    return FaultSchedule(drawn)
