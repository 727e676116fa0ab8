"""Live resilience state of one world: the injector process, failure
bookkeeping, and the diagnostic stream.

A :class:`ResilienceState` is created by :class:`~repro.simmpi.world.World`
when a :class:`~repro.resilience.schedule.FaultSchedule` or a
:class:`~repro.resilience.policy.ResiliencePolicy` is attached.  It

* runs the **fault injector** — a DES process that sleeps until each
  scheduled event and applies it (mutating the network's fault state
  through :meth:`~repro.network.model.NetworkModel.apply_fault_transition`,
  the world's heterogeneity model, or the noise amplitude, or killing the
  rank processes of a crashed node);
* wraps every rank program in a **supervisor** that converts
  :class:`~repro.util.errors.RankFailureError` into a
  :class:`~repro.resilience.policy.RankFailure` outcome and records
  per-rank finish times (so ``WorldResult.elapsed`` is the last *rank*
  finishing, not the schedule horizon);
* collects **detections** — which surviving rank first noticed which
  failure, and when — into the same
  :class:`~repro.verify.diagnostics.DiagnosticReport` stream the verify
  subsystem emits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.resilience.policy import RankFailure, ResiliencePolicy
from repro.resilience.schedule import (
    FaultSchedule,
    LinkDegrade,
    LinkRecover,
    NodeCrash,
    NoiseBurst,
    SlowdownOnset,
)
from repro.util.errors import RankFailureError

if TYPE_CHECKING:
    from repro.des.engine import Process
    from repro.simmpi.world import World
    from repro.verify.diagnostics import DiagnosticReport


@dataclass(frozen=True)
class Detection:
    """One surviving rank noticing one failure."""

    by_rank: int
    peer: int
    node: int
    time: float


class ResilienceState:
    """Everything dynamic-fault-related that one ``World.run`` tracks."""

    def __init__(self, world: "World", schedule: FaultSchedule,
                 policy: ResiliencePolicy):
        from repro.verify.diagnostics import DiagnosticReport

        self.world = world
        self.schedule = schedule
        self.policy = policy
        self.failed_nodes: set[int] = set()
        self.failed_ranks: dict[int, RankFailure] = {}
        self.finish_times: dict[int, float] = {}
        self.detections: list[Detection] = []
        self.suspects: list[Detection] = []
        self.report: "DiagnosticReport" = DiagnosticReport(
            title="dynamic faults"
        )
        self._rank_processes: dict[int, "Process"] = {}
        self._expected_ranks = 0
        max_node = schedule.max_node()
        if max_node >= world.mapping.n_nodes:
            from repro.util.errors import ConfigurationError

            raise ConfigurationError(
                f"fault schedule targets node {max_node}, mapping has "
                f"{world.mapping.n_nodes}"
            )

    # -- run wiring (called by World.run) -----------------------------------

    def start_injector(self) -> None:
        """Register the injector process (before the rank processes, so
        t=0 events apply before any rank takes its first step)."""
        if not self.schedule.is_empty():
            self.world.engine.process(self._injector(), label="fault-injector")

    def attach_processes(
        self, processes: "list[Process] | dict[int, Process]"
    ) -> None:
        """Register the rank processes this state supervises.

        A full world passes the list for ranks 0..n-1; a sharded
        sub-world passes a dict for its local ranks only — a crash of a
        node whose ranks live elsewhere then only flips the fault state
        here, and the owning shard records the rank deaths.
        """
        if isinstance(processes, dict):
            self._rank_processes = dict(processes)
        else:
            self._rank_processes = dict(enumerate(processes))
        self._expected_ranks = len(self._rank_processes)

    def supervise(self, rank: int,
                  gen: Generator[Any, Any, Any]) -> Generator[Any, Any, Any]:
        """Wrap a rank program: RankFailureError becomes a RankFailure
        outcome, and completion times are recorded either way."""
        world = self.world
        try:
            value = yield from gen
        except RankFailureError as exc:
            failure = RankFailure(
                rank=rank,
                node=world.mapping.node_of(rank),
                time=world.engine.now,
                reason=str(exc),
                kind=exc.kind,
            )
            self._record_failure(failure)
            return failure
        self.finish_times[rank] = world.engine.now
        return value

    def elapsed(self, fallback: float) -> float:
        """Last rank completion (normal or failed); the injector's tail
        events must not inflate the reported elapsed time."""
        if (self._expected_ranks
                and len(self.finish_times) == self._expected_ranks):
            return max(self.finish_times.values())
        return fallback

    # -- queries (used by the robust communicator) --------------------------

    def is_node_failed(self, node: int) -> bool:
        return node in self.failed_nodes

    def note_detection(self, by_rank: int, peer: int, time: float) -> None:
        from repro.verify.diagnostics import Diagnostic

        node = self.world.mapping.node_of(peer)
        self.detections.append(Detection(by_rank, peer, node, time))
        self.report.add(Diagnostic(
            "RES002",
            f"rank {by_rank} detected failure of rank {peer} "
            f"(node {node}) at t={time:.6g}s",
            location=f"rank {by_rank}",
            details={"by_rank": by_rank, "peer": peer, "node": node,
                     "time": time},
        ))

    def note_suspect(self, by_rank: int, peer: int, time: float) -> None:
        from repro.verify.diagnostics import Diagnostic

        node = self.world.mapping.node_of(peer)
        self.suspects.append(Detection(by_rank, peer, node, time))
        self.report.add(Diagnostic(
            "RES003",
            f"rank {by_rank} exhausted recv retries against rank {peer} "
            f"(node {node}, no failure evidence) at t={time:.6g}s",
            hint="raise recv_timeout/max_retries if the peer is a "
                 "straggler rather than dead",
            location=f"rank {by_rank}",
            details={"by_rank": by_rank, "peer": peer, "node": node,
                     "time": time},
        ))

    def note_send_failure(self, rank: int, dest: int, time: float) -> None:
        from repro.verify.diagnostics import Diagnostic

        self.report.add(Diagnostic(
            "RES010",
            f"rank {rank}: rendezvous send to rank {dest} timed out "
            f"(unreachable destination) at t={time:.6g}s",
            location=f"rank {rank}",
            details={"rank": rank, "dest": dest, "time": time},
        ))

    def _record_failure(self, failure: RankFailure) -> None:
        self.failed_ranks[failure.rank] = failure
        self.finish_times[failure.rank] = failure.time

    # -- the injector process ----------------------------------------------

    def _transitions(self) -> list[tuple[float, Callable[[], None]]]:
        """Flatten the schedule into timed thunks (bursts contribute a
        start and an end transition)."""
        out: list[tuple[float, Callable[[], None]]] = []
        for ev in self.schedule:
            if isinstance(ev, NoiseBurst):
                out.append((ev.at, lambda e=ev: self._noise_start(e)))
                out.append((ev.at + ev.duration,
                            lambda e=ev: self._noise_end(e)))
            else:
                out.append((ev.at, lambda e=ev: self._apply(e)))
        out.sort(key=lambda pair: pair[0])
        return out

    def _injector(self) -> Generator[Any, Any, None]:
        engine = self.world.engine
        for at, thunk in self._transitions():
            delay = at - engine.now
            if delay > 0.0:
                yield delay
            thunk()

    def _apply(self, ev) -> None:
        if isinstance(ev, NodeCrash):
            self._apply_crash(ev)
        elif isinstance(ev, LinkDegrade):
            self._apply_degrade(ev)
        elif isinstance(ev, LinkRecover):
            self._apply_recover(ev)
        elif isinstance(ev, SlowdownOnset):
            self._apply_slowdown(ev)
        else:  # pragma: no cover - schedule validation forbids this
            raise AssertionError(f"unhandled fault event {ev!r}")

    def _apply_crash(self, ev: NodeCrash) -> None:
        from repro.verify.diagnostics import Diagnostic

        world = self.world
        node = ev.node
        if node in self.failed_nodes:
            return
        now = world.engine.now
        self.failed_nodes.add(node)
        world.network.apply_fault_transition(
            lambda fm: fm.degrade_sender(node, 0.0).degrade_receiver(node, 0.0)
        )
        killed = []
        mapping = world.mapping
        for rank in range(mapping.n_ranks):
            if mapping.node_of(rank) != node:
                continue
            proc = self._rank_processes.get(rank)
            if proc is None:
                continue  # rank lives in another shard; its owner kills it
            failure = RankFailure(rank=rank, node=node, time=now,
                                  reason=f"node {node} crashed", kind="crash")
            if proc.kill(failure):
                self._record_failure(failure)
                killed.append(rank)
        self.report.add(Diagnostic(
            "RES001",
            f"node {node} crashed at t={now:.6g}s, "
            f"terminating rank(s) {killed}",
            location=f"node {node}",
            details={"node": node, "time": now, "ranks": killed},
        ))

    def _apply_degrade(self, ev: LinkDegrade) -> None:
        from repro.verify.diagnostics import Diagnostic

        world = self.world

        def mutate(fm):
            if ev.direction in ("recv", "both"):
                fm.degrade_receiver(ev.node, ev.factor)
            if ev.direction in ("send", "both"):
                fm.degrade_sender(ev.node, ev.factor)

        world.network.apply_fault_transition(mutate)
        self.report.add(Diagnostic(
            "RES004",
            f"node {ev.node} {ev.direction} bandwidth degraded to "
            f"{ev.factor:g}x at t={world.engine.now:.6g}s",
            location=f"node {ev.node}",
            details={"node": ev.node, "factor": ev.factor,
                     "direction": ev.direction, "time": world.engine.now},
        ))

    def _apply_recover(self, ev: LinkRecover) -> None:
        from repro.verify.diagnostics import Diagnostic

        world = self.world

        def mutate(fm):
            if ev.direction in ("recv", "both"):
                fm.restore_receiver(ev.node)
            if ev.direction in ("send", "both"):
                fm.restore_sender(ev.node)

        world.network.apply_fault_transition(mutate)
        self.report.add(Diagnostic(
            "RES005",
            f"node {ev.node} {ev.direction} link(s) recovered at "
            f"t={world.engine.now:.6g}s",
            location=f"node {ev.node}",
            details={"node": ev.node, "direction": ev.direction,
                     "time": world.engine.now},
        ))

    def _apply_slowdown(self, ev: SlowdownOnset) -> None:
        from repro.bench.variability import HeterogeneityModel
        from repro.verify.diagnostics import Diagnostic

        world = self.world
        if world.heterogeneity is None:
            world.heterogeneity = HeterogeneityModel()
        het = world.heterogeneity
        if ev.core is None:
            if ev.factor == 1.0:
                het.node_factors.pop(ev.node, None)
            else:
                het.node_factors[ev.node] = ev.factor
            where = f"node {ev.node}"
        else:
            key = (ev.node, ev.core)
            if ev.factor == 1.0:
                het.core_factors.pop(key, None)
            else:
                het.core_factors[key] = ev.factor
            where = f"node {ev.node} core {ev.core}"
        self.report.add(Diagnostic(
            "RES006",
            f"straggler onset: {where} compute at {ev.factor:g}x from "
            f"t={world.engine.now:.6g}s",
            location=where,
            details={"node": ev.node, "core": ev.core, "factor": ev.factor,
                     "time": world.engine.now},
        ))

    def _noise_start(self, ev: NoiseBurst) -> None:
        from repro.verify.diagnostics import Diagnostic

        world = self.world
        self._saved_noise = world.compute_noise
        world.compute_noise = max(world.compute_noise, ev.amplitude)
        self.report.add(Diagnostic(
            "RES007",
            f"OS-noise burst: amplitude {ev.amplitude:g} for "
            f"{ev.duration:g}s from t={world.engine.now:.6g}s",
            location="cluster",
            details={"amplitude": ev.amplitude, "duration": ev.duration,
                     "time": world.engine.now},
        ))

    def _noise_end(self, ev: NoiseBurst) -> None:
        self.world.compute_noise = getattr(self, "_saved_noise", 0.0)
