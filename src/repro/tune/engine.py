"""The tuning engine: chunked pricing and frontier assembly.

The full point space is ``templates x pricing models x
points-per-template`` (see :mod:`repro.tune.space`); each (template,
pricing, chunk) triple is one *task*.  Tasks are priced through the
batched IR evaluator's column fast path
(:meth:`repro.ir.batch.BatchAnalyticBackend.run_override_columns`), so
a task costs one warm-tape lane evaluation instead of thousands of
``run_batch`` preparations.  Energy is derived per lane from the
:mod:`repro.power` node model and the tape's byte totals.

Each task reduces to its own Pareto-frontier candidates (the merge
property in :mod:`repro.tune.pareto` makes this exact), so only
frontier candidates are kept — the final pass over the merged
candidates yields the global frontier.  Chunk boundaries derive from
the memory budget alone and candidates are collected in task order.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any

import numpy as np

from repro.ir.batch import (
    DEFAULT_STREAM_BUDGET,
    BatchJob,
    Tape,
    compile_tape,
    shared_batch_backend,
    stream_chunk_points,
)
from repro.power.model import PowerModel, power_model_for
from repro.tune.pareto import pareto_indices
from repro.tune.report import TunePoint, TuneResult
from repro.tune.space import ConfigTemplate, TuneSpace, build_space
from repro.util.errors import ConfigurationError

__all__ = ["TuneSpec", "decode_point", "tune"]


@dataclass(frozen=True)
class TuneSpec:
    """Everything that defines one tuning run."""

    app: str
    cluster: str
    n_nodes: int = 16
    steps: int | None = None
    scenarios: int = 2
    scenario_spread: float = 0.15
    pricing: tuple[str, ...] = ("roofline", "ecm")
    memory_budget_bytes: int = DEFAULT_STREAM_BUDGET
    chunk_points: int | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError(
                f"n_nodes must be positive, got {self.n_nodes}")
        if self.steps is not None and self.steps < 1:
            raise ConfigurationError(
                f"steps must be positive, got {self.steps}")
        if self.chunk_points is not None and self.chunk_points < 1:
            raise ConfigurationError(
                f"chunk_points must be positive, got {self.chunk_points}")
        if not self.pricing:
            raise ConfigurationError("need at least one pricing model")


def decode_point(space: TuneSpace, point_id: int) -> dict[str, Any]:
    """Invert the global point numbering into one configuration.

    Global ids are ``(template * n_pricing + pricing) * P + local`` with
    ``P = space.points_per_template``; the local index unpacks as
    ``flag x page-policy x comm-scenario x bandwidth-scenario`` in
    row-major order — the same arithmetic :func:`_task_columns` uses to
    build the override columns, so decode(encode(i)) round-trips.
    """
    per = space.points_per_template
    tp, local = divmod(point_id, per)
    t_idx, p_idx = divmod(tp, len(space.pricing))
    n_pages = len(space.policies)
    n_bw = len(space.bandwidth_grid)
    s2 = len(space.comm_grid) * n_bw
    flag_i = local // (n_pages * s2)
    page_i = (local // s2) % n_pages
    comm_i, bw_i = divmod(local % s2, n_bw)
    template = space.templates[t_idx]
    return {
        "point_id": point_id,
        "pricing": space.pricing[p_idx],
        "compiler": template.compiler,
        "vectorization": template.vectorization,
        "ranks_per_node": template.ranks_per_node,
        "threads_per_rank": template.threads_per_rank,
        "flags": space.flags[flag_i].name,
        "page_policy": space.policies[page_i].value,
        "comm_scale": space.comm_grid[comm_i],
        "bandwidth_jitter": space.bandwidth_grid[bw_i],
        "template_index": t_idx,
    }


def _task_columns(
    space: TuneSpace, template: ConfigTemplate, lo: int, hi: int
) -> dict[str, np.ndarray]:
    """Override columns for local points ``[lo, hi)`` of one template."""
    n_pages = len(space.policies)
    n_bw = len(space.bandwidth_grid)
    s2 = len(space.comm_grid) * n_bw
    idx = np.arange(lo, hi)
    flag_i = idx // (n_pages * s2)
    page_i = (idx // s2) % n_pages
    sc = idx % s2
    rates = np.asarray([f.rate_scale for f in space.flags])
    pages = np.asarray(template.page_factors)
    comms = np.asarray(space.comm_grid)
    bws = np.asarray(space.bandwidth_grid)
    return {
        "rate_scale": rates[flag_i],
        "comm_scale": comms[sc // n_bw],
        "bandwidth_scale": pages[page_i] * bws[sc % n_bw],
    }


def _tape_bytes(tape: Tape) -> float:
    """Total bytes one program execution moves (rows x multiplicities)."""
    occ_of_row = np.asarray([row[0] for row in tape.rows], dtype=np.int64)
    mult = tape.occ_mult[occ_of_row].astype(np.float64)
    return float(np.sum(tape.cols["bytes"] * mult))


def _energy(
    elapsed: np.ndarray, *, bytes_total: float, steps: int, n_nodes: int,
    active_cores: int, power: PowerModel,
) -> np.ndarray:
    """Vectorized :func:`repro.power.app_energy` accounting per lane."""
    tts = elapsed * steps
    mem_gbs = (bytes_total / elapsed) / n_nodes / 1e9
    node_w = (power.idle_w + active_cores * power.core_active_w
              + mem_gbs * power.mem_w_per_gbs)
    result: np.ndarray = node_w * n_nodes * tts
    return result


class _TuneState:
    """Resolved tuning context: app, cluster, enumerated space."""

    def __init__(self, spec: TuneSpec) -> None:
        from repro.apps import get_app
        from repro.verify.runner import resolve_cluster

        self.spec = spec
        self.app = get_app(spec.app)
        self.cluster = resolve_cluster(spec.cluster, spec.n_nodes)
        self.space = build_space(
            self.app, self.cluster, spec.n_nodes,
            scenarios=spec.scenarios,
            scenario_spread=spec.scenario_spread,
            pricing=spec.pricing,
        )
        self.steps = (self.app.steps_per_run if spec.steps is None
                      else spec.steps)
        self.power = power_model_for(self.cluster)
        self.backend = shared_batch_backend()
        self._bytes: dict[int, float] = {}

    def chunk_points(self) -> int:
        """Uniform chunk size: explicit, else budget-derived from the
        first template's tape."""
        per = self.space.points_per_template
        if self.spec.chunk_points is not None:
            return min(self.spec.chunk_points, per)
        template = self.space.templates[0]
        tape = compile_tape(self.app.program(template.mapping))
        derived = stream_chunk_points(tape, self.spec.memory_budget_bytes)
        return min(derived, per)

    def tasks(self) -> list[tuple[int, int, int, int]]:
        """All (template, pricing, lo, hi) work units, canonical order."""
        per = self.space.points_per_template
        chunk = self.chunk_points()
        out: list[tuple[int, int, int, int]] = []
        for t_idx in range(len(self.space.templates)):
            for p_idx in range(len(self.space.pricing)):
                for lo in range(0, per, chunk):
                    out.append((t_idx, p_idx, lo, min(lo + chunk, per)))
        return out

    def price_task(
        self, task: tuple[int, int, int, int]
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """Price one task, reduce to its Pareto candidates.

        Returns ``(points_priced, candidate_ids, times, energies)`` with
        global point ids.
        """
        t_idx, p_idx, lo, hi = task
        space = self.space
        template = space.templates[t_idx]
        program = self.app.program(template.mapping)
        job = BatchJob(
            program, self.cluster, self.spec.n_nodes,
            mapping=template.mapping, binary=template.binary,
            check_memory=False, pricing=space.pricing[p_idx],
        )
        if t_idx not in self._bytes:
            self._bytes[t_idx] = _tape_bytes(compile_tape(program))
        columns = _task_columns(space, template, lo, hi)
        parts = [
            chunk.elapsed
            for chunk in self.backend.run_override_columns(
                job, columns,
                memory_budget_bytes=self.spec.memory_budget_bytes)
        ]
        elapsed = parts[0] if len(parts) == 1 else np.concatenate(parts)
        times = elapsed * self.steps
        energies = _energy(
            elapsed, bytes_total=self._bytes[t_idx], steps=self.steps,
            n_nodes=self.spec.n_nodes,
            active_cores=(template.ranks_per_node
                          * template.threads_per_rank),
            power=self.power,
        )
        front = pareto_indices(times, energies)
        base = (t_idx * len(space.pricing) + p_idx) * space.points_per_template
        ids = front + lo + base
        return hi - lo, ids, times[front], energies[front]


def _baseline(state: _TuneState) -> tuple[str, dict[str, tuple[float, float]]]:
    """Price the paper's Table III default configuration per pricing
    model: default compiler, auto-vectorization, the app's default
    placement, first-touch pages, ``-O3``, nominal scenario."""
    app, cluster, spec = state.app, state.cluster, state.spec
    mapping = app.mapping(cluster, spec.n_nodes)
    binary = app.build(cluster)
    program = app.program(mapping)
    bytes_total = _tape_bytes(compile_tape(program))
    label = binary.compiler.label
    desc = (f"{label}, auto vectorization, "
            f"{mapping.ranks_per_node}x{mapping.threads_per_rank}, "
            f"first-touch, -O3")
    out: dict[str, tuple[float, float]] = {}
    jobs = [
        BatchJob(program, cluster, spec.n_nodes, mapping=mapping,
                 binary=binary, check_memory=False, pricing=name)
        for name in state.space.pricing
    ]
    for name, result in zip(state.space.pricing,
                            state.backend.run_batch(jobs)):
        elapsed = np.asarray([result.elapsed])
        energy = _energy(
            elapsed, bytes_total=bytes_total, steps=state.steps,
            n_nodes=spec.n_nodes,
            active_cores=mapping.ranks_per_node * mapping.threads_per_rank,
            power=state.power,
        )
        out[name] = (result.elapsed * state.steps, float(energy[0]))
    return desc, out


def _explanations(
    state: _TuneState, points: list[TunePoint], top: int
) -> tuple[str, ...]:
    """Verify-layer rationale for the leading frontier points: the
    placement lint on the point's mapping/page policy plus the
    vectorization advisor on its toolchain."""
    from repro.smp import PagePolicy
    from repro.toolchain.profiles import COMPILERS
    from repro.verify.placement import check_mapping
    from repro.verify.vectorization import advise_build

    from repro.tune.space import _scalar_profile

    lines: list[str] = []
    distinct: list[TunePoint] = []
    seen: set[str] = set()
    for point in points:  # scenario twins share one explanation
        if point.config not in seen:
            seen.add(point.config)
            distinct.append(point)
    for point in distinct[:top]:
        profile = COMPILERS[point.compiler]
        if point.vectorization == "disabled":
            profile = _scalar_profile(profile)
        template = state.space.templates[point.template_index]
        diags = check_mapping(template.mapping,
                              policy=PagePolicy(point.page_policy))
        diags += advise_build(profile, state.app.kernels,
                              application=state.app.name)
        header = (f"{point.compiler} [{point.vectorization}] "
                  f"{point.ranks_per_node}x{point.threads_per_rank} "
                  f"{point.flags} pages={point.page_policy} "
                  f"({point.pricing}): {point.time_s:.3f} s, "
                  f"{point.energy_j / 1e3:.1f} kJ")
        lines.append(header)
        if diags:
            lines.extend(f"  {d.render()}" for d in diags)
        else:
            lines.append("  verify: clean placement and toolchain")
    return tuple(lines)


def tune(spec: TuneSpec, *, explain_top: int = 3) -> TuneResult:
    """Run one tuning sweep and return the exact Pareto frontier."""
    t0 = perf_counter()
    state = _TuneState(spec)
    space = state.space
    if not space.templates:
        raise ConfigurationError(
            f"no viable configuration for {spec.app!r} on "
            f"{spec.cluster!r}: "
            + "; ".join(e.reason for e in space.excluded[:4])
        )
    n_priced = 0
    cand_ids: list[np.ndarray] = []
    cand_t: list[np.ndarray] = []
    cand_e: list[np.ndarray] = []
    for task in state.tasks():
        n, task_ids, task_times, task_energies = state.price_task(task)
        n_priced += n
        cand_ids.append(task_ids)
        cand_t.append(task_times)
        cand_e.append(task_energies)

    ids = np.concatenate(cand_ids)
    times = np.concatenate(cand_t)
    energies = np.concatenate(cand_e)
    order = np.argsort(ids, kind="stable")
    ids, times, energies = ids[order], times[order], energies[order]

    def make_point(i: int) -> TunePoint:
        info = decode_point(space, int(ids[i]))
        return TunePoint(time_s=float(times[i]),
                         energy_j=float(energies[i]), **info)

    def sort_key(p: TunePoint) -> tuple[float, float, int]:
        return (p.time_s, p.energy_j, p.point_id)

    # One frontier per pricing model: an ECM estimate is never below the
    # roofline estimate of the same config (the ECM data term only
    # adds), so a single merged frontier would structurally exclude the
    # whole ECM arm.  The union-wide frontier is kept as well.
    per = space.points_per_template
    pricing_of = (ids // per) % len(space.pricing)
    frontiers: dict[str, tuple[TunePoint, ...]] = {}
    for p_idx, name in enumerate(space.pricing):
        sub = np.nonzero(pricing_of == p_idx)[0]
        front = pareto_indices(times[sub], energies[sub])
        sub_points = [make_point(int(sub[i])) for i in front]
        sub_points.sort(key=sort_key)
        frontiers[name] = tuple(sub_points)
    front = pareto_indices(times, energies)
    points = [make_point(int(i)) for i in front]
    points.sort(key=sort_key)
    best_time = points[0]
    best_energy = min(points,
                      key=lambda p: (p.energy_j, p.time_s, p.point_id))
    baseline_desc, baseline = _baseline(state)
    wall = perf_counter() - t0
    return TuneResult(
        app=space.app,
        cluster=space.cluster_name,
        n_nodes=spec.n_nodes,
        steps=state.steps,
        pricing=space.pricing,
        n_points=n_priced,
        n_templates=len(space.templates),
        n_excluded=len(space.excluded),
        excluded=tuple(
            f"{e.compiler} [{e.vectorization}]: {e.reason}"
            for e in space.excluded
        ),
        frontiers=frontiers,
        frontier=tuple(points),
        best_time=best_time,
        best_energy=best_energy,
        baseline_config=baseline_desc,
        baseline=baseline,
        explanations=_explanations(state, points, explain_top),
        wall_seconds=wall,
        points_per_second=n_priced / wall if wall > 0 else float("inf"),
    )
