"""One repetition of a workload in a fresh process (so in-process memos
start cold, as they do for a user), optionally traced.

    python perfbench/child.py tune [--trace]
    python perfbench/child.py des [--trace]
    python perfbench/child.py paper-traced
    python perfbench/child.py serve-traced SPANS_FILE SERVE_ARGS...
    python perfbench/child.py check-service BODIES_FILE

The last stdout line is one JSON object.  ``ready_ns`` is the
CLOCK_MONOTONIC instant the child was ready for its first timed unit;
the parent subtracts its own spawn instant from it to get set-up time.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from tracer import Tracer


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def tune_rep(traced: bool) -> dict:
    from repro.ir.batch import BatchAnalyticBackend
    from repro.tune import TuneSpec, tune
    import repro.tune.engine as engine

    spec = TuneSpec(app="nemo", cluster="cte-arm", n_nodes=16, scenarios=16)
    tracer = Tracer()
    if traced:
        tracer.wrap(engine, "build_space", "build_space")
        tracer.wrap(engine, "pareto_indices", "pareto")
        tracer.wrap_generator(BatchAnalyticBackend, "run_override_columns",
                              "columns")
    ready_ns = time.monotonic_ns()
    t0 = time.perf_counter()
    result = tune(spec)  # the CLI default: workers=0
    wall = time.perf_counter() - t0
    payload = result.to_dict()
    out = {
        "ready_ns": ready_ns,
        "wall_s": wall,
        "n_points": result.n_points,
        "digests": {
            **{name: _digest(points)
               for name, points in payload["frontiers"].items()},
            "union": _digest(payload["frontier"]),
        },
    }
    if traced:
        build = tracer.total_s("build_space")
        columns = tracer.total_s("columns")
        pareto = tracer.total_s("pareto")
        out["layers"] = {
            "tune.space.build_s": build,
            "ir.batch.columns_s": columns,
            "ir.batch.columns_calls": tracer.count("columns"),
            "tune.pareto_s": pareto,
            "tune.pareto_calls": tracer.count("pareto"),
            "tune.other_s": wall - build - columns - pareto,
        }
    return out


def des_rep(traced: bool) -> dict:
    from repro.apps import get_app
    from repro.ir.desbackend import DESBackend
    from repro.machine import cte_arm
    import repro.des.shard as shard
    import repro.ir.desbackend as desbackend
    from repro.simmpi.world import World

    tracer = Tracer()
    if traced:
        tracer.wrap(desbackend, "lower", "lower")
        tracer.wrap(World, "run", "world_run",
                    note=lambda a, k, r: {
                        "events": a[0].engine.events_processed})
        tracer.wrap(shard, "run_sharded", "run_sharded",
                    note=lambda a, k, r: r[1].to_dict())
    app = get_app("nemo")
    cluster = cte_arm(16)
    program = app.program(app.mapping(cluster, 16), steps=1)
    backend = DESBackend()
    ready_ns = time.monotonic_ns()
    t0 = time.perf_counter()
    single = backend.run(program, cluster, 16, trace="off")
    t1 = time.perf_counter()
    sharded = backend.run(program, cluster, 16, trace="off",
                          shards=2, shard_workers=2)
    t2 = time.perf_counter()
    out = {
        "ready_ns": ready_ns,
        "single_s": t1 - t0,
        "sharded_s": t2 - t1,
        "n_ranks": single.n_ranks,
        "events": sharded.shard_stats["events"],
        "identical": (single.elapsed == sharded.elapsed
                      and bool(single.phase_seconds)
                      and single.phase_seconds == sharded.phase_seconds),
    }
    if traced:
        (world,) = [s for s in tracer.spans if s[0] == "world_run"]
        (run,) = [s for s in tracer.spans if s[0] == "run_sharded"]
        stats = run[4]
        compute_max = max(stats["shard_wall_s"].values())
        out["layers"] = {
            "ir.lower_s": tracer.total_s("lower"),
            "simmpi.world_run_s": (world[2] - world[1]) / 1e9,
            "des.events": world[4]["events"],
            "des.shard.compute_max_s": compute_max,
            "des.shard.sync_s": (run[2] - run[1]) / 1e9 - compute_max,
            "des.shard.windows": stats["windows"],
            "des.shard.cross_messages": stats["cross_messages"],
        }
    return out


def paper_traced() -> dict:
    import contextlib
    import io
    from pathlib import Path

    import repro.harness.cli as cli
    from repro.apps.base import AppModel
    from repro.ir.analytic import AnalyticBackend

    tracer = Tracer()
    tracer.wrap(cli, "run_experiment", "run_experiment",
                note=lambda a, k, r: {"id": a[0]})
    tracer.wrap(AppModel, "sweep_timings", "sweep")
    tracer.wrap(AnalyticBackend, "run", "analytic_run")
    buffer = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["experiments-md"])
    wall = time.perf_counter() - t0
    expected = Path("EXPERIMENTS.md").read_text()
    runs = [s for s in tracer.spans if s[0] == "run_experiment"]
    paper = [s for s in runs if not s[4]["id"].startswith("ext_")]
    return {
        "wall_s": wall,
        "identical": (code == 0 and len(paper) == 20
                      and buffer.getvalue() == expected),
        "layers": {
            "harness.paper_s": sum(e - s for _, s, e, *_ in paper) / 1e9,
            "harness.extensions_s": (sum(e - s for _, s, e, *_ in runs)
                                     / 1e9
                                     - sum(e - s for _, s, e, *_ in paper)
                                     / 1e9),
            "apps.sweep_s": tracer.total_s("sweep"),
            "apps.sweep_calls": tracer.count("sweep"),
            "ir.analytic.run_s": tracer.total_s("analytic_run"),
        },
    }


def serve_traced(spans_path: str, *serve_args: str) -> None:
    """``repro-lab serve`` with spans around the service layers; the
    spans are written when the server shuts down (SIGINT)."""
    import threading

    import repro.harness.cli as cli
    import repro.service.core as core
    from repro.ir.batch import BatchAnalyticBackend

    tracer = Tracer()
    local = threading.local()
    submitted: dict[int, tuple[int, str]] = {}

    def request_class(args: tuple, kwargs: dict, start: int) -> None:
        payload = args[1]
        overrides = payload.get("overrides") if isinstance(payload, dict) \
            else None
        local.cls = ("whatif" if isinstance(overrides, dict)
                     and "bandwidth_scale" in overrides else "hot")

    def on_submit(args: tuple, kwargs: dict, start: int) -> None:
        submitted[id(args[1])] = (start, getattr(local, "cls", "hot"))

    def on_pass(args: tuple, kwargs: dict, start: int) -> None:
        jobs = args[1]
        waits = []
        classes = set()
        for job in jobs:
            entry, cls = submitted.pop(id(job), (None, None))
            if entry is not None:
                waits.append(start - entry)
                classes.add(cls)
        local.pass_info = {"jobs": len(jobs), "waits_ns": waits,
                           "classes": sorted(classes)}

    tracer.wrap(core.CapacityService, "handle", "handle",
                enter=request_class)
    tracer.wrap(core.Query, "from_request", "parse")
    tracer.wrap(core, "encode_result", "encode")
    tracer.wrap(core.CapacityService, "job_for", "job_for")
    tracer.wrap(core.AdmissionBatcher, "submit", "submit", enter=on_submit)
    tracer.wrap(BatchAnalyticBackend, "run_batch", "run_batch",
                enter=on_pass, note=lambda a, k, r: local.pass_info)
    try:
        cli.main(["serve", *serve_args])
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)


def check_service(bodies_path: str) -> dict:
    """Re-price every served 200 body directly through ``run_batch`` and
    compare bytes.  Input: JSON lines ``{"req": ..., "resp": ...}``."""
    from repro.ir.batch import BatchAnalyticBackend
    from repro.service.core import (
        CapacityService,
        Query,
        ServiceConfig,
        encode_result,
    )

    backend = BatchAnalyticBackend()
    expected: dict[str, str] = {}
    mismatched: list[int] = []
    with CapacityService(ServiceConfig()) as reference, \
            open(bodies_path) as fh:
        for index, line in enumerate(fh):
            record = json.loads(line)
            request = record["req"]
            if request not in expected:
                query = Query.from_request(json.loads(request))
                result = backend.run_batch([reference.job_for(query)])[0]
                expected[request] = json.dumps(
                    encode_result(query, result), sort_keys=True)
            if expected[request] != record["resp"]:
                mismatched.append(index)
    return {"mismatched": mismatched, "distinct": len(expected)}


def main(argv: list[str]) -> int:
    kind, rest = argv[0], argv[1:]
    if kind == "serve-traced":
        serve_traced(*rest)
        return 0
    if kind == "tune":
        out = tune_rep("--trace" in rest)
    elif kind == "des":
        out = des_rep("--trace" in rest)
    elif kind == "paper-traced":
        out = paper_traced()
    elif kind == "check-service":
        out = check_service(rest[0])
    else:
        print(f"unknown child kind {kind!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
