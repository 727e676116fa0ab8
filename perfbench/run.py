"""The lab's benchmark: one workload, one run, every metric by name.

    python3 perfbench/run.py --workload service_mix --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and traced and reports the
per-layer metrics plus the tracing overhead.  Every output is checked.
Human-readable lines and one JSON report (host block, rationale, layer
map, the workload's own metric names) come first; the last stdout line
is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import batch
import service_mix
from common import ROOT, WORK, host_block, import_times_ms

#: why each workload exists and which end-to-end metric each of its
#: layer metrics should move (cite them by name).
WORKLOADS = {
    "service_mix": {
        "why": "The capacity-planning API as its users hit it, and the only "
               "workload on service.httpd, service.core and the admission "
               "batcher; hot and whatif separate memo and transport gains "
               "from preparation gains.",
        "layers": {
            "service.httpd.transport_ms": [
                "service.hot.p50_ms", "service.hot.p90_ms",
                "service.whatif.p50_ms", "service.whatif.p90_ms",
                "service.capacity_rps"],
            "service.core.parse_us": ["service.hot.p50_ms"],
            "service.core.encode_us": ["service.hot.p50_ms"],
            "service.core.job_for_us": ["service.whatif.p50_ms"],
            "service.batcher.wait_us": ["service.hot.p50_ms",
                                        "service.whatif.p50_ms"],
            "service.batcher.jobs_per_pass": ["service.capacity_rps"],
            "ir.batch.run_batch_hot_us": ["service.hot.p50_ms"],
            "ir.batch.run_batch_whatif_us": ["service.whatif.p50_ms"],
            "ir.batch.tape_hit_ratio": ["service.whatif.p50_ms"],
        },
    },
    "tune_nemo": {
        "why": "ir.batch through override columns, where the service uses "
               "stacked jobs; a cost-kernel change that helps one path and "
               "costs the other shows here.  Bypasses service and DES.",
        "layers": {
            "tune.space.build_s": ["tune.wall_s"],
            "ir.batch.columns_s": ["tune.wall_s"],
            "ir.batch.columns_calls": ["tune.wall_s"],
            "tune.pareto_s": ["tune.wall_s"],
            "tune.pareto_calls": ["tune.wall_s"],
            "tune.other_s": ["tune.wall_s"],
        },
    },
    "des_nemo768": {
        "why": "The only workload on des, simmpi and des.shard; the single "
               "and sharded pair is what the sharded-DES decision rule "
               "needs, and a gain on one that slows the other shows here.",
        "layers": {
            "ir.lower_s": ["des.wall_s"],
            "simmpi.world_run_s": ["des.wall_s"],
            "des.events": ["des.wall_s"],
            "des.shard.compute_max_s": ["des.sharded_wall_s"],
            "des.shard.sync_s": ["des.sharded_wall_s"],
            "des.shard.windows": ["des.sharded_wall_s"],
            "des.shard.cross_messages": ["des.sharded_wall_s"],
        },
    },
    "paper_suite": {
        "why": "The repo's purpose and the only workload on harness, the "
               "apps sweep memo and the bench, smp and network models; "
               "start-up is about half its wall, so import work shows "
               "here first.",
        "layers": {
            "harness.paper_s": ["paper.wall_s"],
            "harness.extensions_s": ["paper.wall_s"],
            "apps.sweep_s": ["paper.wall_s"],
            "apps.sweep_calls": ["paper.wall_s"],
            "ir.analytic.run_s": ["paper.wall_s"],
        },
    },
}
#: import-time layers (paid by every workload's set-up) -> module.
IMPORT_LAYERS = {
    "setup.import.repro_ms": "repro",
    "setup.import.numpy_ms": "numpy",
    "setup.import.networkx_ms": "networkx",
}

#: what the four end-to-end metrics mean on each workload.
END_TO_END = {
    "service_mix": {"p50_ms": "service.hot.p50_ms",
                    "rate_per_s": "service.capacity_rps"},
    "tune_nemo": {"p50_ms": "tune.wall_s (in ms)",
                  "rate_per_s": "points priced per second of tune.wall_s"},
    "des_nemo768": {"p50_ms": "des.wall_s (in ms)",
                    "rate_per_s": "events per second of des.wall_s"},
    "paper_suite": {"p50_ms": "paper.wall_s (in ms)",
                    "rate_per_s": "paper-vs-measured checks per second of "
                                  "paper.wall_s"},
}


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"),
                         ("_mb", "MB"), ("_rps", "1/s"), ("_pct", "%"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def service_run(seed: int, seconds: float, trace: bool) -> dict:
    if not trace:
        s = service_mix.session(seed, seconds)
        named = {
            "setup_s": s["setup_s"],
            "peak_rss_mb": s["peak_rss_mb"],
            "service.hot.p50_ms": s["hot_p50_ms"],
            "service.hot.p90_ms": s["hot_p90_ms"],
            "service.whatif.p50_ms": s["whatif_p50_ms"],
            "service.whatif.p90_ms": s["whatif_p90_ms"],
            "service.capacity_rps": s["capacity_rps"],
            "service.generator.lag_p50_ms": s["lag_p50_ms"],
            "service.generator.lag_p90_ms": s["lag_p90_ms"],
        }
        sessions = [s]
        headline = {"setup_s": s["setup_s"], "peak_rss_mb": s["peak_rss_mb"],
                    "p50_ms": s["hot_p50_ms"],
                    "rate_per_s": s["capacity_rps"]}
    else:
        # two half-length sessions keep a traced run as long as a plain one
        plain = service_mix.session(seed, seconds / 2, setups=1)
        traced = service_mix.session(seed, seconds / 2, traced=True,
                                     setups=1)
        named = dict(traced["layers"])
        named["trace.overhead_pct"] = (
            100.0 * (traced["hot_p50_ms"] - plain["hot_p50_ms"])
            / plain["hot_p50_ms"])
        sessions = [plain, traced]
        headline = named
    failed = sum(s["attempted"] - s["succeeded"] for s in sessions)
    return {
        "named": named,
        "headline": headline,
        "attempted": sum(s["attempted"] for s in sessions),
        "failed": failed,
        "correct": failed == 0 and all(s["server_exit"] == 0
                                       for s in sessions),
        "accounting": [
            {key: s[key] for key in (
                "attempted", "succeeded", "rejected", "errored",
                "check_mismatches", "reconnects", "hot_n", "whatif_n",
                "saturation_n", "setups_s", "server_exit")}
            for s in sessions],
    }


def batch_run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    reps = getattr(batch, name)(seed, seconds, trace)
    out = {"attempted": reps.attempted, "failed": reps.failed,
           "correct": reps.failed == 0,
           "accounting": {"attempted": reps.attempted,
                          "succeeded": reps.attempted - reps.failed,
                          "rejected": 0, "errored": reps.failed,
                          "reps": len(reps.records),
                          "traced_reps": len(reps.traced),
                          "failures": reps.failures}}
    if reps.failed:
        out["named"] = out["headline"] = {}
        return out
    summary = batch.summarise(name, reps)
    if trace:
        out["named"] = out["headline"] = batch.traced_layers(name, reps)
    else:
        out["named"] = summary
        out["headline"] = batch.headline(name, summary, reps)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "harness" / "cli.py").is_file() \
            or not (ROOT / "EXPERIMENTS.md").is_file():
        print(f"no source tree under {ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        if args.workload == "service_mix":
            run = service_run(args.seed, args.seconds, bool(args.trace))
        else:
            run = batch_run(args.workload, args.seed, args.seconds,
                            bool(args.trace))
        if args.trace and run["correct"]:
            imports = import_times_ms()
            for key, module in IMPORT_LAYERS.items():
                run["named"][key] = imports[module]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    info = WORKLOADS[args.workload]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_block(),
        "why": info["why"],
        "layer_map": {**info["layers"],
                      **{key: ["setup_s"] for key in IMPORT_LAYERS}},
        "end_to_end_meaning": END_TO_END[args.workload],
        "accounting": run["accounting"],
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in run["named"].items()},
    }
    for name, metric in report["metrics"].items():
        print(f"{name:36s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(report, sort_keys=True))
    # a layer the workload never reaches reads 0 (no time, no calls)
    metrics = {m["name"]: {"value": run["headline"].get(m["name"], 0.0),
                           "unit": m["unit"]}
               for m in wanted} if run["headline"] else {}
    print(json.dumps({"correct": run["correct"],
                      "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
