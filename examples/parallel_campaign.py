#!/usr/bin/env python3
"""Experiment campaign: the sweep runner and its result cache.

Runs the full figure/table suite twice and compares wall time:

1. fresh, in-process;
2. from the on-disk result cache — a repeat sweep costs milliseconds, the
   output is byte-identical to the fresh run, and any source edit rolls
   the content-hash key so stale results are never served.

Also demonstrates the fast-collective substrate switch that makes large
sweep campaigns cheap: ``World(fast_collectives=True)`` replaces the
per-message collective simulation with closed-form schedules that agree
with the simulated path to machine precision on bulk-synchronous programs.

Run:  PYTHONPATH=src python examples/parallel_campaign.py
"""

import json
import tempfile
import time

from repro.harness.experiment import list_experiments
from repro.harness.parallel import run_experiments
from repro.machine import cte_arm
from repro.simmpi import RankMapping, ReduceOp, World


def main() -> None:
    ids = list_experiments()
    print(f"experiment suite: {len(ids)} experiments\n")

    # --- fresh vs cached --------------------------------------------------
    t0 = time.perf_counter()
    serial = run_experiments(ids)
    serial_s = time.perf_counter() - t0
    print(f"fresh:         {serial_s:6.2f}s")

    with tempfile.TemporaryDirectory() as cache:
        run_experiments(ids, cache_dir=cache)
        t0 = time.perf_counter()
        cached = run_experiments(ids, cache_dir=cache)
        cached_s = time.perf_counter() - t0
        print(f"cached rerun:  {cached_s:6.2f}s "
              f"({serial_s / max(cached_s, 1e-9):.0f}x)")
        assert json.dumps(cached) == json.dumps(serial)

    held = sum(1 for p in serial if p["result"]["all_hold"])
    print(f"\n{held}/{len(ids)} experiments hold all paper-vs-measured "
          "expectations\n")

    # --- the fast-collective substrate switch ----------------------------
    def program(comm):
        total = 0.0
        for _ in range(20):
            total = yield from comm.allreduce(
                total + comm.rank, op=ReduceOp.SUM, size=8
            )
        return total

    cluster = cte_arm(16)
    results = {}
    for fast in (False, True):
        mapping = RankMapping(cluster, n_nodes=16, ranks_per_node=4)
        world = World(mapping, fast_collectives=fast, trace="off")
        t0 = time.perf_counter()
        outcome = world.run(program)
        results[fast] = (time.perf_counter() - t0, outcome.elapsed)
    (sim_wall, sim_elapsed), (fast_wall, fast_elapsed) = (
        results[False], results[True]
    )
    print("64-rank allreduce campaign (20 iterations):")
    print(f"  simulated collectives: {sim_wall * 1e3:6.1f}ms wall, "
          f"virtual elapsed {sim_elapsed * 1e6:.2f}us")
    print(f"  fast collectives:      {fast_wall * 1e3:6.1f}ms wall "
          f"({sim_wall / fast_wall:.1f}x), "
          f"virtual elapsed {fast_elapsed * 1e6:.2f}us")
    assert fast_elapsed == sim_elapsed, "virtual time must agree"


if __name__ == "__main__":
    main()
