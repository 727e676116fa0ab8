"""The batch workloads: ``tune_nemo``, ``des_nemo768`` and ``paper_suite``.

Every repetition is a fresh process.  A run repeats until its measured
seconds are used up (at least :data:`MIN_REPS` times) and reports
medians.  With tracing, untraced and traced repetitions alternate, so
the tracing overhead is measured on the same host state.
"""

from __future__ import annotations

import json
import sys
import time

from common import HERE, ROOT, child_script, last_json, median, run_child

MIN_REPS = 3
REP_TIMEOUT_S = 150.0
TUNE_POINTS = 1_105_920
DES_RANKS = 768
#: the 20 paper experiments plus 17 extension ablations, 141 checks.
PAPER_EXPERIMENTS = 37
PAPER_CHECKS = 141


def _pinned_digests() -> dict[str, str]:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)["tune_nemo_frontier_sha256"]


class Reps:
    """Per-repetition records of one run, with failure accounting."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def values(self, key: str) -> list[float]:
        return [r[key] for r in self.records]


def _repeat(seconds: float, traced: bool, one) -> Reps:
    """Call ``one(reps, traced_rep)`` until ``seconds`` have passed."""
    reps = Reps()
    start = time.monotonic()
    k = 0
    while k < MIN_REPS * (2 if traced else 1) \
            or time.monotonic() - start < seconds:
        one(reps, traced and k % 2 == 1)
        k += 1
    return reps


def _child_rep(reps: Reps, kind: str, traced: bool, check) -> None:
    """One ``perfbench/child.py`` repetition: run, parse, check."""
    argv = child_script(kind, *(["--trace"] if traced else []))
    code, out, child = run_child(argv, REP_TIMEOUT_S)
    try:
        record = last_json(out) if code == 0 else None
    except ValueError:
        record = None
    if record is None:
        reps.attempted += 1
        reps.fail(f"{kind} child exited {code}")
        return
    record["setup_s"] = (record["ready_ns"] - child.spawn_ns) / 1e9
    record["peak_rss_mb"] = child.peak_rss_mb
    record["process_s"] = (child.exit_ns - child.spawn_ns) / 1e9
    check(reps, record)
    (reps.traced if traced else reps.records).append(record)


def tune_nemo(seed: int, seconds: float, traced: bool) -> Reps:
    pinned = _pinned_digests()

    def check(reps: Reps, record: dict) -> None:
        reps.attempted += 1
        if record["n_points"] != TUNE_POINTS:
            reps.fail(f"tune priced {record['n_points']} points")
        elif record["digests"] != pinned:
            reps.fail("tune frontier digests differ from expected.json")

    return _repeat(seconds, traced,
                   lambda reps, t: _child_rep(reps, "tune", t, check))


def des_nemo768(seed: int, seconds: float, traced: bool) -> Reps:
    def check(reps: Reps, record: dict) -> None:
        reps.attempted += 2  # the single-engine and the sharded run
        if record["n_ranks"] != DES_RANKS:
            reps.fail(f"des ran {record['n_ranks']} ranks")
        if not record["identical"]:
            reps.fail("sharded result differs from the single engine")

    return _repeat(seconds, traced,
                   lambda reps, t: _child_rep(reps, "des", t, check))


def _paper_rep(reps: Reps, traced: bool) -> None:
    """A fresh ``repro-lab list`` on the first :data:`MIN_REPS`
    repetitions (the set-up samples), then a fresh suite."""
    record = {}
    if len(reps.records) + len(reps.traced) < MIN_REPS:
        reps.attempted += 1
        code, out, child = run_child(
            [sys.executable, "-m", "repro.harness.cli", "list"],
            REP_TIMEOUT_S)
        if code != 0 or len(out.split()) != PAPER_EXPERIMENTS:
            reps.fail(f"repro-lab list exited {code}")
            return
        record["setup_s"] = (child.exit_ns - child.spawn_ns) / 1e9
    reps.attempted += 1
    if traced:
        code, out, child = run_child(child_script("paper-traced"),
                                     REP_TIMEOUT_S)
        ok = code == 0 and last_json(out)["identical"]
        if ok:
            record["layers"] = last_json(out)["layers"]
    else:
        code, out, child = run_child(
            [sys.executable, "-m", "repro.harness.cli", "experiments-md"],
            REP_TIMEOUT_S)
        ok = code == 0 and out == (ROOT / "EXPERIMENTS.md").read_text()
    if not ok:
        reps.fail("experiments-md output differs from EXPERIMENTS.md")
        return
    record["process_s"] = (child.exit_ns - child.spawn_ns) / 1e9
    record["peak_rss_mb"] = child.peak_rss_mb
    (reps.traced if traced else reps.records).append(record)


def paper_suite(seed: int, seconds: float, traced: bool) -> Reps:
    return _repeat(seconds, traced, _paper_rep)


#: each workload's timed units: metric name -> record key.
UNITS = {"tune_nemo": {"tune.wall_s": "wall_s"},
         "des_nemo768": {"des.wall_s": "single_s",
                         "des.sharded_wall_s": "sharded_s"},
         "paper_suite": {"paper.wall_s": "process_s"}}


def summarise(name: str, reps: Reps) -> dict:
    """The named metrics of one batch workload: medians over its
    untraced repetitions."""
    out = {"setup_s": median([r["setup_s"] for r in reps.records
                              if "setup_s" in r]),
           "peak_rss_mb": median(reps.values("peak_rss_mb"))}
    for metric, key in UNITS[name].items():
        out[metric] = median(reps.values(key))
    return out


def headline(name: str, summary: dict, reps: Reps) -> dict:
    """The end-to-end metrics of ``BENCHMARK.json`` for one batch
    workload: its first timed unit, and the work done per second.

    ``des.sharded_wall_s`` is reported but not gated: with both cores
    busy it drifted 1.08-1.65 s across ten runs on the shared host."""
    if name == "tune_nemo":
        unit = summary["tune.wall_s"]
        rate = TUNE_POINTS / unit
    elif name == "des_nemo768":
        unit = summary["des.wall_s"]
        rate = reps.records[0]["events"] / unit
    else:
        unit = summary["paper.wall_s"]
        rate = PAPER_CHECKS / unit
    return {"setup_s": summary["setup_s"],
            "peak_rss_mb": summary["peak_rss_mb"],
            "p50_ms": 1e3 * unit, "rate_per_s": rate}


def traced_layers(name: str, reps: Reps) -> dict:
    """Median of every per-layer value over the traced repetitions, and
    the traced-vs-untraced overhead of the timed unit."""
    key = next(iter(UNITS[name].values()))
    layers = {
        metric: median([r["layers"][metric] for r in reps.traced])
        for metric in reps.traced[0]["layers"]
    }
    untraced = median(reps.values(key))
    traced = median([r[key] for r in reps.traced])
    layers["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    return layers
