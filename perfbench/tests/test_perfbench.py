"""Tests of the benchmark's own logic (no server, no package import).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import service_mix  # noqa: E402
from common import FAILED, percentile, samples_beyond  # noqa: E402
from service_mix import Sample  # noqa: E402


def _run_seconds() -> float:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return float(json.load(fh)["run_seconds"])


def test_same_seed_gives_byte_identical_schedule():
    seconds = _run_seconds()
    assert service_mix.schedule_bytes(7, seconds) == \
        service_mix.schedule_bytes(7, seconds)
    assert service_mix.schedule_bytes(7, seconds) != \
        service_mix.schedule_bytes(8, seconds)


def test_whatif_requests_are_all_distinct():
    schedule = service_mix.open_loop_schedule(3, _run_seconds())
    whatif = [body for _, cls, body in schedule if cls == "whatif"]
    assert len(set(whatif)) == len(whatif)


@pytest.mark.parametrize("q", [50, 90, 99])
def test_failed_request_lands_above_every_percentile(q):
    latencies = [float(ms) for ms in range(1, 1001)]
    with_failure = latencies[:-1] + [FAILED]
    assert percentile(with_failure, q) < FAILED
    # replacing the slowest sample by a failure never lowers a percentile
    assert percentile(with_failure, q) >= percentile(latencies, q)
    # a failure in place of the fastest sample raises the median
    assert percentile([FAILED] + latencies[1:], 50) > \
        percentile(latencies, 50)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    open_seconds = _run_seconds() * service_mix.OPEN_SHARE
    for seed in range(40):
        schedule = service_mix.open_loop_schedule(seed, open_seconds)
        for cls in ("hot", "whatif"):
            n = sum(1 for _, c, _ in schedule if c == cls)
            assert samples_beyond(n, 90) >= 10, (seed, cls, n)


def test_generator_uses_two_threads_at_most():
    seen: set[int] = set()
    counts: list[int] = []
    before = threading.active_count()

    def work(index: int) -> None:
        seen.add(threading.get_ident())
        counts.append(threading.active_count())

    service_mix._both(work)
    assert len(seen) == service_mix.CONNECTIONS == 2
    assert max(counts) <= before + 1


def test_server_spans_pair_with_their_connection():
    # two overlapping connections; each server thread serves one of them
    samples = [Sample("open", "hot", b"", 0, 0, 100, 200),
               Sample("open", "hot", b"", 1, 0, 150, 260),
               Sample("open", "hot", b"", 0, 0, 300, 400)]
    spans = [["handle", 110, 190, 7, {}], ["handle", 160, 250, 8, {}],
             ["handle", 310, 390, 7, {}]]
    pairs = service_mix._match(samples, spans)
    assert sorted((s.sent, span[1]) for s, span in pairs) == \
        [(100, 110), (150, 160), (300, 310)]
