"""The ``service_mix`` workload: ``repro-lab serve`` under seeded traffic.

The load generator is this process: at most two threads, each owning one
keep-alive HTTP/1.1 connection, no retries.  Two request classes, drawn
50/50 by seed:

* ``hot`` — the six stock query shapes, repeated (memo and tape hits);
* ``whatif`` — a feasible app x cluster x node point with fresh seeded
  ``comm_scale``/``bandwidth_scale`` overrides (every one misses the
  result memo).

Two phases follow one warm pass: an open loop (Poisson arrivals at
:data:`RATE_HZ`, latency timed from each request's due time) and a
saturation phase in which both connections send back to back.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import socket
import sys
import threading
import time
from dataclasses import dataclass, field

from common import (
    FAILED,
    WORK,
    Child,
    child_script,
    last_json,
    median,
    percentile,
    run_child,
)

#: open-loop offered rate: about half of what two connections allow at
#: the ~46 ms p50 the service shows today.
RATE_HZ = 20.0
#: share of a run's measured seconds spent in the open loop (the rest is
#: the saturation phase).
OPEN_SHARE = 0.85
CONNECTIONS = 2
#: server starts per run; the median start is ``setup_s``.
SETUPS = 3
REQUEST_TIMEOUT_S = 10.0
SERVE_FLAGS = ["--quota-rate", "1e9", "--quota-burst", "1e9"]

HOT_SHAPES: tuple[dict, ...] = (
    {"workload": "stream", "cluster": "cte-arm", "n_nodes": 1},
    {"workload": "hpcg", "cluster": "cte-arm", "n_nodes": 8},
    {"workload": "linpack", "cluster": "mn4", "n_nodes": 16},
    {"workload": "nemo", "cluster": "cte-arm", "n_nodes": 16,
     "overrides": {"comm_scale": 1.25}},
    {"workload": "gromacs", "cluster": "cte-arm", "n_nodes": 8},
    {"workload": "wrf", "cluster": "cte-arm", "n_nodes": 4},
)

#: every app x cluster x node point the service prices without a 422.
WHATIF_POINTS: tuple[tuple[str, str, int], ...] = tuple(
    (app, cluster, n)
    for app, cluster, nodes in (
        ("nemo", "cte-arm", (8, 16, 32)),
        ("nemo", "mn4", (2, 4, 8, 16, 32)),
        ("gromacs", "cte-arm", (2, 4, 8, 16, 32)),
        ("gromacs", "mn4", (2, 4, 8, 16, 32)),
        ("wrf", "cte-arm", (2, 4, 8, 16, 32)),
        ("wrf", "mn4", (2, 4, 8, 16, 32)),
        ("alya", "cte-arm", (16, 32)),
        ("alya", "mn4", (4, 8, 16, 32)),
        ("openifs", "cte-arm", (32,)),
        ("openifs", "mn4", (8, 16, 32)),
    )
    for n in nodes
)


def _body(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def draw_request(rng: random.Random) -> tuple[str, bytes]:
    """One request of the mix: ``(class, JSON body)``."""
    if rng.random() < 0.5:
        return "hot", _body(HOT_SHAPES[rng.randrange(len(HOT_SHAPES))])
    app, cluster, n_nodes = WHATIF_POINTS[rng.randrange(len(WHATIF_POINTS))]
    return "whatif", _body({
        "workload": app, "cluster": cluster, "n_nodes": n_nodes,
        "overrides": {"comm_scale": rng.uniform(0.5, 2.0),
                      "bandwidth_scale": rng.uniform(0.5, 2.0)},
    })


def open_loop_schedule(seed: int, seconds: float
                       ) -> list[tuple[float, str, bytes]]:
    """Poisson arrivals at :data:`RATE_HZ` over ``seconds``:
    ``(due offset in s, class, body)``, a pure function of the seed."""
    arrivals = random.Random(f"perfbench/{seed}/arrivals")
    requests = random.Random(f"perfbench/{seed}/open")
    schedule = []
    due = 0.0
    while True:
        due += arrivals.expovariate(RATE_HZ)
        if due >= seconds:
            return schedule
        schedule.append((due, *draw_request(requests)))


def saturation_request(seed: int, index: int) -> tuple[str, bytes]:
    """The ``index``-th request of the saturation phase."""
    return draw_request(random.Random(f"perfbench/{seed}/saturation/{index}"))


def schedule_bytes(seed: int, seconds: float, saturation: int = 64) -> bytes:
    """A canonical serialization of everything the seed decides."""
    return json.dumps({
        "open": [[due, cls, body.decode()] for due, cls, body
                 in open_loop_schedule(seed, seconds * OPEN_SHARE)],
        "saturation": [[cls, body.decode()] for cls, body
                       in (saturation_request(seed, i)
                           for i in range(saturation))],
    }).encode()


@dataclass
class Sample:
    """One request as the client saw it (monotonic ns)."""

    phase: str
    cls: str
    body: bytes
    conn: int
    due: int
    sent: int
    done: int = 0
    status: int = 0  # 0 = transport error or timeout
    response: bytes = b""


@dataclass
class Server:
    """One ``repro-lab serve`` process and the two client connections."""

    child: Child
    conns: list[http.client.HTTPConnection] = field(default_factory=list)
    #: per connection (each is touched by one thread only)
    reconnects: list[int] = field(default_factory=lambda: [0] * CONNECTIONS)
    ready_ns: int = 0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _connect(port: int, deadline: float) -> http.client.HTTPConnection:
    while True:
        conn = http.client.HTTPConnection("127.0.0.1", port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            conn.connect()
            return conn
        except ConnectionRefusedError:
            conn.close()
            if time.monotonic() > deadline:
                raise
            time.sleep(0.005)


def _send(server: Server, index: int, sample: Sample) -> None:
    """One request on connection ``index``; never retried."""
    conn = server.conns[index]
    if conn.sock is None:  # the server closed it after the last reply
        server.reconnects[index] += 1
    try:
        conn.request("POST", "/v1/price", body=sample.body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        sample.response = response.read()
        sample.status = response.status
    except (OSError, http.client.HTTPException):
        conn.close()
        sample.status = 0
    sample.done = time.monotonic_ns()


def _both(work) -> None:
    """Run ``work(0)`` on this thread and ``work(1)`` on one more (the
    generator's two threads); re-raises what the other thread raised."""
    raised: list[BaseException] = []

    def other_side() -> None:
        try:
            work(1)
        except BaseException as exc:  # handed to the calling thread
            raised.append(exc)

    other = threading.Thread(target=other_side)
    other.start()
    try:
        work(0)
    finally:
        other.join()
    if raised:
        raise raised[0]


def start_server(traced: bool, spans_path: str | None = None) -> Server:
    """Start the server, open both connections, run one warm pass over
    the hot shapes.  ``ready_ns`` marks the end of that pass."""
    port = _free_port()
    serve_args = ["--port", str(port), *SERVE_FLAGS]
    argv = (child_script("serve-traced", spans_path, *serve_args) if traced
            else [sys.executable, "-m", "repro.harness.cli", "serve",
                  *serve_args])
    child = Child(argv)
    server = Server(child)
    deadline = time.monotonic() + 60.0
    try:
        server.conns = [_connect(port, deadline) for _ in range(CONNECTIONS)]
        warm: list[Sample] = []

        def warm_pass(index: int) -> None:
            for shape in HOT_SHAPES[index::CONNECTIONS]:
                now = time.monotonic_ns()
                sample = Sample("warm", "hot", _body(shape), index, now, now)
                _send(server, index, sample)
                warm.append(sample)

        _both(warm_pass)
        if any(s.status != 200 for s in warm):
            raise RuntimeError("warm pass failed")
    except BaseException:
        stop_server(server)
        raise
    server.ready_ns = time.monotonic_ns()
    return server


def stop_server(server: Server) -> int:
    for conn in server.conns:
        conn.close()
    return server.child.interrupt(timeout=15.0)


def _stats(server: Server) -> dict:
    conn = server.conns[0]
    conn.request("GET", "/v1/stats")
    response = conn.getresponse()
    return json.loads(response.read())


def drive(server: Server, seed: int, seconds: float) -> tuple[list, float]:
    """Open loop then saturation; returns the samples and the saturation
    phase's [start, last reply] span in seconds."""
    schedule = open_loop_schedule(seed, seconds * OPEN_SHARE)
    samples: list[Sample] = []
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))
    t0 = time.monotonic_ns()

    def open_loop(index: int) -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            offset, cls, body = schedule[i]
            due = t0 + int(offset * 1e9)
            wait = (due - time.monotonic_ns()) / 1e9
            if wait > 0:
                time.sleep(wait)
            sample = Sample("open", cls, body, index, due,
                            time.monotonic_ns())
            _send(server, index, sample)
            with lock:
                samples.append(sample)

    _both(open_loop)
    counter = iter(range(1 << 30))
    sat_start = time.monotonic_ns()
    sat_end = sat_start + int(seconds * (1.0 - OPEN_SHARE) * 1e9)

    def saturate(index: int) -> None:
        while time.monotonic_ns() < sat_end:
            with lock:
                i = next(counter)
            cls, body = saturation_request(seed, i)
            now = time.monotonic_ns()
            sample = Sample("saturation", cls, body, index, now, now)
            _send(server, index, sample)
            with lock:
                samples.append(sample)

    _both(saturate)
    last = max(s.done for s in samples if s.phase == "saturation")
    return samples, (last - sat_start) / 1e9


def check_bodies(samples: list[Sample]) -> set[int]:
    """Indices (into ``samples``) of 200 replies whose bytes differ from
    a direct ``run_batch`` re-pricing in a separate process."""
    WORK.mkdir(exist_ok=True)
    path = WORK / "service-bodies.jsonl"
    served = [i for i, s in enumerate(samples) if s.status == 200]
    with open(path, "w") as fh:
        for i in served:
            fh.write(json.dumps({"req": samples[i].body.decode(),
                                 "resp": samples[i].response.decode()})
                     + "\n")
    code, out, _ = run_child(child_script("check-service", str(path)), 120)
    path.unlink()
    if code != 0:
        return set(served)
    return {served[j] for j in last_json(out)["mismatched"]}


def session(seed: int, seconds: float, *, traced: bool = False,
            setups: int = SETUPS) -> dict:
    """Start ``setups`` servers (keeping the last), drive it, check every
    200 body, and summarise."""
    WORK.mkdir(exist_ok=True)
    spans_path = str(WORK / "service-spans.json")
    setup_s = []
    for k in range(setups):
        server = start_server(traced and k == setups - 1, spans_path)
        setup_s.append((server.ready_ns - server.child.spawn_ns) / 1e9)
        if k < setups - 1:
            stop_server(server)
    try:
        samples, saturation_s = drive(server, seed, seconds)
        stats = _stats(server)
    finally:
        exit_code = stop_server(server)
    bad = check_bodies(samples)
    ok = [s.status == 200 and i not in bad for i, s in enumerate(samples)]
    out = {
        "setup_s": median(setup_s),
        "setups_s": setup_s,
        "peak_rss_mb": server.child.peak_rss_mb,
        "server_exit": exit_code,
        "reconnects": sum(server.reconnects),
        "attempted": len(samples),
        "succeeded": sum(ok),
        "rejected": sum(s.status == 429 for s in samples),
        "errored": sum(s.status != 200 and s.status != 429
                       for s in samples),
        "check_mismatches": len(bad),
        "stats": stats,
    }
    opened = [(s, good) for s, good in zip(samples, ok) if s.phase == "open"]
    for cls in ("hot", "whatif"):
        lat = [(s.done - s.due) / 1e6 if good else FAILED
               for s, good in opened if s.cls == cls]
        out[f"{cls}_n"] = len(lat)
        out[f"{cls}_p50_ms"] = percentile(lat, 50)
        out[f"{cls}_p90_ms"] = percentile(lat, 90)
    lags = [(s.sent - s.due) / 1e6 for s, _ in opened]
    out["lag_p50_ms"] = percentile(lags, 50)
    out["lag_p90_ms"] = percentile(lags, 90)
    saturated = [good for s, good in zip(samples, ok)
                 if s.phase == "saturation"]
    out["saturation_n"] = len(saturated)
    out["capacity_rps"] = sum(saturated) / saturation_s
    if traced:
        with open(spans_path) as fh:
            spans = json.load(fh)
        os.unlink(spans_path)
        out["layers"] = layers(samples, spans, stats, out)
    return out


def _match(samples: list[Sample], handles: list[list]) -> list[tuple]:
    """Pair each client request with the server's ``handle`` span.

    Each connection is served by one server thread, so a server thread's
    spans belong to the connection whose request intervals contain most
    of them; within a connection, intervals are disjoint.
    """
    by_conn: dict[int, list[Sample]] = {}
    for s in samples:
        by_conn.setdefault(s.conn, []).append(s)
    by_thread: dict[int, list[list]] = {}
    for span in handles:
        by_thread.setdefault(span[3], []).append(span)
    pairs = []
    for spans in by_thread.values():
        def inside(conn: int) -> list[tuple]:
            found = []
            for span in spans:
                for s in by_conn.get(conn, ()):
                    if s.sent <= span[1] and span[2] <= s.done:
                        found.append((s, span))
                        break
            return found
        pairs.extend(max((inside(c) for c in by_conn), key=len))
    return pairs


def layers(samples: list[Sample], spans: list[list], stats: dict,
           out: dict) -> dict:
    """Per-layer metrics from the traced server's spans, over the open
    loop (``jobs_per_pass`` over the saturation phase)."""
    opened = [s for s in samples if s.phase == "open"]
    open_lo = min(s.sent for s in opened)
    open_hi = max(s.done for s in opened)
    sat = [s for s in samples if s.phase == "saturation"]
    sat_lo, sat_hi = min(s.sent for s in sat), max(s.done for s in sat)

    def during(name: str, lo: int, hi: int) -> list[list]:
        return [s for s in spans if s[0] == name and lo <= s[1] <= hi]

    def med_us(name: str) -> float:
        return median([(s[2] - s[1]) / 1e3
                       for s in during(name, open_lo, open_hi)])

    pairs = _match(opened, during("handle", open_lo, open_hi))
    transport = [((s.done - s.sent) - (span[2] - span[1])) / 1e6
                 for s, span in pairs]
    passes = during("run_batch", open_lo, open_hi)
    saturated = during("run_batch", sat_lo, sat_hi)
    waits = [w / 1e3 for p in passes for w in p[4]["waits_ns"]]

    def pass_us(cls: str) -> float:
        return median([(p[2] - p[1]) / 1e3 for p in passes
                       if p[4]["classes"] == [cls]])

    tape = stats["tape_cache"]
    lookups = tape["hits"] + tape["misses"]
    transport_ms = median(transport)
    return {
        "service.httpd.transport_ms": transport_ms,
        "service.httpd.transport_share_pct":
            100.0 * transport_ms / out["hot_p50_ms"],
        "service.hot.p50_traced_ms": out["hot_p50_ms"],
        "service.httpd.matched_requests": len(pairs),
        "service.core.parse_us": med_us("parse"),
        "service.core.encode_us": med_us("encode"),
        "service.core.job_for_us": med_us("job_for"),
        "service.batcher.wait_us": median(waits),
        "service.batcher.jobs_per_pass": (
            sum(p[4]["jobs"] for p in saturated) / max(1, len(saturated))),
        "ir.batch.run_batch_hot_us": pass_us("hot"),
        "ir.batch.run_batch_whatif_us": pass_us("whatif"),
        "ir.batch.tape_hit_ratio": tape["hits"] / lookups if lookups else 0.0,
        "ir.batch.tape_lookups": lookups,
        "service.generator.lag_p50_ms": out["lag_p50_ms"],
        "service.generator.lag_p90_ms": out["lag_p90_ms"],
    }
