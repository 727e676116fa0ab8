"""Capacity-planning service: core semantics + the concurrency suite.

The load-bearing guarantees (ISSUE 8):

* responses served through the admission batcher are **bit-identical**
  to direct serial ``BatchAnalyticBackend.run_batch`` calls, under
  concurrent hammering;
* no query is dropped or double-answered under races;
* quota rejections are a pure function of a seeded arrival schedule;
* evicting a warm tape under memory pressure never changes results and
  the eviction policy actually bounds resident tape bytes;
* the pinned JSON response shapes in ``tests/golden/
  service_responses.json`` (regenerate with ``--update-golden``).
"""

from __future__ import annotations

import json
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.ir import Program, Phase, ComputeOp
from repro.ir.batch import (
    BatchAnalyticBackend,
    BatchJob,
    compile_tape,
    set_tape_budget,
    tape_cache_stats,
)
from repro.machine import cte_arm
from repro.service import (
    AdmissionBatcher,
    CapacityService,
    Query,
    ServiceConfig,
    ServiceError,
    TokenBucket,
    TrafficConfig,
    arrival_schedule,
    encode_result,
)
from repro.service.traffic import Scenario
from repro.util.errors import ConfigurationError

GOLDEN_DIR = Path(__file__).parent / "golden"

#: fast service knobs for tests: generous quota.
_FAST = ServiceConfig(quota_rate=1e6, quota_burst=1e6)


def _mixed_queries() -> list[Query]:
    """A representative query mix: benches + apps, both clusters, with
    and without overrides."""
    return [
        Query("stream", "cte-arm", 1),
        Query("hpcg", "cte-arm", 8),
        Query("osu", "cte-arm", 8),
        Query("linpack", "mn4", 16),
        Query("nemo", "cte-arm", 16, overrides=(("comm_scale", 1.25),)),
        Query("gromacs", "cte-arm", 8,
              overrides=(("bandwidth_scale", 0.5),)),
        Query("wrf", "mn4", 4),
        Query("alya", "cte-arm", 12, steps=2),
    ]


# -- token bucket -------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.try_acquire(0.0) == (True, 0.0)
        assert bucket.try_acquire(0.0) == (True, 0.0)
        granted, retry = bucket.try_acquire(0.0)
        assert not granted and retry == pytest.approx(0.1)
        # a tenth of a second refills exactly one token
        assert bucket.try_acquire(0.1) == (True, 0.0)

    def test_deterministic_replay(self):
        stamps = [0.0, 0.01, 0.02, 0.5, 0.51, 0.52, 0.53, 2.0]
        runs = []
        for _ in range(2):
            bucket = TokenBucket(rate=5.0, burst=2.0)
            runs.append([bucket.try_acquire(t) for t in stamps])
        assert runs[0] == runs[1]
        assert any(not granted for granted, _ in runs[0])

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.try_acquire(10.0)[0]
        # an out-of-order timestamp must not mint negative elapsed time
        granted, retry = bucket.try_acquire(5.0)
        assert not granted and retry > 0
        assert bucket.try_acquire(11.0)[0]

    def test_rejects_bad_limits(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, burst=-1.0)


# -- request validation -------------------------------------------------------


class TestQueryValidation:
    def test_round_trip(self):
        query = Query("nemo", "cte-arm", 16,
                      overrides=(("comm_scale", 1.25),), client="c1")
        assert Query.from_request(query.to_request()) == query

    @pytest.mark.parametrize("payload", [
        {},
        {"workload": ""},
        {"workload": 7},
        {"workload": "nemo", "n_nodes": 0},
        {"workload": "nemo", "n_nodes": True},
        {"workload": "nemo", "steps": -1},
        {"workload": "nemo", "overrides": {"bogus": 2.0}},
        {"workload": "nemo", "overrides": {"comm_scale": "x"}},
        {"workload": "nemo", "overrides": {"comm_scale": 0.0}},
        {"workload": "nemo", "client": ""},
        {"workload": "nemo", "surprise": 1},
        {"workload": "nemo", "overrides": {"compute_scale": float("inf")}},
        {"workload": "nemo", "overrides": {"comm_scale": float("nan")}},
        {"workload": "nemo", "overrides": {"serial_scale": 10 ** 400}},
    ])
    def test_malformed_rejected_with_400(self, payload):
        with pytest.raises(ServiceError) as err:
            Query.from_request(payload)
        assert err.value.status == 400

    def test_unknown_workload_is_404(self):
        with CapacityService(_FAST) as svc:
            status, body = svc.handle({"workload": "no-such-thing"})
        assert status == 404
        assert "stream" in body["error"] and "nemo" in body["error"]

    def test_infeasible_point_is_422(self):
        with CapacityService(_FAST) as svc:
            status, body = svc.handle({"workload": "nemo", "n_nodes": 2})
        assert status == 422
        assert "GB" in body["error"]

    def test_oversized_partition_is_422(self):
        with CapacityService(_FAST) as svc:
            status, _ = svc.handle({"workload": "hpcg", "n_nodes": 100000})
        assert status == 422

    def test_unknown_pricing_is_400(self):
        with CapacityService(_FAST) as svc:
            status, body = svc.handle({"workload": "nemo", "n_nodes": 8,
                                       "pricing": "wat"})
        assert status == 400
        assert "ecm" in body["error"] and "roofline" in body["error"]

    def test_app_without_toolchain_defaults_is_422(self):
        # thunderx2 is a registered preset but carries no Table III
        # compiler defaults for the paper apps; benches still price.
        with CapacityService(_FAST) as svc:
            status, body = svc.handle({"workload": "nemo", "n_nodes": 8,
                                       "cluster": "thunderx2"})
            assert status == 422
            assert "compiler" in body["error"]
            status, body = svc.handle({"workload": "qcd", "n_nodes": 8,
                                       "cluster": "thunderx2",
                                       "pricing": "ecm"})
            assert status == 200
            assert body["pricing"] == "ecm"


# -- the concurrency suite ----------------------------------------------------


def _hammer(n_threads: int, worker) -> list:
    """Start ``n_threads`` barrier-released workers, join, re-raise."""
    barrier = threading.Barrier(n_threads)
    failures: list[BaseException] = []
    outputs: list = [None] * n_threads
    def runner(i: int) -> None:
        try:
            barrier.wait(timeout=10)
            outputs[i] = worker(i)
        except BaseException as exc:  # surfaced after join
            failures.append(exc)
    threads = [threading.Thread(target=runner, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "worker hung"
    if failures:
        raise failures[0]
    return outputs


class _GatedBackend:
    """A batch backend whose first ``run_batch`` blocks until
    :attr:`release` is set, so every job submitted meanwhile is queued
    for the passes after it; :attr:`passes` records each pass's size."""

    def __init__(self) -> None:
        self.inner = BatchAnalyticBackend()
        self.entered = threading.Event()
        self.release = threading.Event()
        self.passes: list[int] = []

    def run_batch(self, jobs):
        self.passes.append(len(jobs))
        if len(self.passes) == 1:
            self.entered.set()
            assert self.release.wait(30), "gate never released"
        return self.inner.run_batch(jobs)


def _tiny_program(name: str) -> Program:
    return Program(name=name, steps=1,
                   body=(Phase("p", (ComputeOp(seconds=1e-6),)),))


def _submit_async(batcher: AdmissionBatcher, job: BatchJob) -> dict:
    """Submit ``job`` on a new thread; the returned dict receives
    ``result`` or ``error`` and the ``thread`` to join."""
    out: dict = {}

    def run() -> None:
        try:
            out["result"] = batcher.submit(job)
        except Exception as exc:  # noqa: BLE001 — asserted by the caller
            out["error"] = exc

    out["thread"] = threading.Thread(target=run)
    out["thread"].start()
    return out


def _plug(batcher: AdmissionBatcher, gate: _GatedBackend) -> dict:
    """Occupy the batcher's worker in the gated first pass."""
    plug = _submit_async(batcher, BatchJob(_tiny_program("svc-plug"),
                                           cte_arm(4), 1))
    assert gate.entered.wait(10), "first pass never started"
    return plug


def _wait_queued(batcher: AdmissionBatcher, n: int) -> None:
    """Block until ``n`` jobs wait in the batcher's queue."""
    for _ in range(10_000):
        with batcher._lock:
            if len(batcher._queue) >= n:
                return
        time.sleep(0.001)
    raise AssertionError(f"{n} jobs never queued")


class TestAdmissionBatcher:
    def test_concurrent_results_bit_identical_to_serial(self):
        queries = _mixed_queries()
        with CapacityService(_FAST) as svc:
            jobs = [svc.job_for(q) for q in queries]
            # serial reference, computed directly (no batcher involved)
            reference = BatchAnalyticBackend()
            expected = [reference.run_batch([job])[0] for job in jobs]

            n_threads = 16
            def worker(i: int):
                out = []
                for j, job in enumerate(jobs):
                    if (i + j) % 2 == 0:  # interleave differently per thread
                        out.append((j, svc.batcher.submit(job)))
                for j, job in reversed(list(enumerate(jobs))):
                    if (i + j) % 2 == 1:
                        out.append((j, svc.batcher.submit(job)))
                return out

            outputs = _hammer(n_threads, worker)
            stats = svc.batcher
            answered = sum(len(o) for o in outputs)
            assert stats.queries == answered == n_threads * len(jobs)
            assert stats.largest_batch > 1, "no coalescing happened"
            for out in outputs:
                for j, result in out:
                    want = expected[j]
                    assert result.elapsed == want.elapsed
                    assert result.phase_seconds == want.phase_seconds
                    assert result.phase_compute == want.phase_compute
                    assert result.phase_comm == want.phase_comm
                    assert result.n_ranks == want.n_ranks

    def test_no_drop_no_double_answer_under_races(self):
        cluster = cte_arm(16)
        program = _tiny_program("svc-race")
        gate = _GatedBackend()
        batcher = AdmissionBatcher(gate)
        try:
            n_threads, per_thread = 12, 8
            plug = _plug(batcher, gate)
            # open the gate once every thread's first job is queued, so
            # the second pass is certain to mix all twelve threads
            releaser = threading.Thread(target=lambda: (
                _wait_queued(batcher, n_threads), gate.release.set()))
            releaser.start()
            seen = []
            lock = threading.Lock()
            def worker(i: int):
                for k in range(per_thread):
                    result = batcher.submit(
                        BatchJob(program, cluster, 1 + (i + k) % 4))
                    with lock:
                        seen.append((i, k, result))
            _hammer(n_threads, worker)
            releaser.join(timeout=10)
            plug["thread"].join(timeout=10)
            assert "result" in plug
            assert gate.passes[1] == n_threads
            assert len(seen) == n_threads * per_thread
            assert len({(i, k) for i, k, _ in seen}) == len(seen)
            assert batcher.queries == n_threads * per_thread + 1
            assert all(r.elapsed > 0 for _, _, r in seen)
        finally:
            gate.release.set()
            batcher.close()

    def test_group_commit_prices_queued_jobs_in_one_pass(self):
        """Jobs that arrive during a pass are priced together in the
        next one, capped at ``max_batch``."""
        cluster = cte_arm(8)
        program = _tiny_program("svc-group")
        gate = _GatedBackend()
        batcher = AdmissionBatcher(gate, max_batch=4)
        try:
            plug = _plug(batcher, gate)
            waiting = []
            for n in range(1, 7):
                waiting.append(_submit_async(
                    batcher, BatchJob(program, cluster, n)))
                _wait_queued(batcher, n)
            gate.release.set()
            for out in [plug, *waiting]:
                out["thread"].join(timeout=10)
            assert gate.passes == [1, 4, 2]
            assert batcher.batches == 3 and batcher.largest_batch == 4
            direct = BatchAnalyticBackend().run_batch(
                [BatchJob(program, cluster, n) for n in range(1, 7)])
            assert [o["result"].elapsed for o in waiting] == \
                [r.elapsed for r in direct]
        finally:
            gate.release.set()
            batcher.close()

    def test_faulty_job_is_isolated_from_its_batch(self):
        cluster = cte_arm(8)
        program = _tiny_program("svc-isolate")
        good = BatchJob(program, cluster, 2)
        bad = BatchJob(program, cluster, 2, overrides={"bogus": 2.0})
        gate = _GatedBackend()
        batcher = AdmissionBatcher(gate)
        try:
            plug = _plug(batcher, gate)
            waiting = []
            for n, job in enumerate([good, good, bad, good, good, good], 1):
                waiting.append(_submit_async(batcher, job))
                _wait_queued(batcher, n)
            gate.release.set()
            for out in [plug, *waiting]:
                out["thread"].join(timeout=10)
            # one mixed pass of six raises, then each job is re-priced
            assert gate.passes == [1, 6, 1, 1, 1, 1, 1, 1]
            errors = [out.get("error") for out in waiting]
            assert isinstance(errors[2], ConfigurationError)
            assert errors[:2] + errors[3:] == [None] * 5
            results = [out["result"] for i, out in enumerate(waiting)
                       if i != 2]
            assert len({r.elapsed for r in results}) == 1
        finally:
            gate.release.set()
            batcher.close()

    def test_submit_after_close_is_503(self):
        batcher = AdmissionBatcher()
        batcher.close()
        with pytest.raises(ServiceError) as err:
            batcher.submit(BatchJob(
                Program(name="x", body=(Phase("p", (ComputeOp(seconds=1e-6),)),)),
                cte_arm(4), 1))
        assert err.value.status == 503

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionBatcher(max_batch=0)

    @pytest.mark.parametrize("kwargs", [
        {"quota_rate": 0.0},
        {"quota_burst": -1.0},
        {"max_batch": 0},
        {"tape_budget_bytes": -1},
        {"queue_timeout_s": 0.0},
    ])
    def test_service_config_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServiceConfig(**kwargs)


class TestServiceConcurrency:
    def test_concurrent_handle_matches_serial_run_batch(self):
        queries = _mixed_queries()
        with CapacityService(_FAST) as svc:
            reference = BatchAnalyticBackend()
            expected = {
                q: json.dumps(
                    encode_result(q, reference.run_batch([svc.job_for(q)])[0]),
                    sort_keys=True)
                for q in queries
            }

            def worker(i: int):
                out = []
                for q in (queries if i % 2 else list(reversed(queries))):
                    status, body = svc.handle(q.to_request())
                    out.append((q, status, json.dumps(body, sort_keys=True)))
                return out

            outputs = _hammer(10, worker)
            for out in outputs:
                assert len(out) == len(queries)
                for q, status, body in out:
                    assert status == 200
                    assert body == expected[q], q


class TestQuotaDeterminism:
    def _statuses(self, schedule) -> list[int]:
        config = ServiceConfig(quota_rate=20.0, quota_burst=5.0)
        with CapacityService(config) as svc:
            return [
                svc.handle(a.scenario.query(a.client).to_request(),
                           now=a.t)[0]
                for a in schedule
            ]

    def test_rejections_pure_function_of_schedule(self):
        mix = (Scenario("cheap", "stream", "cte-arm", 1),
               Scenario("mid", "hpcg", "cte-arm", 8))
        config = TrafficConfig(stages=((0.5, 150.0),), scenarios=mix,
                               n_clients=2, seed=11)
        schedule = arrival_schedule(config)
        assert len(schedule) > 30
        first = self._statuses(schedule)
        second = self._statuses(schedule)
        assert first == second
        assert first.count(429) > 0, "schedule too gentle to test quotas"
        assert first.count(200) > 0

    def test_retry_after_is_positive(self):
        config = ServiceConfig(quota_rate=1.0, quota_burst=1.0)
        with CapacityService(config) as svc:
            request = {"workload": "stream", "n_nodes": 1, "client": "c"}
            assert svc.handle(request, now=0.0)[0] == 200
            status, body = svc.handle(request, now=0.0)
            assert status == 429
            assert body["retry_after_seconds"] > 0
            assert svc.stats()["rejected"] == 1


# -- warm-cache eviction ------------------------------------------------------


def _tapeful_program(i: int, rows: int = 64) -> Program:
    return Program(
        name=f"svc-evict-{i}", steps=1,
        body=(Phase("p", tuple(
            ComputeOp(seconds=(j + 1) * 1e-7) for j in range(rows))),))


class TestTapeEviction:
    def teardown_method(self):
        set_tape_budget(None)

    def test_budget_bounds_resident_bytes(self):
        tapes = [_tapeful_program(i) for i in range(24)]
        one = compile_tape(tapes[0]).nbytes
        budget = one * 5
        set_tape_budget(budget)
        for program in tapes:
            compile_tape(program)
            assert tape_cache_stats()["resident_bytes"] <= budget
        stats = tape_cache_stats()
        assert stats["evictions"] > 0
        assert stats["resident_bytes"] <= budget

    def test_oversized_tape_still_serves(self):
        set_tape_budget(1)  # nothing fits; the newest entry must stay
        tape = compile_tape(_tapeful_program(900))
        assert tape.n_rows == 64
        assert len(tape.cols["seconds"]) == 64

    def test_eviction_never_changes_results(self):
        query = Query("nemo", "cte-arm", 16,
                      overrides=(("serial_scale", 1.5),))
        with CapacityService(_FAST) as svc:
            warm1 = json.dumps(svc.handle(query.to_request())[1],
                               sort_keys=True)
            warm2 = json.dumps(svc.handle(query.to_request())[1],
                               sort_keys=True)
            # memory pressure: evict every warm tape, then re-price cold
            set_tape_budget(1)
            set_tape_budget(None)
            assert tape_cache_stats()["entries"] <= 1
            cold = json.dumps(svc.handle(query.to_request())[1],
                              sort_keys=True)
        assert warm1 == warm2 == cold

    def test_service_config_applies_budget(self):
        config = ServiceConfig(quota_rate=1e6, quota_burst=1e6,
                               tape_budget_bytes=123456)
        with CapacityService(config):
            assert tape_cache_stats()["budget_bytes"] == 123456


# -- golden responses ---------------------------------------------------------


def _golden_matrix() -> dict[str, Query]:
    return {
        "stream@cte-arm/1": Query("stream", "cte-arm", 1),
        "hpcg@cte-arm/8": Query("hpcg", "cte-arm", 8),
        "linpack@mn4/16": Query("linpack", "mn4", 16),
        "nemo@cte-arm/16+comm1.25": Query(
            "nemo", "cte-arm", 16, overrides=(("comm_scale", 1.25),)),
        "gromacs@cte-arm/8+bw0.5": Query(
            "gromacs", "cte-arm", 8, overrides=(("bandwidth_scale", 0.5),)),
        "wrf@mn4/4": Query("wrf", "mn4", 4),
        "alya@cte-arm/12x2steps": Query("alya", "cte-arm", 12, steps=2),
    }


def test_golden_service_responses(request):
    """Serialization drift in the service response shape is caught the
    same way the PR-3 trace snapshots catch DES drift."""
    with CapacityService(_FAST) as svc:
        got_dict = {}
        for key, query in sorted(_golden_matrix().items()):
            status, body = svc.handle(query.to_request())
            assert status == 200, (key, body)
            got_dict[key] = body
    got = json.dumps(got_dict, indent=2, sort_keys=True) + "\n"
    path = GOLDEN_DIR / "service_responses.json"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(got)
        pytest.skip(f"golden snapshot {path.name} rewritten")
    assert path.exists(), (
        f"missing golden snapshot {path}; run with --update-golden")
    assert got == path.read_text(), (
        "service responses drifted from service_responses.json; if "
        "intentional, regenerate with --update-golden and review the diff")


# -- HTTP front end -----------------------------------------------------------


class TestHTTP:
    @pytest.fixture()
    def server(self):
        from repro.service import ServiceServer

        config = ServiceConfig(quota_rate=1e6, quota_burst=1e6)
        with ServiceServer(CapacityService(config)) as srv:
            yield srv

    def _post(self, server, payload, headers=None):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            server.url + "/v1/price",
            data=json.dumps(payload).encode()
            if not isinstance(payload, bytes) else payload,
            headers={"Content-Type": "application/json", **(headers or {})},
            method="POST")
        try:
            with urllib.request.urlopen(request, timeout=10) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_price_matches_direct_run_batch(self, server):
        query = Query("hpcg", "cte-arm", 8)
        status, body = self._post(server, query.to_request())
        assert status == 200
        direct = BatchAnalyticBackend().run_batch(
            [server.service.job_for(query)])[0]
        assert body == encode_result(query, direct)

    def test_health_stats_and_unknown_path(self, server):
        import urllib.request

        with urllib.request.urlopen(server.url + "/v1/health",
                                    timeout=10) as resp:
            assert json.loads(resp.read()) == {"status": "ok"}
        with urllib.request.urlopen(server.url + "/v1/stats",
                                    timeout=10) as resp:
            stats = json.loads(resp.read())
        assert stats["queries"] >= 0 and "tape_cache" in stats
        status, _ = self._post(server, {"workload": "stream"})
        assert status == 200
        import urllib.error
        try:
            urllib.request.urlopen(server.url + "/nope", timeout=10)
        except urllib.error.HTTPError as exc:
            assert exc.code == 404

    def test_bad_json_is_400(self, server):
        status, body = self._post(server, b"{not json")
        assert status == 400
        assert "JSON" in body["error"]

    @pytest.mark.parametrize("literal", ["Infinity", "1e309", "NaN"])
    def test_non_finite_override_is_400_strict_json(self, server, literal):
        import urllib.error
        import urllib.request

        def strict(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        data = ('{"workload": "nemo", "n_nodes": 16, '
                f'"overrides": {{"compute_scale": {literal}}}}}').encode()
        request = urllib.request.Request(
            server.url + "/v1/price", data=data,
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400
        body = json.loads(err.value.read(), parse_constant=strict)
        assert "compute_scale" in body["error"]
        assert "finite" in body["error"]

    @pytest.mark.parametrize("payload", [
        {"workload": "linpack", "cluster": "cte-arm", "n_nodes": 16,
         "overrides": {"comm_scale": 1e308, "compute_scale": 1e308}},
        {"workload": "nemo", "cluster": "cte-arm", "n_nodes": 16,
         "overrides": {"rate_scale": 1e-308, "compute_scale": 1e308}},
        {"workload": "hpcg", "cluster": "cte-arm", "n_nodes": 8,
         "overrides": {"rate_scale": 1e-308, "compute_scale": 1e308}},
    ], ids=["linpack16", "nemo16", "hpcg8"])
    def test_overflowing_overrides_are_422_strict_json(self, server,
                                                       payload):
        """Finite overrides whose product overflows float64 must not
        reach the wire as ``Infinity``."""
        import urllib.error
        import urllib.request

        def strict(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        failed = server.service.failed
        request = urllib.request.Request(
            server.url + "/v1/price", data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 422
        body = json.loads(err.value.read(), parse_constant=strict)
        assert "not finite" in body["error"]
        assert server.service.failed == failed + 1

    @pytest.mark.parametrize("overrides", [
        {"comm_scale": 1e308, "compute_scale": 1e308},
        {"bandwidth_scale": 1e308},
    ], ids=["product", "bandwidth"])
    def test_overflow_is_422_without_runtime_warning(self, overrides):
        """Pricing runs under ``np.errstate(over="raise")``: an overflow
        anywhere in the pass is a 422, never a numpy RuntimeWarning on
        the server's stderr."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with CapacityService(_FAST) as svc:
                status, body = svc.handle({
                    "workload": "linpack", "n_nodes": 16,
                    "overrides": overrides})
                assert svc.failed == 1
        assert status == 422 and "not finite" in body["error"]
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    def test_keep_alive_requests_do_not_stall(self, server):
        """Twenty sequential POSTs on one keep-alive connection: with
        Nagle on, the client's delayed ACK held each response body back
        ~40 ms."""
        import http.client

        body = json.dumps(Query("stream", "cte-arm", 1).to_request())
        headers = {"Content-Type": "application/json"}
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)

        def post() -> None:
            conn.request("POST", "/v1/price", body=body, headers=headers)
            resp = conn.getresponse()
            assert resp.status == 200
            json.loads(resp.read())

        try:
            post()  # connect and compile the tape outside the clock
            start = time.perf_counter()
            for _ in range(20):
                post()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.5, f"20 keep-alive requests took {elapsed:.3f} s"

    def test_burst_without_retries_all_served(self, server):
        """Three bursts of 128 simultaneous single-shot clients: every
        connection is accepted and answered 200 with strict JSON."""
        import urllib.request

        def strict(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        clients = 128
        data = json.dumps(Query("stream", "cte-arm", 4).to_request()).encode()
        for _ in range(3):
            gate = threading.Barrier(clients)
            results: list = [None] * clients

            def fire(i):
                request = urllib.request.Request(
                    server.url + "/v1/price", data=data,
                    headers={"Content-Type": "application/json"},
                    method="POST")
                gate.wait()
                try:
                    with urllib.request.urlopen(request, timeout=30) as resp:
                        results[i] = (resp.status, json.loads(
                            resp.read(), parse_constant=strict))
                except Exception as exc:  # noqa: BLE001 — record, assert below
                    results[i] = (None, repr(exc))

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            failed = [r for r in results if r is None or r[0] != 200]
            assert not failed, f"{len(failed)}/{clients} failed: {failed[:3]}"

    def test_transport_failures_counted_not_dropped(self):
        """A request that gets no HTTP response at all is a counted
        error sample (status 0), not an aborted open-loop run."""
        import socket

        from repro.service.traffic import run_loadtest

        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        config = TrafficConfig(stages=((0.2, 40.0),), seed=1)
        report, samples = run_loadtest(config, url=f"http://127.0.0.1:{port}")
        assert samples and len(samples) == report.offered
        assert {s.status for s in samples} == {0}
        assert report.errors == report.offered
        assert report.per_status == {"0": report.offered}

    def test_client_header_feeds_quota(self):
        from repro.service import ServiceServer

        config = ServiceConfig(quota_rate=0.001, quota_burst=1.0)
        with ServiceServer(CapacityService(config)) as srv:
            ok = self._post(srv, {"workload": "stream"},
                            headers={"X-Client-Id": "h1"})
            assert ok[0] == 200
            status, body = self._post(srv, {"workload": "stream"},
                                      headers={"X-Client-Id": "h1"})
            assert status == 429
            assert body["retry_after_seconds"] > 0
            # a different client has its own bucket
            assert self._post(srv, {"workload": "stream"},
                              headers={"X-Client-Id": "h2"})[0] == 200

    def test_stats_expose_tape_cache_counters(self, server):
        """/v1/stats surfaces TapeCache hit/miss/eviction counters so
        tuner-sized workloads can be observed when served (ISSUE 10)."""
        import urllib.request
        from repro.ir.batch import clear_caches

        def cache_stats():
            with urllib.request.urlopen(server.url + "/v1/stats",
                                        timeout=10) as resp:
                return json.loads(resp.read())["tape_cache"]

        clear_caches()
        before = cache_stats()
        for key in ("hits", "misses", "evictions", "entries",
                    "resident_bytes"):
            assert key in before
        # first pricing of a workload compiles its tape (a miss); the
        # repeat is served from the warm tape (a hit)
        assert self._post(server, {"workload": "stream",
                                   "n_nodes": 3})[0] == 200
        mid = cache_stats()
        assert mid["misses"] > before["misses"]
        assert self._post(server, {"workload": "stream",
                                   "n_nodes": 3})[0] == 200
        after = cache_stats()
        assert after["hits"] > mid["hits"]
        assert after["entries"] >= 1
