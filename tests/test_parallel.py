"""The parallel sweep executor and its on-disk result cache."""

from __future__ import annotations

import json
import math
import os

import pytest

import repro.harness  # noqa: F401  (populate the experiment registry)
from repro.harness.cli import main
from repro.harness.parallel import (
    cache_key,
    run_experiments,
    source_fingerprint,
)
from repro.util.errors import WorkerDied

#: cheap experiments spanning table, figure, and extension shapes.
_IDS = ["table1_hardware", "fig1_fpu", "fig6_linpack", "ext_faults"]


class TestDeterminism:
    def test_input_order_preserved(self):
        payloads = run_experiments(list(reversed(_IDS)))
        assert [p["experiment"] for p in payloads] == list(reversed(_IDS))

    def test_duplicate_ids_run_once(self):
        payloads = run_experiments([_IDS[0], _IDS[0]])
        assert len(payloads) == 2
        assert payloads[0] == payloads[1]


class TestResultCache:
    def test_cache_round_trip_identical(self, tmp_path):
        fresh = run_experiments(_IDS, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == len(_IDS)
        cached = run_experiments(_IDS, cache_dir=tmp_path)
        assert json.dumps(cached) == json.dumps(fresh)

    def test_key_depends_on_source_fingerprint(self, monkeypatch):
        key = cache_key(_IDS[0])
        monkeypatch.setattr(
            "repro.harness.parallel._fingerprint", "0" * 64
        )
        assert cache_key(_IDS[0]) != key

    def test_fingerprint_is_stable(self):
        assert source_fingerprint() == source_fingerprint()

    def test_stale_entries_not_served(self, tmp_path, monkeypatch):
        run_experiments([_IDS[0]], cache_dir=tmp_path)
        # A source change rolls the fingerprint: the old entry is dead.
        monkeypatch.setattr(
            "repro.harness.parallel._fingerprint", "f" * 64
        )
        run_experiments([_IDS[0]], cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_non_finite_payload_is_refused(self, tmp_path, monkeypatch):
        class _NaNResult:
            def to_dict(self):
                return {"value": math.nan}

            def render(self, include_figure=True):
                return "nan"

        monkeypatch.setattr("repro.harness.parallel.run_experiment",
                            lambda exp_id: _NaNResult())
        with pytest.raises(ValueError):
            run_experiments(_IDS[:2], cache_dir=tmp_path)
        assert list(tmp_path.glob("*.json")) == []


class TestCli:
    def test_run_jobs_json(self, capsys):
        assert main(["run", "fig1_fpu", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out[0]["experiment"] == "fig1_fpu"
        assert all(
            isinstance(e["holds"], bool) for e in out[0]["expectations"]
        )

    def test_run_cached_output_identical(self, tmp_path, capsys):
        main(["run", "fig1_fpu", "--cache-dir", str(tmp_path)])
        first = capsys.readouterr().out
        main(["run", "fig1_fpu", "--cache-dir", str(tmp_path)])
        assert capsys.readouterr().out == first

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["run", "no_such_experiment"]) == 2


class _Echo:
    """Trivial persistent-pool handler: returns what it is sent."""

    def __init__(self, tag):
        self.tag = tag

    def handle(self, msg):
        if msg == "boom":
            raise ValueError("exploding handler")
        if msg == "exit":
            os._exit(3)
        return (self.tag, msg)


def _make_echo(init):
    return _Echo(init)


class TestPersistentPool:
    def test_call_all_routes_by_worker(self):
        from repro.harness.procpool import PersistentPool

        with PersistentPool(_make_echo, ["a", "b"]) as pool:
            assert pool.call_all([1, 2]) == [("a", 1), ("b", 2)]
            assert pool.call_all([3, 4]) == [("a", 3), ("b", 4)]
            # Worker-side wall time is recorded per completed call.
            assert len(pool.call_walls[0]) == 2
            assert all(w >= 0.0 for w in pool.call_walls[0])

    def test_worker_exception_reraised_in_parent(self):
        from repro.harness.procpool import PersistentPool

        pool = PersistentPool(_make_echo, ["a", "b"])
        with pytest.raises(ValueError, match="exploding"):
            pool.call_all(["boom", 1])

    @pytest.mark.parametrize("dead", [0, 1])
    def test_worker_death_raises_worker_died(self, dead):
        from repro.harness.procpool import PersistentPool

        pool = PersistentPool(_make_echo, ["a", "b"])
        procs = list(pool._procs)
        messages = [1, 2]
        messages[dead] = "exit"
        with pytest.raises(WorkerDied,
                           match=f"worker {dead} .*exit code 3") as err:
            pool.call_all(messages)
        assert (err.value.worker, err.value.exitcode) == (dead, 3)
        assert not any(proc.is_alive() for proc in procs)
        pool.close()  # idempotent after the failure

    def test_message_count_must_match_workers(self):
        from repro.harness.procpool import PersistentPool

        with PersistentPool(_make_echo, ["a"]) as pool:
            with pytest.raises(ValueError):
                pool.call_all([1, 2])


class TestRunStats:
    def test_per_task_wall_times_surface(self, tmp_path):
        from repro.harness.parallel import last_run_stats

        run_experiments(_IDS[:2], cache_dir=tmp_path)
        stats = last_run_stats()
        assert [s[0] for s in stats] == _IDS[:2]
        assert [s[2] for s in stats] == ["run", "run"]
        assert all(s[1] >= 0.0 for s in stats)
        # Second sweep is served from cache; the stats say so.
        run_experiments(_IDS[:2], cache_dir=tmp_path)
        assert [s[2] for s in last_run_stats()] == ["cache", "cache"]

    def test_cache_key_depends_on_backend_options(self):
        from repro.ir import set_backend_options

        key = cache_key(_IDS[0], "des")
        set_backend_options(des_shards=8)
        try:
            assert cache_key(_IDS[0], "des") != key
        finally:
            set_backend_options(des_shards=None)
        assert cache_key(_IDS[0], "des") == key
