"""Streaming batched evaluation: bit-identity and budgets.

The contracts under test:

* ``run_override_columns`` lanes are bit-identical to the equivalent
  scalar-``overrides`` jobs, for every override key and both pricing
  models;
* chunk sizing honors the memory budget (monotone, bounded, positive);
* override validation reports the sorted allowed-key set, and an empty
  overrides dict is digest-equivalent to ``None``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ALL_APPS, get_app
from repro.ir.batch import (
    DEFAULT_STREAM_BUDGET,
    BatchJob,
    OVERRIDE_KEYS,
    clear_caches,
    compile_tape,
    shared_batch_backend,
    stream_chunk_points,
    validate_overrides,
)
from repro.machine.presets import cte_arm, marenostrum4
from repro.util.errors import ConfigurationError, OutOfMemoryError

from tests.strategies import ir_programs

_ARM = cte_arm(64)


def _assert_results_equal(a, b):
    assert a.phase_seconds == b.phase_seconds
    assert a.phase_compute == b.phase_compute
    assert a.phase_comm == b.phase_comm
    assert a.phase_flops_time == b.phase_flops_time
    assert a.phase_bytes_time == b.phase_bytes_time
    assert a.elapsed == b.elapsed
    assert a.n_ranks == b.n_ranks


def _nemo_jobs(n_jobs, pricing="roofline"):
    app = get_app("nemo")
    mapping = app.mapping(_ARM, 16)
    program = app.program(mapping)
    binary = app.build(_ARM)
    vals = (1.0, 0.8, 1.2, 0.65, 1.45)
    return [
        BatchJob(
            program, _ARM, 16, mapping=mapping, binary=binary,
            check_memory=False, pricing=pricing,
            overrides={
                "comm_scale": vals[i % 5],
                "bandwidth_scale": vals[(i // 5) % 5],
                "rate_scale": vals[(i // 25) % 5],
            },
        )
        for i in range(n_jobs)
    ]


def _knob_columns(n_lanes):
    """All five :data:`OVERRIDE_KEYS` as columns.  The strides differ per
    key, so lanes mix identity and non-identity values and some 13-lane
    chunks carry an all-ones column."""
    vals = (1.0, 0.8, 1.2, 0.65, 1.45)
    strides = {"comm_scale": 1, "compute_scale": 2, "serial_scale": 3,
               "bandwidth_scale": 5, "rate_scale": 25}
    assert set(strides) == OVERRIDE_KEYS
    return {key: np.asarray([vals[(i // stride) % 5]
                             for i in range(n_lanes)])
            for key, stride in strides.items()}


def _assert_lanes_match_run_batch(base, n_lanes):
    """Each override-column lane of ``base`` equals the ``run_batch``
    result of the same job under that lane's scalar overrides."""
    backend = shared_batch_backend()
    columns = _knob_columns(n_lanes)
    jobs = [
        BatchJob(base.program, base.cluster, base.n_nodes,
                 mapping=base.mapping, binary=base.binary,
                 check_memory=False, pricing=base.pricing,
                 overrides={key: float(col[i])
                            for key, col in columns.items()})
        for i in range(n_lanes)
    ]
    direct = backend.run_batch(jobs)
    clear_caches()
    chunks = list(backend.run_override_columns(base, columns,
                                               chunk_points=13))
    assert sum(len(c) for c in chunks) == n_lanes
    offset = 0
    for chunk in chunks:
        assert chunk.start == offset
        for lane in range(len(chunk)):
            result = direct[offset + lane]
            assert chunk.elapsed[lane] == result.elapsed
            assert chunk.n_ranks == result.n_ranks
            assert set(chunk.phase_seconds) == set(result.phase_seconds)
            for name, sec in result.phase_seconds.items():
                assert chunk.phase_seconds[name][lane] == sec
                assert (chunk.phase_compute[name][lane]
                        == result.phase_compute[name])
                assert (chunk.phase_comm[name][lane]
                        == result.phase_comm[name])
                assert (chunk.phase_flops_time[name][lane]
                        == result.phase_flops_time[name])
                assert (chunk.phase_bytes_time[name][lane]
                        == result.phase_bytes_time[name])
        offset += len(chunk)


class TestRunOverrideColumns:
    @pytest.mark.parametrize("pricing", ["roofline", "ecm"])
    def test_lanes_match_scalar_jobs(self, pricing):
        """The column path against ``run_batch`` over every app on both
        clusters (halo, all-reduce, all-to-all, gather and serial rows)
        and random rich programs (MemOp, Barrier, fixed-seconds compute,
        explicit-rate compute, loops), at one and several nodes."""
        checked = 0
        for cluster in (_ARM, marenostrum4(64)):
            for name in sorted(ALL_APPS):
                app = get_app(name)
                for n_nodes in (1, 16, 32, 64):
                    try:
                        app.check_feasible(cluster, n_nodes)
                    except OutOfMemoryError:
                        continue
                    mapping = app.mapping(cluster, n_nodes)
                    base = BatchJob(app.program(mapping), cluster, n_nodes,
                                    mapping=mapping,
                                    binary=app.build(cluster),
                                    check_memory=False, pricing=pricing)
                    _assert_lanes_match_run_batch(base, 75)
                    checked += 1
        assert checked >= 30  # the rest are memory-infeasible (NP)

        @settings(max_examples=6, deadline=None, derandomize=True)
        @given(program=ir_programs(rich=True), n_nodes=st.sampled_from([1, 4]))
        def rich(program, n_nodes):
            _assert_lanes_match_run_batch(
                BatchJob(program, _ARM, n_nodes, check_memory=False,
                         pricing=pricing), 30)

        rich()

    def test_all_ones_column_matches_no_overrides(self):
        backend = shared_batch_backend()
        app = get_app("nemo")
        mapping = app.mapping(_ARM, 16)
        program = app.program(mapping)
        binary = app.build(_ARM)
        base = BatchJob(program, _ARM, 16, mapping=mapping, binary=binary,
                        check_memory=False)
        [plain] = backend.run_batch([base])
        chunks = list(backend.run_override_columns(
            base, {"comm_scale": np.ones(4)}))
        assert all(e == plain.elapsed for e in chunks[0].elapsed)

    def test_rejects_nonempty_job_overrides(self):
        backend = shared_batch_backend()
        job = _nemo_jobs(1)[0]
        with pytest.raises(ConfigurationError, match="must be empty"):
            list(backend.run_override_columns(
                job, {"comm_scale": np.ones(2)}))

    def test_rejects_bad_shapes_and_keys(self):
        backend = shared_batch_backend()
        jobs = _nemo_jobs(1)
        base = BatchJob(jobs[0].program, _ARM, 16,
                        mapping=jobs[0].mapping, binary=jobs[0].binary,
                        check_memory=False)
        with pytest.raises(ConfigurationError, match="1-D"):
            list(backend.run_override_columns(
                base, {"comm_scale": np.ones((2, 2))}))
        with pytest.raises(ConfigurationError, match="unknown override"):
            list(backend.run_override_columns(
                base, {"warp_factor": np.ones(2)}))
        with pytest.raises(ConfigurationError, match="one length"):
            list(backend.run_override_columns(
                base, {"comm_scale": np.ones(2),
                       "rate_scale": np.ones(3)}))
        with pytest.raises(ConfigurationError,
                           match="at least one override column"):
            list(backend.run_override_columns(base, {}))


class TestChunkSizing:
    def test_budget_monotone_and_bounded(self):
        app = get_app("nemo")
        tape = compile_tape(app.program(app.mapping(_ARM, 16)))
        sizes = [stream_chunk_points(tape, budget)
                 for budget in (1, 1 << 16, 1 << 22, DEFAULT_STREAM_BUDGET)]
        assert sizes == sorted(sizes)
        assert sizes[0] >= 1
        # doubling the budget at least doesn't shrink the chunk, and the
        # chunk charge stays within the budget once above the 1-point floor
        big = stream_chunk_points(tape, DEFAULT_STREAM_BUDGET)
        assert big * (DEFAULT_STREAM_BUDGET // big) <= DEFAULT_STREAM_BUDGET

    def test_rejects_nonpositive_budget(self):
        app = get_app("nemo")
        tape = compile_tape(app.program(app.mapping(_ARM, 16)))
        with pytest.raises(ConfigurationError, match="budget"):
            stream_chunk_points(tape, 0)


class TestValidateOverrides:
    def test_error_lists_sorted_allowed_keys(self):
        with pytest.raises(ConfigurationError) as err:
            validate_overrides({"zz_bogus": 1.0, "aa_bogus": 2.0})
        message = str(err.value)
        assert "['aa_bogus', 'zz_bogus']" in message
        assert f"choose from {sorted(OVERRIDE_KEYS)}" in message

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -float("inf"), 0.0, -1.0, 10 ** 400,
    ], ids=["nan", "inf", "-inf", "zero", "negative", "huge-int"])
    def test_rejects_non_finite_and_non_positive_values(self, value):
        with pytest.raises(ConfigurationError, match="finite number > 0"):
            validate_overrides({"comm_scale": value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_run_batch_rejects_non_finite(self, value):
        job = _nemo_jobs(1)[0]
        job.overrides = {"comm_scale": value}
        with pytest.raises(ConfigurationError, match="'comm_scale'"):
            shared_batch_backend().run_batch([job])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_run_override_columns_rejects_non_finite(self, value):
        job = _nemo_jobs(1)[0]
        base = BatchJob(job.program, _ARM, 16, mapping=job.mapping,
                        binary=job.binary, check_memory=False)
        column = np.ones(8)
        column[5] = value
        with pytest.raises(ConfigurationError, match="'rate_scale'"):
            list(shared_batch_backend().run_override_columns(
                base, {"comm_scale": np.ones(8), "rate_scale": column}))

    def test_accepts_none_and_empty(self):
        assert validate_overrides(None) == {}
        assert validate_overrides({}) == {}

    def test_empty_dict_digest_equivalent_to_none(self):
        backend = shared_batch_backend()
        job = _nemo_jobs(1)[0]
        none_job = BatchJob(job.program, _ARM, 16, mapping=job.mapping,
                            binary=job.binary, check_memory=False,
                            overrides=None)
        empty_job = BatchJob(job.program, _ARM, 16, mapping=job.mapping,
                             binary=job.binary, check_memory=False,
                             overrides={})
        ctx_none = backend._prepare(none_job)
        ctx_empty = backend._prepare(empty_job)
        assert ctx_none.digest is not None
        assert ctx_none.digest == ctx_empty.digest
        [a] = backend.run_batch([none_job])
        [b] = backend.run_batch([empty_job])
        _assert_results_equal(a, b)
