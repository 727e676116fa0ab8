"""The auto-tuner: space enumeration, Pareto exactness, determinism.

Regenerate the pinned frontier after an intentional model change with::

    PYTHONPATH=src python -m pytest tests/test_tune.py --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.presets import cte_arm
from repro.tune import (
    FLAG_CHOICES,
    TuneSpec,
    build_space,
    dominates,
    pareto_indices,
    placement_grid,
    tune,
)
from repro.tune.engine import decode_point
from repro.tune.space import scenario_grid
from repro.util.errors import ConfigurationError

GOLDEN = Path(__file__).parent / "golden" / "tune_frontier.json"

_ARM = cte_arm(64)


# -- Pareto frontier ----------------------------------------------------------


@st.composite
def _cost_arrays(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    # a small value pool forces coordinate ties and exact duplicates,
    # the frontier's edge cases
    pool = st.sampled_from([1.0, 2.0, 3.0, 5.0, 8.0])
    times = draw(st.lists(pool, min_size=n, max_size=n))
    energies = draw(st.lists(pool, min_size=n, max_size=n))
    return np.asarray(times), np.asarray(energies)


class TestPareto:
    @given(_cost_arrays())
    @settings(max_examples=200, deadline=None)
    def test_no_returned_point_dominated_no_dominated_included(self, arrays):
        times, energies = arrays
        front = set(pareto_indices(times, energies).tolist())
        pairs = [(float(t), float(e)) for t, e in zip(times, energies)]
        for i, p in enumerate(pairs):
            strictly_dominated = any(
                dominates(q, p) and q != p for q in pairs
            )
            if i in front:
                assert not strictly_dominated, (i, p, pairs)
            else:
                assert strictly_dominated, (i, p, pairs)

    def test_duplicates_of_frontier_coordinate_all_kept(self):
        times = np.asarray([1.0, 1.0, 2.0])
        energies = np.asarray([3.0, 3.0, 5.0])
        assert pareto_indices(times, energies).tolist() == [0, 1]

    def test_single_point(self):
        assert pareto_indices(np.asarray([4.0]),
                              np.asarray([2.0])).tolist() == [0]

    def test_empty(self):
        assert pareto_indices(np.empty(0), np.empty(0)).tolist() == []

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            pareto_indices(np.ones(3), np.ones(4))

    def test_merge_property_chunked(self):
        rng = np.random.default_rng(7)
        times = rng.uniform(1, 10, 200)
        energies = rng.uniform(1, 10, 200)
        whole = pareto_indices(times, energies).tolist()
        cand = []
        for lo in range(0, 200, 33):
            hi = min(lo + 33, 200)
            cand.extend(
                (pareto_indices(times[lo:hi], energies[lo:hi]) + lo).tolist())
        cand = np.asarray(sorted(cand))
        merged = cand[pareto_indices(times[cand], energies[cand])].tolist()
        assert merged == whole


# -- space enumeration --------------------------------------------------------


class TestSpace:
    def test_placement_grid_tiles_node(self):
        grid = placement_grid(48)
        assert len(grid) == 45
        assert all(48 % rpn == 0 and rpn * tpr <= 48 for rpn, tpr in grid)
        assert (48, 1) in grid and (1, 48) in grid and (4, 12) in grid

    def test_scenario_grid(self):
        assert scenario_grid(1, 0.15) == (1.0,)
        grid = scenario_grid(3, 0.2)
        assert grid == pytest.approx((0.8, 1.0, 1.2))
        with pytest.raises(ValueError, match="scenario count"):
            scenario_grid(0, 0.1)
        with pytest.raises(ValueError, match="spread"):
            scenario_grid(2, 1.5)

    def test_nemo_space_excludes_documented_failures(self):
        space = build_space("nemo", _ARM, 16, scenarios=2)
        labels = {t.compiler for t in space.templates}
        # Fujitsu errors out on NEMO (Table III); AVX-512 toolchains do
        # not target the A64FX ISA at all
        assert labels == {"GNU/8.3.1-sve", "GNU/11.0.0"}
        reasons = {e.compiler: e.reason for e in space.excluded}
        assert "errors building NEMO" in reasons["Fujitsu/1.2.26b"]
        assert "targets AVX512" in reasons["Intel/2017.4"]
        # 2 compilers x 2 vectorization modes x 45 placements
        assert len(space.templates) == 180
        # x 3 flags x 4 page policies x 2x2 scenarios x 2 pricing models
        assert space.points_per_template == 3 * 4 * 4
        assert space.n_points == 180 * 2 * 48

    def test_decode_point_round_trips(self):
        space = build_space("nemo", _ARM, 16, scenarios=2)
        per = space.points_per_template
        for point_id in (0, 1, per - 1, per, 3 * per + 17,
                         space.n_points - 1):
            info = decode_point(space, point_id)
            template = space.templates[info["template_index"]]
            assert info["compiler"] == template.compiler
            assert info["flags"] in {f.name for f in FLAG_CHOICES}
            assert info["pricing"] in ("roofline", "ecm")

    def test_page_factors_bounded(self):
        space = build_space("nemo", _ARM, 16, scenarios=1)
        for template in space.templates:
            assert all(0.0 < f <= 1.0 for f in template.page_factors)


# -- the engine ---------------------------------------------------------------


def _small_spec(**kw):
    defaults = dict(app="nemo", cluster="cte-arm", n_nodes=16, scenarios=1)
    defaults.update(kw)
    return TuneSpec(**defaults)


class TestEngine:
    def test_spec_validation(self):
        with pytest.raises(ConfigurationError, match="n_nodes"):
            TuneSpec(app="nemo", cluster="cte-arm", n_nodes=0)
        with pytest.raises(ConfigurationError, match="pricing"):
            TuneSpec(app="nemo", cluster="cte-arm", pricing=())

    def test_tune_smoke(self):
        result = tune(_small_spec())
        assert result.n_points == 180 * 2 * 12
        assert set(result.frontiers) == {"roofline", "ecm"}
        for points in result.frontiers.values():
            assert points
            # frontier sorted by time; energy non-increasing along it
            times = [p.time_s for p in points]
            assert times == sorted(times)
        assert result.best_time.time_s <= result.baseline["roofline"][0]
        rendered = result.render()
        assert "Pareto frontier [roofline]" in rendered
        assert "repro.verify" in rendered
        json.dumps(result.to_dict())  # JSON-safe

    def test_explanations_cover_leading_points(self):
        result = tune(_small_spec(), explain_top=2)
        assert result.explanations
        head = result.explanations[0]
        assert result.frontier[0].compiler in head

    def test_unknown_cluster_and_app(self):
        with pytest.raises((ConfigurationError, KeyError)):
            tune(_small_spec(cluster="deep-thought"))
        with pytest.raises((ConfigurationError, KeyError)):
            tune(_small_spec(app="skynet"))


class TestGoldenFrontier:
    def test_pinned_frontier(self, request):
        result = tune(_small_spec())
        payload = {
            "spec": {"app": "nemo", "cluster": "cte-arm", "n_nodes": 16,
                     "scenarios": 1},
            "frontiers": {
                name: [
                    {"config": p.config, "time_s": p.time_s,
                     "energy_j": p.energy_j}
                    for p in points
                ]
                for name, points in result.frontiers.items()
            },
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if request.config.getoption("--update-golden"):
            GOLDEN.write_text(text)
            pytest.skip("golden frontier rewritten")
        assert GOLDEN.is_file(), (
            f"missing {GOLDEN}; run with --update-golden")
        assert text == GOLDEN.read_text(), (
            "tuner frontier drifted from tune_frontier.json; if the "
            "change is intentional, regenerate with --update-golden "
            "and review the diff")


class TestCLI:
    def test_tune_command(self, capsys):
        from repro.harness.cli import main

        assert main(["tune", "nemo", "--cluster", "cte-arm",
                     "--nodes", "16", "--scenarios", "1",
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier [roofline]" in out
        assert "priced" in out

    def test_tune_json(self, capsys):
        from repro.harness.cli import main

        assert main(["tune", "nemo", "--cluster", "cte-arm",
                     "--scenarios", "1", "--pricing", "roofline",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["app"] == "nemo"
        assert list(payload["frontiers"]) == ["roofline"]

    def test_tune_bad_cluster_is_error(self, capsys):
        from repro.harness.cli import main

        assert main(["tune", "nemo", "--cluster", "nonesuch"]) == 2
