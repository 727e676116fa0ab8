"""Tuning results: frontier points, rendering, JSON serialization."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

__all__ = ["TunePoint", "TuneResult"]


@dataclass(frozen=True)
class TunePoint:
    """One priced configuration on (or near) the Pareto frontier."""

    point_id: int
    pricing: str
    compiler: str
    vectorization: str
    ranks_per_node: int
    threads_per_rank: int
    flags: str
    page_policy: str
    comm_scale: float
    bandwidth_jitter: float
    template_index: int
    time_s: float
    energy_j: float

    @property
    def config(self) -> str:
        """One-line human-readable configuration label."""
        return (f"{self.compiler} [{self.vectorization}] {self.flags} "
                f"{self.ranks_per_node}x{self.threads_per_rank} "
                f"pages={self.page_policy} pricing={self.pricing}")


@dataclass(frozen=True)
class TuneResult:
    """Everything one tuning sweep produced."""

    app: str
    cluster: str
    n_nodes: int
    steps: int
    pricing: tuple[str, ...]
    n_points: int
    n_templates: int
    n_excluded: int
    excluded: tuple[str, ...]
    #: exact frontier per pricing model — an ECM estimate of a config is
    #: never below the roofline estimate (the ECM data term only adds),
    #: so the two model arms get independent frontiers rather than one
    #: merged set that would structurally exclude ECM points
    frontiers: dict[str, tuple[TunePoint, ...]]
    #: the union-wide exact frontier (what a cost-blind scheduler sees)
    frontier: tuple[TunePoint, ...]
    best_time: TunePoint
    best_energy: TunePoint
    baseline_config: str
    baseline: dict[str, tuple[float, float]]
    explanations: tuple[str, ...]
    wall_seconds: float
    points_per_second: float

    def to_dict(self) -> dict[str, object]:
        """JSON-safe payload (stable key order, plain types only)."""
        payload = asdict(self)
        payload["pricing"] = list(self.pricing)
        payload["excluded"] = list(self.excluded)
        payload["frontiers"] = {
            name: [asdict(p) for p in points]
            for name, points in self.frontiers.items()
        }
        payload["frontier"] = [asdict(p) for p in self.frontier]
        payload["explanations"] = list(self.explanations)
        payload["baseline"] = {
            name: {"time_s": t, "energy_j": e}
            for name, (t, e) in self.baseline.items()
        }
        return payload

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self, *, top: int = 10) -> str:
        """Human-readable report: frontier table, winners, baseline
        comparison, exclusions, and the verify-layer explanations."""
        lines = [
            f"tune {self.app} @ {self.cluster} x{self.n_nodes} "
            f"({self.steps} steps)",
            f"  priced {self.n_points:,} points over {self.n_templates} "
            f"templates ({self.n_excluded} configs excluded) in "
            f"{self.wall_seconds:.1f} s "
            f"({self.points_per_second:,.0f} pts/s)",
        ]
        for name in self.pricing:
            points = self.frontiers[name]
            lines.append("")
            lines.append(f"Pareto frontier [{name}] ({len(points)} "
                         "points, time- and energy-minimal):")
            # scenario-jitter twins share a config label and often the
            # exact cost pair; collapse them for display only
            shown: list[TunePoint] = []
            seen: set[tuple[str, float, float]] = set()
            for point in points:
                key = (point.config, point.time_s, point.energy_j)
                if key not in seen:
                    seen.add(key)
                    shown.append(point)
            width = max(len(p.config) for p in shown[:top])
            for point in shown[:top]:
                lines.append(
                    f"  {point.config:<{width}}  {point.time_s:10.3f} s"
                    f"  {point.energy_j / 1e3:10.1f} kJ"
                )
            if len(shown) > top:
                lines.append(f"  ... and {len(shown) - top} more")
            fastest = points[0]
            greenest = min(points, key=lambda p: (p.energy_j, p.time_s,
                                                  p.point_id))
            base_t, base_e = self.baseline[name]
            lines.append(f"  fastest : {fastest.config} "
                         f"({fastest.time_s:.3f} s)")
            lines.append(f"  greenest: {greenest.config} "
                         f"({greenest.energy_j / 1e3:.1f} kJ)")
            lines.append(
                f"  baseline  {base_t:10.3f} s  {base_e / 1e3:10.1f} kJ"
                f"  -> frontier wins {base_t / fastest.time_s:.2f}x "
                f"time, {base_e / greenest.energy_j:.2f}x energy"
            )
        lines.append("")
        lines.append(f"baseline config: {self.baseline_config}")
        if self.explanations:
            lines.append("")
            lines.append("why the frontier wins (repro.verify):")
            lines.extend(f"  {line}" for line in self.explanations)
        if self.excluded:
            lines.append("")
            lines.append(f"excluded configurations ({self.n_excluded}):")
            seen: list[str] = []
            for reason in self.excluded:
                if reason not in seen:
                    seen.append(reason)
            for reason in seen[:8]:
                lines.append(f"  - {reason}")
            if len(seen) > 8:
                lines.append(f"  ... and {len(seen) - 8} more")
        return "\n".join(lines)
