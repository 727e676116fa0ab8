"""Unified diagnostic records for the verification subsystem.

Every checker layer (MPI message matching, SMP/placement lint, the
vectorization advisor) emits :class:`Diagnostic` records into one stream so
tooling — the ``repro-lab verify`` CLI, tests, CI gates — consumes a single
machine-readable format.  A diagnostic names its *rule* (stable id from the
catalog below), a severity, a location (rank, phase, kernel, or placement),
a human explanation, and a concrete fix hint — the layer the paper's
machines were missing ("A64FX — Your Compiler You Must Decide!").
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.util.errors import ConfigurationError


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` — the program is wrong (would hang, crash, or corrupt data);
    ``WARNING`` — the program works but silently loses performance or is
    fragile (the Fig. 2 page-placement trap);
    ``ADVICE`` — an explanation of a modeled limitation with a remedy (the
    vectorization advisor's output);
    ``INFO`` — confirmation that a check ran and passed.
    """

    ERROR = "error"
    WARNING = "warning"
    ADVICE = "advice"
    INFO = "info"

    @property
    def rank(self) -> int:
        return _SEVERITY_ORDER[self]


_SEVERITY_ORDER = {
    Severity.ERROR: 0,
    Severity.WARNING: 1,
    Severity.ADVICE: 2,
    Severity.INFO: 3,
}


@dataclass(frozen=True)
class Rule:
    """One entry of the rule catalog."""

    rule_id: str
    severity: Severity
    summary: str


#: The rule catalog.  Stable ids; docs/VERIFY.md documents each in detail.
RULES: dict[str, Rule] = {
    r.rule_id: r
    for r in (
        # -- MPI checker ----------------------------------------------------
        Rule("MPI001", Severity.ERROR, "unmatched send (message never received)"),
        Rule("MPI002", Severity.ERROR, "unmatched receive (no message ever sent)"),
        Rule("MPI003", Severity.ERROR, "send/receive tag mismatch between a pair"),
        Rule("MPI004", Severity.ERROR, "collective call sequence diverges across ranks"),
        Rule("MPI005", Severity.ERROR, "root rank disagreement in a rooted collective"),
        Rule("MPI006", Severity.WARNING, "collective payload sizes differ across ranks"),
        Rule("MPI007", Severity.ERROR, "deadlock: cyclic wait-for dependency"),
        Rule("MPI008", Severity.ERROR, "deadlock: rank blocked with no cycle (missing sender)"),
        # -- SMP / placement lint -------------------------------------------
        Rule("SMP001", Severity.ERROR, "core oversubscription"),
        Rule("SMP002", Severity.WARNING, "rank's threads avoidably span NUMA domains"),
        Rule("SMP003", Severity.WARNING, "prepage page policy on an OpenMP-spanning run (Fig. 2 trap)"),
        Rule("SMP004", Severity.WARNING, "ranks per node do not divide the cores evenly"),
        Rule("SMP005", Severity.INFO, "cores left idle by the rank x thread layout"),
        # -- resilience / dynamic faults ------------------------------------
        Rule("RES001", Severity.ERROR, "node crash terminated its ranks mid-run"),
        Rule("RES002", Severity.ERROR, "peer failure detected (recv timeout against a dead node)"),
        Rule("RES003", Severity.WARNING, "recv retries exhausted without failure evidence (suspected straggler)"),
        Rule("RES004", Severity.WARNING, "link bandwidth degraded mid-run"),
        Rule("RES005", Severity.INFO, "degraded link recovered mid-run"),
        Rule("RES006", Severity.WARNING, "compute straggler onset mid-run"),
        Rule("RES007", Severity.INFO, "OS-noise burst raised compute jitter"),
        Rule("RES008", Severity.INFO, "scheduler reallocated a job around failed nodes"),
        Rule("RES009", Severity.INFO, "checkpoint/restart cost charged to time-to-solution"),
        Rule("RES010", Severity.ERROR, "rendezvous send timed out (unreachable destination)"),
        # -- static IR analyzer (repro.ir.analyze) --------------------------
        Rule("STA001", Severity.ERROR, "static deadlock: cyclic wait-for dependency in the unrolled program"),
        Rule("STA002", Severity.ERROR, "static unmatched send (message never received)"),
        Rule("STA003", Severity.ERROR, "static unsatisfiable receive (no matching send exists)"),
        Rule("STA004", Severity.ERROR, "collective call sequence diverges across ranks (static)"),
        Rule("STA005", Severity.ERROR, "root rank disagreement in a rooted collective (static)"),
        Rule("STA006", Severity.WARNING, "collective payload sizes differ across ranks (static)"),
        Rule("STA007", Severity.ERROR, "eager/rendezvous overtaking hazard on a reused channel"),
        Rule("STA008", Severity.ERROR, "per-node footprint exceeds node memory"),
        Rule("STA009", Severity.WARNING, "per-node footprint within 10% of node memory"),
        Rule("STA010", Severity.ERROR, "rank x thread layout oversubscribes node cores"),
        Rule("STA011", Severity.WARNING, "rank layout misaligned with NUMA/CMG domain size"),
        Rule("STA012", Severity.ADVICE, "NIC injection floor is a first-order cost term"),
        Rule("STA015", Severity.INFO, "communication proven statically safe"),
        Rule("STA016", Severity.ADVICE, "dead op: contributes no modeled work"),
        Rule("STA017", Severity.INFO, "per-node footprint fits node memory"),
        # -- vectorization advisor ------------------------------------------
        Rule("VEC001", Severity.ADVICE, "irregular access pattern defeats the autovectorizer"),
        Rule("VEC002", Severity.ADVICE, "immature SVE back end leaves the loop scalar"),
        Rule("VEC003", Severity.ADVICE, "kernel class not covered by the profile (fully scalar)"),
        Rule("VEC004", Severity.ADVICE, "branchy code barely vectorizes on any toolchain"),
        Rule("VEC005", Severity.ADVICE, "partial vectorization: masks/gathers cost throughput"),
        Rule("VEC006", Severity.ERROR, "documented deployment failure of this toolchain"),
        Rule("VEC007", Severity.INFO, "kernel class vectorizes well under this toolchain"),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one checker.

    ``location`` is checker-specific but human-meaningful: ``rank 3``,
    ``phase solver``, ``kernel fem-assembly``, ``node layout``.
    ``details`` carries machine-readable specifics (ranks, tags, sizes).
    """

    rule_id: str
    message: str
    hint: str = ""
    location: str = ""
    details: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rule_id not in RULES:
            raise ConfigurationError(f"unknown rule id {self.rule_id!r}")

    @property
    def severity(self) -> Severity:
        return RULES[self.rule_id].severity

    @property
    def summary(self) -> str:
        return RULES[self.rule_id].summary

    def render(self) -> str:
        head = f"[{self.severity.value.upper():7s}] {self.rule_id}"
        if self.location:
            head += f" @ {self.location}"
        lines = [f"{head}: {self.message}"]
        if self.hint:
            lines.append(f"          hint: {self.hint}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "summary": self.summary,
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
            "details": self.details,
        }


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics with rendering helpers."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    title: str = ""

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    def by_rule(self, rule_id: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.rule_id == rule_id]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def clean(self) -> bool:
        """No errors and no warnings (advice/info are not findings)."""
        return not self.errors and not self.by_severity(Severity.WARNING)

    def sorted(self) -> list[Diagnostic]:
        """Diagnostics ordered most severe first (stable within a level)."""
        return sorted(self.diagnostics, key=lambda d: d.severity.rank)

    def render(self, *, min_severity: Severity = Severity.INFO) -> str:
        lines = []
        if self.title:
            lines.append(f"== verify: {self.title} ==")
        shown = [
            d for d in self.sorted() if d.severity.rank <= min_severity.rank
        ]
        lines.extend(d.render() for d in shown)
        counts = self.counts()
        tally = ", ".join(
            f"{counts[s]} {s.value}{'s' if counts[s] != 1 else ''}"
            for s in Severity
            if counts[s]
        )
        lines.append(f"-- {tally or 'no findings'} --")
        return "\n".join(lines)

    def counts(self) -> dict[Severity, int]:
        counts = {s: 0 for s in Severity}
        for d in self.diagnostics:
            counts[d.severity] += 1
        return counts

    def to_json(self, *, indent: int | None = 2) -> str:
        payload = {
            "title": self.title,
            "clean": self.clean,
            "counts": {s.value: n for s, n in self.counts().items()},
            "diagnostics": [d.to_dict() for d in self.sorted()],
        }
        return json.dumps(payload, indent=indent)
