"""The pluggable execution-backend interface.

Every backend consumes the same :class:`~repro.ir.program.Program` through
``Backend.run(program, cluster, n_nodes) -> RunResult``; what differs is
the cost engine behind it (closed-form roofline, fastcoll-accelerated DES,
or the fully simulated DES).  A process-wide *default backend* (normally
``analytic``) lets high-level code — ``AppModel.time_step``, the harness
experiment runners — be steered with ``repro-lab run --backend ...``
without threading a parameter through every call site.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.machine.cluster import ClusterModel
from repro.network.model import NetworkModel
from repro.simmpi.mapping import RankMapping
from repro.toolchain.compiler import Binary
from repro.toolchain.profiles import default_compiler_for
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.ir.ops import ComputeOp
    from repro.ir.program import Program
    from repro.simmpi.world import WorldResult

#: backend registry; populated by the implementation modules
#: (:mod:`repro.ir.analytic`, :mod:`repro.ir.batch`,
#: :mod:`repro.ir.desbackend`).
BACKENDS: dict[str, type["Backend"]] = {}

#: name of the process-wide default backend.
_DEFAULT_BACKEND = "analytic"

#: process-wide backend tuning options (``des_shards``, ``des_workers``,
#: ``des_granularity``).  Like the default backend
#: itself, these steer code that calls ``get_backend(...).run(...)``
#: without a way to thread per-call kwargs (the harness experiment
#: registry); they are part of the sweep cache key via
#: :func:`backend_options_tag`.
_BACKEND_OPTIONS: dict[str, Any] = {}


@dataclass
class RunResult:
    """What any backend returns for one program execution.

    Work quantities are wall-clock seconds for the whole program
    (``elapsed``) and per phase name (``phase_seconds``); the analytic
    backend additionally fills the compute/comm/roofline-term breakdowns
    the figures use.  ``world`` carries the DES world result (trace,
    diagnostics, resilience bookkeeping) when a simulating backend ran.
    """

    backend: str
    program: str
    cluster: str
    n_nodes: int
    n_ranks: int
    elapsed: float
    steps: int = 1
    phase_seconds: dict[str, float] = field(default_factory=dict)
    phase_compute: dict[str, float] = field(default_factory=dict)
    phase_comm: dict[str, float] = field(default_factory=dict)
    phase_flops_time: dict[str, float] = field(default_factory=dict)
    phase_bytes_time: dict[str, float] = field(default_factory=dict)
    world: "WorldResult | None" = None
    #: sharded-DES driver accounting (``des`` backend with shards > 1).
    shard_stats: dict[str, Any] | None = None

    @property
    def seconds_per_step(self) -> float:
        return self.elapsed / self.steps


class Backend(abc.ABC):
    """One way of pricing an IR program on a cluster."""

    #: registry key (``analytic`` / ``fastcoll`` / ``des``).
    name: str = "backend"

    @abc.abstractmethod
    def run(
        self,
        program: "Program",
        cluster: ClusterModel,
        n_nodes: int,
        *,
        mapping: RankMapping | None = None,
        network: NetworkModel | None = None,
        binary: Binary | None = None,
        check_memory: bool = True,
        **kwargs: Any,
    ) -> RunResult:
        """Execute ``program`` on ``n_nodes`` of ``cluster``.

        ``mapping`` overrides the program's default rank layout (used by
        the small-scale differential tests); ``check_memory`` applies the
        Table-IV NP gating before running.
        """

    # -- shared helpers ------------------------------------------------------

    def _mapping(
        self,
        program: "Program",
        cluster: ClusterModel,
        n_nodes: int,
        mapping: RankMapping | None,
    ) -> RankMapping:
        return mapping if mapping is not None else program.mapping(
            cluster, n_nodes)

    def _binary(
        self, program: "Program", cluster: ClusterModel,
        binary: Binary | None,
    ) -> Binary | None:
        """Resolve the toolchain binary, building only when some
        :class:`~repro.ir.ops.ComputeOp` actually needs the compiler
        model (kernel-priced work without an explicit rate)."""
        if binary is not None:
            binary.check_runnable()
            return binary
        if not any(_needs_toolchain(op) for op in _compute_ops(program)):
            return None
        compiler = default_compiler_for(program.name, cluster.name)
        built = compiler.build(program.name, program.kernels,
                               language=program.language)
        built.check_runnable()
        return built


def _compute_ops(program: "Program") -> "Iterator[ComputeOp]":
    from repro.ir.ops import ComputeOp

    for phase, _ in program.iter_phases():
        for op in phase.ops:
            if isinstance(op, ComputeOp):
                yield op


def _needs_toolchain(op: "ComputeOp") -> bool:
    return (op.seconds is None and op.rate_per_core is None
            and (op.flops > 0 or op.kernel is not None))


def get_backend(name: str) -> Backend:
    """Instantiate a registered backend by name."""
    _ensure_registered()
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; choose from "
            f"{sorted(BACKENDS)}"
        ) from None
    return cls()


def set_default_backend(name: str) -> None:
    """Set the process-wide default backend (validates the name)."""
    global _DEFAULT_BACKEND
    _ensure_registered()
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        )
    _DEFAULT_BACKEND = name


def default_backend_name() -> str:
    return _DEFAULT_BACKEND


def set_backend_options(**options: Any) -> None:
    """Install process-wide backend options; a ``None`` value clears
    the key (so ``set_backend_options(des_shards=None)`` resets)."""
    for key, value in options.items():
        if value is None:
            _BACKEND_OPTIONS.pop(key, None)
        else:
            _BACKEND_OPTIONS[key] = value


def backend_option(name: str, default: Any = None) -> Any:
    """Read one process-wide backend option."""
    return _BACKEND_OPTIONS.get(name, default)


def backend_options_tag() -> str:
    """Canonical ``k=v,...`` rendering of the installed options (sorted;
    empty string when none are set) — cache-key material."""
    return ",".join(
        f"{key}={_BACKEND_OPTIONS[key]}" for key in sorted(_BACKEND_OPTIONS)
    )


def _ensure_registered() -> None:
    # the implementation modules register themselves on import.
    import repro.ir.analytic  # noqa: F401
    import repro.ir.batch  # noqa: F401
    import repro.ir.desbackend  # noqa: F401
