"""Persistent worker processes with per-call wall-time accounting.

The sharded DES driver (:mod:`repro.des.shard.driver`) needs long-lived
workers that hold heavy state (built sub-worlds) across hundreds of
small window-boundary exchanges.  A :class:`PersistentPool` spawns one
process per init payload, builds a handler object inside each via a
module-level factory, and then routes ``call_all`` batches over pipes —
measuring the handler wall time worker-side, so the stats separate
simulation work from IPC.  A worker that exits mid-call surfaces as
:class:`~repro.util.errors.WorkerDied`, never as a bare pipe error.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing.connection import Connection
from time import perf_counter
from typing import Any, Callable, NoReturn

from repro.util.errors import WorkerDied

#: what a pipe raises when the process at its other end has gone.
_PIPE_ERRORS = (EOFError, ConnectionResetError, BrokenPipeError)


def _pool_worker(
    conn: Connection, factory: Callable[[Any], Any], init: Any
) -> None:
    try:
        handler = factory(init)
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        _send_error(conn, exc, 0.0)
        return
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg[0] == "stop":
            return
        t0 = perf_counter()
        try:
            result = handler.handle(msg[1])
        except BaseException as exc:  # noqa: BLE001 - forwarded
            _send_error(conn, exc, perf_counter() - t0)
            continue
        conn.send(("ok", result, perf_counter() - t0))


def _send_error(conn: Connection, exc: BaseException, wall: float) -> None:
    try:
        conn.send(("err", exc, wall))
    except Exception:
        # Unpicklable exception: forward a picklable stand-in.
        conn.send(("err", RuntimeError(f"worker failed: {exc!r}"), wall))


class PersistentPool:
    """One process per init payload; batched request/reply over pipes."""

    def __init__(
        self,
        factory: Callable[[Any], Any],
        inits: list[Any],
    ) -> None:
        ctx = multiprocessing.get_context()
        self._conns: list[Connection] = []
        self._procs: list[multiprocessing.process.BaseProcess] = []
        #: per-worker handler wall seconds, one entry per completed call.
        self.call_walls: list[list[float]] = [[] for _ in inits]
        for init in inits:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_pool_worker,
                args=(child_conn, factory, init),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def __len__(self) -> int:
        return len(self._procs)

    def call_all(self, messages: list[Any]) -> list[Any]:
        """Send ``messages[i]`` to worker ``i``; gather replies in worker
        order.  A worker-side exception is re-raised here after the whole
        batch has been collected (no worker is left mid-protocol)."""
        if len(messages) != len(self._conns):
            raise ValueError(
                f"{len(messages)} messages for {len(self._conns)} workers"
            )
        for i, (conn, msg) in enumerate(zip(self._conns, messages)):
            try:
                conn.send(("call", msg))
            except _PIPE_ERRORS:
                self._worker_died(i)
        replies: list[Any] = []
        error: BaseException | None = None
        for i, conn in enumerate(self._conns):
            try:
                kind, payload, wall = conn.recv()
            except _PIPE_ERRORS:
                self._worker_died(i)
            self.call_walls[i].append(wall)
            if kind == "err":
                error = error if error is not None else payload
                replies.append(None)
            else:
                replies.append(payload)
        if error is not None:
            self.close()
            raise error
        return replies

    def _worker_died(self, index: int) -> NoReturn:
        """Worker ``index`` hung up mid-call: the batch protocol cannot
        resume, so stop every worker and raise :class:`WorkerDied`."""
        proc = self._procs[index]
        proc.join(timeout=5.0)
        exitcode = proc.exitcode
        for other in self._procs:
            if other.is_alive():
                other.terminate()
            other.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        raise WorkerDied(
            f"pool worker {index} exited mid-call (exit code {exitcode})",
            worker=index, exitcode=exitcode,
        )

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            conn.close()

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
