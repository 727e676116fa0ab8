"""Experiment sweep runner with an on-disk result cache.

``run_experiments`` executes a list of registered experiments in-process
and returns JSON-safe payloads in input order.

An optional on-disk cache keyed by ``sha256(experiment id + a content
hash of the whole ``repro`` source tree)`` makes repeated sweeps free:
any source edit changes the fingerprint and invalidates every entry, so
stale results can never be served.  Each payload carries both the
``to_dict`` form and the pre-rendered text (with and without figures),
so cache hits serve every CLI output mode without re-running anything.
Payloads are serialized as strict JSON: a non-finite value raises
``ValueError`` instead of writing ``NaN``/``Infinity`` to the cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from repro.harness.experiment import run_experiment

#: Environment variable naming the default cache directory.
CACHE_ENV = "REPRO_CACHE_DIR"

_fingerprint: str | None = None


def source_fingerprint() -> str:
    """Content hash over every ``repro`` source file (computed once)."""
    global _fingerprint
    if _fingerprint is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _fingerprint = digest.hexdigest()
    return _fingerprint


def cache_key(exp_id: str, backend: str = "analytic",
              pricing: str = "roofline") -> str:
    """Cache file stem for one experiment under the current source tree.

    The execution backend, the pricing model, the installed backend
    options (DES shard count & friends —
    ``repro.ir.backend_options_tag``) and the static analyzer version are
    part of the content hash, so a cached analytic result is never served
    for a DES (or fastcoll) request, a roofline result never for an ECM
    one, a 1-shard result never for an 8-shard one, and an
    analyzer-behavior change invalidates results even if it ships without
    a source diff (e.g. a data-only toggle).
    """
    from repro.ir import backend_options_tag
    from repro.ir.analyze import ANALYZE_VERSION

    digest = hashlib.sha256(
        f"{exp_id}\n{backend}\npricing[{pricing}]\n"
        f"opts[{backend_options_tag()}]\n"
        f"analysis-v{ANALYZE_VERSION}\n"
        f"{source_fingerprint()}".encode()
    ).hexdigest()
    return f"{exp_id}-{digest[:16]}"


def _run_one_text(exp_id: str, backend: str,
                  pricing: str) -> tuple[str, float]:
    """Run one experiment, returning its JSON-safe payload as strict JSON
    text plus the wall seconds it took.  The text is what the cache
    stores and what the caller parses, so a cached payload equals a
    fresh one."""
    from repro.ir import set_default_backend
    from repro.machine.models import set_default_pricing

    start = time.perf_counter()
    set_default_backend(backend)
    set_default_pricing(pricing)
    result = run_experiment(exp_id)
    payload = {
        "experiment": exp_id,
        "result": result.to_dict(),
        "rendered": result.render(include_figure=True),
        "rendered_no_figure": result.render(include_figure=False),
    }
    return json.dumps(payload, allow_nan=False), time.perf_counter() - start


#: per-task timing of the most recent ``run_experiments`` call:
#: ``[(experiment id, wall seconds, "run"|"cache")]``.
_last_stats: list[tuple[str, float, str]] = []


def last_run_stats() -> list[tuple[str, float, str]]:
    """Per-task wall times of the most recent :func:`run_experiments`
    call (cache hits report ~0 with source ``"cache"``)."""
    return list(_last_stats)


def resolve_cache_dir(cache_dir: str | os.PathLike | None) -> Path | None:
    """Explicit argument, else the ``REPRO_CACHE_DIR`` environment
    variable, else no caching."""
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else None


def run_experiments(
    exp_ids: list[str],
    *,
    cache_dir: str | os.PathLike | None = None,
    backend: str = "analytic",
    pricing: str | None = None,
) -> list[dict]:
    """Run experiments and return their payloads in input order.

    ``cache_dir`` (or ``$REPRO_CACHE_DIR``) enables the on-disk result
    cache; ``None`` disables caching entirely.  ``backend`` selects the
    IR execution backend installed as the process default while the
    experiments run (and is part of the cache key); ``pricing`` does the
    same for the machine-model pricing strategy (``None`` keeps the
    process default, normally roofline).
    """
    from repro.ir import default_backend_name, get_backend, set_default_backend
    from repro.machine.models import (
        default_pricing_name,
        resolve_pricing,
        set_default_pricing,
    )

    get_backend(backend)  # validate the name before any work
    pricing = resolve_pricing(pricing).name  # validate + canonicalize
    global _last_stats
    stats: list[tuple[str, float, str]] = []
    cache = resolve_cache_dir(cache_dir)
    payloads: dict[str, dict] = {}
    prev = default_backend_name()
    prev_pricing = default_pricing_name()
    try:
        for exp_id in exp_ids:
            if exp_id in payloads:
                continue
            path = (None if cache is None else
                    cache / f"{cache_key(exp_id, backend, pricing)}.json")
            if path is not None and path.is_file():
                payloads[exp_id] = json.loads(path.read_text())
                stats.append((exp_id, 0.0, "cache"))
                continue
            text, wall = _run_one_text(exp_id, backend, pricing)
            stats.append((exp_id, wall, "run"))
            payloads[exp_id] = json.loads(text)
            if path is not None:
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_suffix(".tmp")
                # The serialized text is the cache entry verbatim:
                # reloaded payloads equal fresh ones because both are
                # parsed from the same dump.
                tmp.write_text(text)
                tmp.replace(path)  # atomic publish; concurrent sweeps race safely
    finally:
        set_default_backend(prev)
        set_default_pricing(prev_pricing)
    _last_stats = stats
    return [payloads[exp_id] for exp_id in exp_ids]
