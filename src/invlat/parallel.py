"""Deterministic fan-out over one process pool per process.

Results always come back in input order, so a parallel run is byte-for-byte
identical to a sequential one; a worker count of 1 runs the items in the
calling process.

The pool is created at the first call that needs more than one worker and
reused by every later call in the process, including later `cli.main` calls,
so a sweep pays the fork once rather than once per call.  Its workers are
forked once, at that first fan-out: a monkeypatch made after it does not
reach them.  A call that needs a different worker count shuts the live pool
down and joins it before the next one forks.  A pool broken by a dead worker
is dropped after the call that found it broken, and the next call starts a
fresh one.  The workers end at interpreter exit through the exit hook of
`concurrent.futures`.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

ENV_THREADS = "INVLAT_THREADS"

_pool = None  # (worker count, executor) of this process's pool, once one is made


def resolve_jobs(flag=None):
    """Worker count: explicit flag wins, then the environment, then 1."""
    if flag is not None:
        jobs = int(flag)
    else:
        env = os.environ.get(ENV_THREADS) or "1"
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"{ENV_THREADS} must be an integer, got {env!r}") from None
    if jobs < 1:
        raise ValueError("worker count must be at least 1")
    return jobs


def usable_cpus():
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(jobs, n_items, cpus):
    """Processes worth starting: never more than the CPUs or the items."""
    return max(1, min(jobs, cpus, n_items))


def parallel_map(fn, items, jobs=1):
    """[fn(x) for x in items], spread over up to `jobs` workers of the
    process's pool."""
    global _pool
    items = list(items)
    workers = worker_count(jobs, len(items), usable_cpus())
    if workers == 1:
        return [fn(x) for x in items]
    if _pool is not None and _pool[0] != workers:
        _pool[1].shutdown(wait=True)
        _pool = None
    if _pool is None:
        _pool = (workers, ProcessPoolExecutor(max_workers=workers))
    pool = _pool[1]
    try:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))
    except BrokenProcessPool:
        pool.shutdown(wait=True)
        _pool = None
        raise
