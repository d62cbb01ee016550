"""Deterministic fan-out over a process pool.

Results always come back in input order, so a parallel run is byte-for-byte
identical to a sequential one; jobs=1 short-circuits the pool entirely.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

ENV_THREADS = "INVLAT_THREADS"


def resolve_jobs(flag=None):
    """Worker count: explicit flag wins, then the environment, then 1."""
    if flag is not None:
        jobs = int(flag)
    else:
        env = os.environ.get(ENV_THREADS)
        jobs = int(env) if env else 1
    if jobs < 1:
        raise ValueError("worker count must be at least 1")
    return jobs


def worker_count(jobs, n_items, cpus):
    """Processes worth starting: never more than the CPUs or the items."""
    return max(1, min(jobs, cpus, n_items))


def parallel_map(fn, items, jobs=1):
    items = list(items)
    jobs = worker_count(jobs, len(items), os.cpu_count() or 1)
    if jobs == 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs))))
