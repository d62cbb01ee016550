"""Deterministic fan-out: the caller runs one strided part, forked workers the
others, and the results come back in input order, as in a serial run.  With w
workers the caller sends (fn, items[k::w]), k >= 1, down each of w - 1 worker
pipes, runs items[0::w] itself, then receives the other parts.  It interleaves
them only if every part came back whole; else it runs the serial loop itself,
which returns its results or raises its exception.  The workers are forked,
and `multiprocessing` imported, at the first call that needs them, and reused
by later calls with the same count.  A worker stops at the message
None: its fork holds copies of the caller's pipe ends and would see no EOF.
Any other way out between a call's sends and its receives kills and joins
every worker, so no stale reply reaches a later call.
"""

from __future__ import annotations

import atexit
import os
from contextlib import suppress

ENV_THREADS = "INVLAT_THREADS"

_workers = []  # (process, caller's pipe end) of this process's forked workers


def resolve_jobs(flag=None):
    """Worker count: explicit flag (--jobs) wins, then the environment,
    then 1.  A count below 1 is rejected, naming where it came from."""
    if flag is not None:
        jobs, source = int(flag), "--jobs"
    else:
        env = os.environ.get(ENV_THREADS) or "1"
        try:
            jobs, source = int(env), ENV_THREADS
        except ValueError:
            raise ValueError(f"{ENV_THREADS} must be an integer, got {env!r}") from None
    if jobs < 1:
        raise ValueError(f"{source} must be at least 1, got {jobs}")
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


def _stop_workers(kill=False):
    """Stop each worker, by the message None or by SIGKILL, and join it."""
    for proc, conn in _workers:
        with suppress(OSError):  # it died since the last call
            proc.kill() if kill else conn.send(None)
        proc.join()
    _workers.clear()


def _serve(conn):
    """A worker: close its copies of the caller's pipe ends, serve parts till None
    or EOF.  A part on which fn raises, or whose reply does not pickle, gets None."""
    while _workers:
        _workers.pop()[1].close()
    with suppress(EOFError):
        while (task := conn.recv()) is not None:
            fn, part = task
            try:
                conn.send([fn(x) for x in part])
            except Exception:  # send pickles the whole reply before it writes
                conn.send(None)


def parallel_map(fn, items, jobs=1):
    """[fn(x) for x in items] over the caller and up to jobs - 1 workers, one
    strided part each, interleaved back.  If any part fails, the caller runs
    that serial loop itself, so on a failing call fn may run twice on an item."""
    items = list(items)
    workers = worker_count(jobs, len(items), usable_cpus())
    if workers > 1:
        if len(_workers) != workers - 1:
            _stop_workers()
            import multiprocessing
            for _ in range(workers - 1):
                conn, child = multiprocessing.Pipe()
                _workers.append((multiprocessing.Process(target=_serve, args=(child,)), conn))
                _workers[-1][0].start()
                child.close()
            atexit.unregister(_stop_workers)  # after multiprocessing's hook, which
            atexit.register(_stop_workers)  # joins children, so this runs first
        try:
            for k, (proc, conn) in enumerate(_workers, 1):
                conn.send((fn, items[k::workers]))
            try:
                parts = [[fn(x) for x in items[::workers]]]
            except Exception:
                parts = [None]
            for proc, conn in _workers:
                parts.append(conn.recv_bytes())
        except BaseException as exc:
            _stop_workers(kill=True)
            if isinstance(exc, (EOFError, OSError)):  # proc is dead
                raise RuntimeError(f"fan-out worker exited with code {proc.exitcode}") from None
            raise
        from pickle import loads
        try:
            parts[1:] = map(loads, parts[1:])
        except Exception:  # a reply that does not unpickle is a failed part
            parts = [None]
        if None not in parts:
            results = [None] * len(items)
            for k, part in enumerate(parts):
                results[k::workers] = part
            return results
    return [fn(x) for x in items]
