"""Deterministic fan-out: the caller runs one strided part, forked workers the
others, and the results come back in input order, as in a serial run.  With w
workers the caller sends (fn, items[k::w]), k >= 1, down each of w - 1 worker
pipes, runs items[0::w] itself, then receives the other parts.  The workers
are forked, and `multiprocessing` imported, at the first call that needs them,
and reused by later calls with the same count.  A worker stops at the message
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
    or EOF.  A reply that does not pickle gets a TypeError at its first bad item."""
    from multiprocessing.reduction import ForkingPickler
    while _workers:
        _workers.pop()[1].close()
    with suppress(EOFError):
        while (task := conn.recv()) is not None:
            done, exc = _run_part(*task)
            try:
                conn.send((done, exc))
            except Exception as err:  # send pickles it all before it writes: cut it
                done = done[:len(_run_part(ForkingPickler.dumps, done)[0])]
                conn.send((done, TypeError(f"fan-out reply does not pickle: {err}")))


def _run_part(fn, items):
    """fn over one part of the items, in order, up to the first failure:
    (results, None), or (results before it, the exception)."""
    results = []
    try:
        for x in items:
            results.append(fn(x))
    except Exception as exc:
        return results, exc
    return results, None


def parallel_map(fn, items, jobs=1):
    """[fn(x) for x in items] over the caller and up to jobs - 1 workers, one
    strided part each, interleaved back.  A part stops at its first failure;
    the exception of the lowest failing index, the serial loop's, is raised."""
    items = list(items)
    workers = worker_count(jobs, len(items), usable_cpus())
    if workers == 1:
        return [fn(x) for x in items]
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
        parts = [_run_part(fn, items[::workers])]
        for proc, conn in _workers:
            parts.append(conn.recv())
    except BaseException as exc:
        _stop_workers(kill=True)
        if isinstance(exc, (EOFError, ConnectionError)):  # proc is dead
            raise RuntimeError(f"fan-out worker exited with code {proc.exitcode}") from None
        raise
    failed = [(k + len(done) * workers, exc) for k, (done, exc) in enumerate(parts) if exc]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    results = [None] * len(items)
    for k, (done, _) in enumerate(parts):
        results[k::workers] = done
    return results
