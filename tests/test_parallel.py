"""The process pool behind parallel_map: one per process, reused, replaced
when broken, and never started when the process may use one CPU only."""

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from invlat import parallel
from invlat.parallel import parallel_map


def pid_of(_):
    return os.getpid()


def cube_mod(x):
    return pow(x, 3, 1009), x


def exit_in_worker(parent):
    if os.getpid() != parent:
        os._exit(3)
    return parent


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the machine has, so the pool always starts
    and never with more than two workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def workers():
    return {p.pid for p in multiprocessing.active_children()}


def test_pool_is_reused_across_calls(two_cpus):
    first = parallel_map(pid_of, range(8), 2)
    pool = workers()
    second = parallel_map(pid_of, range(8), 2)
    assert workers() == pool
    assert len(pool) == 2 and os.getpid() not in pool
    assert set(first) | set(second) <= pool


def test_results_equal_serial_results_in_order(two_cpus):
    items = list(range(50))
    assert parallel_map(cube_mod, items, 2) == [cube_mod(x) for x in items]


def test_broken_pool_is_replaced(two_cpus):
    parallel_map(pid_of, range(4), 2)
    before = workers()
    with pytest.raises(BrokenProcessPool):
        parallel_map(exit_in_worker, [os.getpid()] * 4, 2)
    pids = set(parallel_map(pid_of, range(8), 2))
    assert pids <= workers()
    assert not pids & before and os.getpid() not in pids


def test_one_usable_cpu_runs_in_the_caller(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert parallel.usable_cpus() == 1
    assert parallel_map(pid_of, range(4), 2) == [os.getpid()] * 4
