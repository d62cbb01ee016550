"""The process pool behind parallel_map: one per process, reused, replaced
when broken, and never started when the process may use one CPU only."""

import multiprocessing
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from invlat import parallel
from invlat.parallel import parallel_map


def pid_of(_):
    return os.getpid()


def cube_mod(x):
    return pow(x, 3, 1009), x


def fail_at_3_4_7(x):
    if x in (3, 4, 7):
        raise ValueError(x)
    return x


def fail_at_4_7(x):
    return fail_at_3_4_7(x) if x != 3 else x


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


@pytest.mark.parametrize("count", [0, 1, 2, 3, 5, 50])
def test_strided_parts_equal_serial_results(two_cpus, count):
    # each worker gets items[k::2] as one task; the parts interleave back
    items = [x * 7 - 20 for x in range(count)]
    assert parallel_map(cube_mod, items, 2) == [cube_mod(x) for x in items]


@pytest.mark.parametrize("fn, lowest", [(fail_at_3_4_7, 3), (fail_at_4_7, 4)])
def test_lowest_failing_index_is_raised(two_cpus, fn, lowest):
    # the parts are the evens and the odds: the failure the serial loop
    # meets first is raised, whichever part holds it, as with one worker
    for jobs in (1, 2):
        with pytest.raises(ValueError) as err:
            parallel_map(fn, range(10), jobs)
        assert err.value.args == (lowest,)


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


def test_exit_after_fan_out_is_quiet():
    # A module kept alive to the end of interpreter teardown, as a test
    # runner keeps its modules, must not leave its pool to be collected after
    # concurrent.futures.process is torn down: the pool's weakref callback
    # would print "Exception ignored in: ... weakref_cb" to stderr.
    script = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
              "from invlat import parallel; sys.kept = parallel; "
              "print(parallel.parallel_map(abs, range(-8, 0), 2))")
    src = str(Path(parallel.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[8, 7, 6, 5, 4, 3, 2, 1]\n"


def test_exit_hook_shuts_the_pool_down(two_cpus):
    parallel_map(pid_of, range(4), 2)
    assert workers()
    parallel._shutdown_pool()
    assert parallel._pool is None and not workers()
    parallel._shutdown_pool()
    assert parallel_map(cube_mod, [2, 3], 2) == [(8, 2), (27, 3)]
    assert workers()
