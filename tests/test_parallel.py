"""The forked workers behind parallel_map: the caller runs part 0 itself,
the workers are forked once per process and reused, dropped when one dies or
a call is cut short, and never started when the process may use one CPU
only."""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
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


def interrupt_in_caller(parent):
    if os.getpid() == parent:
        raise KeyboardInterrupt
    return parent


unpicklable = lambda x: x  # noqa: E731 - pickled by name, a lambda has none


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the machine has, so a call with jobs >= 2
    always forks one worker, and never more."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def workers():
    return {p.pid for p in multiprocessing.active_children()}


def test_pool_is_reused_across_calls(two_cpus):
    # on two CPUs the caller runs part 0, the even indices, and one forked
    # worker part 1, the same worker in both calls
    first = parallel_map(pid_of, range(8), 2)
    pool = workers()
    second = parallel_map(pid_of, range(8), 2)
    assert workers() == pool
    assert len(pool) == 1 and os.getpid() not in pool
    assert first == second == [os.getpid(), *pool] * 4


def test_new_worker_count_reforks(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    three = parallel_map(pid_of, range(6), 3)
    pool = workers()
    assert len(pool) == 2 and three[0] == os.getpid() and set(three[1:3]) == pool
    # a call with one worker fewer stops both and forks a fresh one
    two = parallel_map(pid_of, range(6), 2)
    assert len(workers()) == 1 and not workers() & pool
    assert two == [os.getpid(), *workers()] * 3


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
    # a dead worker fails the call with its exit code, as a RuntimeError
    # (not an OSError, which cli.main reports as bad input), and every
    # worker is dropped; the next call forks a fresh one
    parallel_map(pid_of, range(4), 2)
    before = workers()
    with pytest.raises(RuntimeError, match="exited with code 3$") as err:
        parallel_map(exit_in_worker, [os.getpid()] * 4, 2)
    assert err.type is RuntimeError and not workers()
    pids = parallel_map(pid_of, range(8), 2)
    assert pids[1::2] == [*workers()] * 4 and not set(pids) & before
    assert pids[::2] == [os.getpid()] * 4


def test_worker_killed_between_calls_is_replaced(two_cpus):
    # the next call finds it dead, at its send or its receive
    parallel_map(pid_of, range(4), 2)
    (dead,) = workers()
    os.kill(dead, signal.SIGKILL)
    with pytest.raises(RuntimeError, match=f"exited with code {-signal.SIGKILL}$"):
        parallel_map(pid_of, range(4), 2)
    pids = parallel_map(pid_of, range(4), 2)
    assert pids == [os.getpid(), *workers()] * 2 and dead not in pids


def test_interrupt_in_the_callers_part_leaves_no_stale_reply(two_cpus):
    # the worker's reply to the interrupted call must not reach the next one
    with pytest.raises(KeyboardInterrupt):
        parallel_map(interrupt_in_caller, [os.getpid()] * 4, 2)
    assert parallel_map(cube_mod, range(9), 2) == [cube_mod(x) for x in range(9)]


@pytest.mark.parametrize("fn, items", [
    (unpicklable, range(9)),
    # on three CPUs part 1 is sent before part 2 fails to pickle
    (pid_of, [0, 1, unpicklable, 3, 4, 5, 6, 7, 8]),
])
def test_unpicklable_task_leaves_no_stale_reply(monkeypatch, fn, items):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    with pytest.raises(pickle.PicklingError):
        parallel_map(fn, items, 3)
    assert parallel_map(cube_mod, range(9), 3) == [cube_mod(x) for x in range(9)]


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


def test_worker_exits_when_the_caller_dies():
    # A caller that dies without running its exit hook sends no None; its
    # worker closed its own copies of the caller's pipe ends, so it reads EOF
    # and exits quietly, and with it the last holder of the stdout pipe, which
    # run() reads to its end.
    script = ("import os; os.sched_getaffinity = lambda pid: {0, 1}; "
              "from invlat import parallel; "
              "print(parallel.parallel_map(abs, range(-4, 0), 2), flush=True); os._exit(0)")
    src = str(Path(parallel.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[4, 3, 2, 1]\n")


def test_exit_hook_shuts_the_pool_down(two_cpus):
    parallel_map(pid_of, range(4), 2)
    assert workers()
    parallel._stop_workers()
    assert not parallel._workers and not workers()
    parallel._stop_workers()
    assert parallel_map(cube_mod, [2, 3], 2) == [(8, 2), (27, 3)]
    assert workers()
