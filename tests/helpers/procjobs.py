"""Picklable job functions for process-pool tests.

``ProcessShardedExecutor`` ships jobs to spawn workers by pickling them,
which means the functions must be importable by qualified name in a fresh
interpreter.  Test-module locals and lambdas don't qualify; these module
functions do (``tests/`` is on ``sys.path`` via conftest, and spawn
children inherit the parent's ``sys.path``).
"""

import os
import time

import numpy as np

from repro.utils.parallel import attach_shared_array, blas_thread_count


def square(x):
    return x * x


def worker_pid(_):
    return os.getpid()


def blas_threads(_):
    """The OpenBLAS thread count this worker runs with."""
    return blas_thread_count()


def exit_worker(_):
    """Kill the worker outright, breaking its pool."""
    os._exit(1)


def exit_once(item):
    """(marker, index) -> index; the first worker to claim ``marker`` dies.

    The marker file is created atomically, so across every attempt of a
    map exactly one call exits: the first attempt breaks the pool, a retry
    on a fresh pool runs clean.
    """
    marker, index = item
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return index
    os._exit(1)


def sleepy_index(item):
    """(index, delay) -> index, after sleeping: later items finish first."""
    index, delay = item
    time.sleep(delay)
    return index


def shared_sum(task):
    """(descriptor, scale) -> scale * sum of the shared array (zero-copy)."""
    descriptor, scale = task
    segment, view = attach_shared_array(descriptor)
    try:
        return scale * float(np.sum(view))
    finally:
        segment.close()
