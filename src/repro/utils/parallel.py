"""Thread-parallel execution layer: sharded chain blocks across cores.

The paper's core scaling argument is that CD-k sampling is embarrassingly
parallel across chains — in hardware every chain occupies its own replica
of the node array and all replicas settle simultaneously.  The software
analogue so far was *batched* (one matmul over all chains); this module
adds the *multicore* analogue: split the chain block into per-worker
shards and advance the shards concurrently on a thread pool.

Threads (not processes) are the right tool here because the settle kernels
are BLAS-bound: NumPy's matmul, elementwise ufuncs, and the Generator's
fill routines all release the GIL while they run, so shard threads run
concurrently without any pickling or shared-memory choreography — the
coupling matrix is shared read-only across shards by reference.

Each shard's BLAS calls bring their own OpenBLAS worker threads, so ``k``
shard threads alone would ask for ``k`` times the cores OpenBLAS already
uses.  The executor therefore owns a BLAS thread budget: while a map runs
``s`` shards, numpy's bundled OpenBLAS runs ``max(1, min(saved, cores //
s))`` threads (``saved`` is the count in force before the map, so a
user's lower ``OPENBLAS_NUM_THREADS`` is never raised), restored when the
last overlapping map leaves; spawn workers apply the same budget once, at
start-up.  Without a findable OpenBLAS (MKL, Accelerate) the budget is a
no-op.

Determinism contract (see docs/performance.md, "The multicore layer"):

* ``workers=1`` never touches this module's streams — callers run their
  original serial kernel, bit-identical to the pre-threading code.
* ``workers=k > 1`` gives shard ``i`` its own RNG substream, derived from
  a dedicated ``SeedSequence`` root by deterministic spawn-key arithmetic
  ``(k, i)``.  The substreams are a pure function of (master seed, k, i):
  fixed seed + fixed worker count is reproducible run to run, and worker
  counts never alias each other's streams.  Results *do* change with
  ``k`` — chain draws move between streams — which is why the sharded
  paths are pinned statistically (``tests/property/
  test_parallel_statistics.py``), not by seed.

``workers=None`` defers to :func:`default_workers` — the ``REPRO_WORKERS``
environment variable (the CI matrix's knob) or 1 — and ``workers="auto"``
resolves to the machine's core count.

The process tier
----------------

Threads stop paying once shards contend on memory bandwidth and on the
GIL-held slices of the Generator fill routines.  ``executor="processes"``
(:class:`ProcessShardedExecutor`, ``REPRO_EXECUTOR``) moves each shard
into its own interpreter: the coupling matrix is published **once per
program** into ``multiprocessing.shared_memory`` (:class:`SharedNDArray`)
and workers map zero-copy ``np.ndarray`` views over it, so the per-settle
task payload is only the shard's chain rows plus its RNG state — the
p×(n·m) hot data never crosses a pickle boundary.  Shard RNG streams are
shipped to the worker and their advanced states written back afterwards,
which makes ``executor="processes"`` **draw-identical** to
``executor="threads"`` at the same ``workers=k`` — the executor knob moves
*where* a shard runs, never *what* it draws.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import wait as wait_for_all
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar, Union

import multiprocessing
import weakref

import numpy as np

from repro.utils.validation import ValidationError

__all__ = [
    "ProcessShardedExecutor",
    "SharedNDArray",
    "ShardedExecutor",
    "available_cores",
    "blas_thread_count",
    "default_executor",
    "default_workers",
    "resolve_executor",
    "resolve_workers",
    "shard_blas_threads",
    "shard_seed_sequence",
    "shard_slices",
    "shutdown_process_pools",
]

T = TypeVar("T")
R = TypeVar("R")

WorkersLike = Union[None, int, str]

#: Environment variable consulted when ``workers=None`` — the CI matrix's
#: knob for opting *eligible* call sites into the sharded paths (surfaces
#: that cannot shard, e.g. the legacy reference path, keep their serial
#: kernels rather than erroring; an explicit ``workers=k`` argument still
#: fails loudly there).  Note that bit-identical fast-vs-legacy comparisons
#: legitimately diverge under this variable — the suites that pin those
#: contracts pass ``workers=1`` explicitly or clear the variable.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Environment variable consulted when ``executor=None`` — selects which
#: execution tier sharded call sites use (``"threads"`` or ``"processes"``).
#: Orthogonal to ``REPRO_WORKERS``: with ``workers=1`` the serial kernels
#: run regardless of the executor, so the variable is a no-op until a call
#: site actually shards.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: The valid executor tiers, in documentation order.
EXECUTORS = ("threads", "processes")


def default_executor() -> str:
    """Executor tier used when a caller passes ``executor=None``.

    Reads ``REPRO_EXECUTOR`` (``"threads"`` or ``"processes"``); unset
    means ``"threads"`` — the PR-4 thread tier, which remains the default
    because it needs no pickling or shared-memory choreography.
    """
    raw = os.environ.get(EXECUTOR_ENV_VAR)
    if raw is None or raw.strip() == "":
        return "threads"
    return resolve_executor(raw.strip(), name=EXECUTOR_ENV_VAR)


def resolve_executor(executor: Optional[str], *, name: str = "executor") -> str:
    """Normalize an ``executor`` knob into ``"threads"`` or ``"processes"``.

    ``None`` defers to :func:`default_executor` (``REPRO_EXECUTOR`` or
    ``"threads"``).  Anything else must be one of the two tier names —
    a typo fails at the API boundary with a :class:`ValidationError`
    instead of silently running serial.
    """
    if executor is None:
        return default_executor()
    if isinstance(executor, str) and executor in EXECUTORS:
        return executor
    raise ValidationError(
        f"{name} must be one of {EXECUTORS} or None, got {executor!r}"
    )


def default_workers() -> int:
    """Worker count used when a caller passes ``workers=None``.

    Reads ``REPRO_WORKERS`` (an integer or ``"auto"``); unset means 1 —
    the serial kernels, bit-identical to the pre-threading implementation.
    """
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is None or raw.strip() == "":
        return 1
    raw = raw.strip()
    if raw == "auto":
        return resolve_workers("auto")
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(
            f"{WORKERS_ENV_VAR} must be a positive integer or 'auto', got {raw!r}"
        ) from None
    return resolve_workers(value, name=WORKERS_ENV_VAR)


def resolve_workers(workers: WorkersLike, *, name: str = "workers") -> int:
    """Normalize a ``workers`` knob into a validated positive int.

    ``None`` defers to :func:`default_workers` (``REPRO_WORKERS`` or 1);
    ``"auto"`` resolves to the machine's available core count.  Anything
    that is not a positive integer — floats, bools, strings, ``workers=0``
    — raises a :class:`ValidationError` naming the offending value, so a
    typo'd shard count fails at the API boundary instead of surfacing as a
    numpy reshape traceback deep inside a settle.
    """
    if workers is None:
        return default_workers()
    if isinstance(workers, str):
        if workers == "auto":
            return available_cores()
        raise ValidationError(
            f"{name} must be a positive int, 'auto', or None, got {workers!r}"
        )
    # bool is an int subclass; workers=True is a typo, not one worker.
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)):
        raise ValidationError(
            f"{name} must be a positive int, 'auto', or None, "
            f"got {workers!r} of type {type(workers).__name__}"
        )
    if workers < 1:
        raise ValidationError(f"{name} must be >= 1, got {int(workers)}")
    return int(workers)


def available_cores() -> int:
    """Cores this process may run on (its CPU affinity), at least 1."""
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity is not None else os.cpu_count()
    return max(1, int(cores or 1))


def shard_slices(n_items: int, workers: int) -> List[slice]:
    """Contiguous, balanced row slices covering ``n_items`` across shards.

    Produces ``min(workers, n_items)`` non-empty slices; the first
    ``n_items % shards`` shards are one row longer.  Shard boundaries are a
    pure function of ``(n_items, workers)``, which the per-shard RNG
    substream contract relies on.
    """
    if n_items < 1:
        raise ValidationError(f"n_items must be >= 1, got {n_items}")
    shards = min(int(workers), n_items)
    base, extra = divmod(n_items, shards)
    slices: List[slice] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


def shard_seed_sequence(
    root: np.random.SeedSequence, workers: int, shard_index: int
) -> np.random.SeedSequence:
    """The deterministic per-shard seed: root entropy + spawn key ``(k, i)``.

    Keying by the *requested* worker count (not the materialized shard
    count) means shard ``i`` of a ``workers=k`` run always sees the same
    substream for a given master seed, regardless of how many shards the
    chain count actually filled, and runs with different ``k`` can never
    alias each other's streams.
    """
    return np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=tuple(root.spawn_key) + (int(workers), int(shard_index)),
    )


# --------------------------------------------------------------------------
# BLAS thread budget: shards x OpenBLAS threads stays within the cores.
# --------------------------------------------------------------------------


def shard_blas_threads(saved: int, shards: int, cores: int) -> int:
    """BLAS threads per shard while ``shards`` shards run on ``cores`` cores.

    ``max(1, min(saved, cores // shards))``: the shards split the cores
    between them, never more than the ``saved`` count already in force
    (a user's lower ``OPENBLAS_NUM_THREADS`` is a ceiling) and never
    fewer than one.
    """
    return max(1, min(int(saved), int(cores) // max(1, int(shards))))


class _OpenBLAS:
    """The thread-count entry points of numpy's bundled OpenBLAS."""

    def __init__(self, getter, setter):
        self._getter = getter
        self._setter = setter

    def get(self) -> int:
        return int(self._getter())

    def set(self, threads: int) -> None:
        self._setter(int(threads))


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[_OpenBLAS]:
    """numpy's bundled OpenBLAS, loaded on first use; ``None`` when absent.

    Wheels ship it as ``numpy.libs/*openblas*`` with the
    ``scipy_openblas_*64_`` symbol names; the plain ``openblas_*`` names
    are the fallback.  A numpy linked against another BLAS (MKL,
    Accelerate) has no such library, and the budget is then a no-op.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(name for name in os.listdir(libs) if "openblas" in name)
    except OSError:  # no numpy.libs: not a wheel build
        return None
    for name in names:
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if getter is None or setter is None:
                    continue
                getter.argtypes = []
                getter.restype = ctypes.c_int
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                return _OpenBLAS(getter, setter)
    return None


def blas_thread_count() -> Optional[int]:
    """The OpenBLAS thread count in force now, or ``None`` without OpenBLAS."""
    blas = _openblas()
    return None if blas is None else blas.get()


class _BlasBudget:
    """The process-wide OpenBLAS thread count while threaded maps run.

    The count is global to the process, and maps may overlap (two threads
    each driving a sharded settle), so entries are counted: the first map
    to enter saves the count in force, every map lowers it to its own
    budget when that is lower, and the last map to leave restores the
    saved count.  A BLAS call made from any other thread while a map runs
    also runs on the budget.
    """

    # The depth, the saved count and the current count are one unit: the
    # save-on-first-enter and restore-on-last-exit decisions are wrong if
    # any of them is read without the lock.
    # reprolint: guard(_lock)=_depth,_saved,_current

    # reprolint: lockfree -- construction happens-before sharing: the one instance is built at import
    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0
        self._current = 0

    @contextlib.contextmanager
    def limit(self, shards: int):
        """Run the body with the OpenBLAS count budgeted for ``shards``."""
        blas = _openblas()
        if blas is None:
            yield
            return
        cores = available_cores()
        with self._lock:
            if self._depth == 0:
                self._saved = self._current = blas.get()
            self._depth += 1
            budget = shard_blas_threads(self._saved, shards, cores)
            if budget < self._current:
                blas.set(budget)
                self._current = budget
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0 and self._current != self._saved:
                    blas.set(self._saved)
                    self._current = self._saved


_BLAS_BUDGET = _BlasBudget()


def _budget_worker_blas(shards: int) -> None:
    """Process-pool initializer: each spawn worker takes the same budget
    a ``shards``-wide threaded map gives its shards, once, at start-up."""
    blas = _openblas()
    if blas is None:
        return
    saved = blas.get()
    budget = shard_blas_threads(saved, shards, available_cores())
    if budget < saved:
        blas.set(budget)


# One shared pool per worker count, created lazily and reused for the life
# of the process: settle/AIS calls are far shorter than thread start-up, so
# per-call pool construction would eat the concurrency win.  The pools are
# module-level (not per-substrate) so a fleet of substrates does not
# multiply idle threads; concurrent.futures drains them at interpreter
# exit.
_POOLS: dict = {}
_POOLS_LOCK = threading.Lock()


def _shared_pool(workers: int) -> ThreadPoolExecutor:
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-shard{workers}"
            )
            _POOLS[workers] = pool
        return pool


class ShardedExecutor:
    """Run per-shard thunks concurrently, preserving shard order.

    ``workers=1`` (or a single item) runs inline on the calling thread —
    no pool, no handoff, so the serial paths pay nothing for the layer's
    existence.  ``workers=k`` dispatches onto the shared ``k``-thread pool
    and gathers results *in submission order*, so callers can concatenate
    shard outputs deterministically regardless of completion order.  While
    the shards run, OpenBLAS runs on the BLAS thread budget
    (:func:`shard_blas_threads`); the count in force before the map is
    restored once every shard has finished, also when one raises.
    """

    def __init__(self, workers: WorkersLike = None):
        self.workers = resolve_workers(workers)

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, in parallel when it pays off."""
        items = list(items)
        if self.workers == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        pool = _shared_pool(self.workers)
        with _BLAS_BUDGET.limit(min(self.workers, len(items))):
            futures = [pool.submit(fn, item) for item in items]
            wait_for_all(futures)
        return [future.result() for future in futures]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedExecutor(workers={self.workers})"


# --------------------------------------------------------------------------
# Process tier: shared-memory array publication + a spawn-based pool.
# --------------------------------------------------------------------------


class SharedNDArray:
    """A read-only ndarray published once into ``multiprocessing.shared_memory``.

    The owner constructs it from a source array (one copy, at publication
    time); workers rebuild a zero-copy view from the ``(name, shape,
    dtype)`` descriptor via :func:`attach_shared_array`.  ``close()``
    unlinks the segment; a ``weakref.finalize`` backstop unlinks it at
    garbage collection so an abandoned owner cannot leak the segment for
    the life of the machine.

    ``pin()``/``release()`` let an in-flight consumer hold the segment
    across a ``close()`` racing in from another thread (the substrate's
    invalidate-while-settling case): a close that lands while pins are
    outstanding is deferred until the last ``release()``, so workers that
    were already handed the descriptor can still attach.
    """

    # The pin count and the deferred-close flag form one atomic unit: close
    # decides "defer or unlink" and release decides "last pin runs the
    # deferred close" — both decisions are wrong if the fields are read
    # without the lock (enforced by reprolint R003, see docs/dev.md).
    # reprolint: guard(_pin_lock)=_pins,_close_pending

    # reprolint: lockfree -- construction happens-before sharing: the array is published to other threads only after __init__ returns
    def __init__(self, array: np.ndarray):
        from multiprocessing import shared_memory

        array = np.ascontiguousarray(array)
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=self._shm.buf)
        view[...] = array
        self.name = self._shm.name
        self.shape = tuple(array.shape)
        self.dtype = np.dtype(array.dtype)
        self._pin_lock = threading.Lock()
        self._pins = 0
        self._close_pending = False
        self._finalizer = weakref.finalize(self, _release_segment, self._shm)

    @property
    def descriptor(self) -> Tuple[str, Tuple[int, ...], str, int]:
        """Picklable handle a worker turns back into an ndarray view."""
        return (self.name, self.shape, self.dtype.str, os.getpid())

    def asarray(self) -> np.ndarray:
        """The owner-side view over the segment (no copy)."""
        return np.ndarray(self.shape, dtype=self.dtype, buffer=self._shm.buf)

    def pin(self) -> "SharedNDArray":
        """Hold the segment alive across a racing :meth:`close` (chainable)."""
        with self._pin_lock:
            self._pins += 1
        return self

    def release(self) -> None:
        """Drop one pin; runs a deferred close once the last pin is gone."""
        with self._pin_lock:
            self._pins -= 1
            ready = self._close_pending and self._pins <= 0
        if ready:
            self._finalizer()

    def close(self) -> None:
        """Unmap and unlink the segment (idempotent).

        With pins outstanding the unlink is deferred to the final
        :meth:`release` — the segment stays attachable for consumers that
        already hold its descriptor.
        """
        with self._pin_lock:
            if self._pins > 0:
                self._close_pending = True
                return
        self._finalizer()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedNDArray(name={self.name!r}, shape={self.shape}, dtype={self.dtype})"


def _release_segment(shm) -> None:
    try:
        shm.close()
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked elsewhere
        pass


def attach_shared_array(descriptor: Tuple[str, Tuple[int, ...], str, int]):
    """Attach to a published segment; returns ``(segment, ndarray_view)``.

    The caller must ``segment.close()`` when done with the view.  On
    Python <= 3.12 attaching re-registers the segment with the resource
    tracker (gh-82300), but our workers are spawn children of the creator
    and therefore *share* the creator's tracker process — the duplicate
    registrations collapse into one tracker-cache entry, which the
    creator's ``unlink`` clears.  So no ``unregister`` workaround is
    needed (and issuing one would strip the owner's legitimate entry).
    """
    from multiprocessing import shared_memory

    name, shape, dtype, _creator_pid = descriptor
    segment = shared_memory.SharedMemory(name=name)
    view = np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=segment.buf)
    return segment, view


# One spawn-based process pool per worker count, mirroring the thread-pool
# cache above.  Spawn (not fork) because the parent may hold live thread
# pools and BLAS state that fork would duplicate mid-flight; the import
# cost is paid once per (worker count, process lifetime) and amortized
# across every subsequent sharded call.  Each worker applies the BLAS
# thread budget of a ``workers``-wide map at start-up, so both tiers run
# the same BLAS configuration.  A pool broken by a dead worker is evicted,
# never served again.
_PROC_POOLS: dict = {}
_PROC_POOLS_LOCK = threading.Lock()


def _process_pool(workers: int) -> ProcessPoolExecutor:
    with _PROC_POOLS_LOCK:
        pool = _PROC_POOLS.get(workers)
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_budget_worker_blas,
                initargs=(workers,),
            )
            _PROC_POOLS[workers] = pool
        return pool


def _evict_process_pool(workers: int, pool: ProcessPoolExecutor) -> None:
    """Drop a broken pool from the cache (unless already replaced)."""
    with _PROC_POOLS_LOCK:
        if _PROC_POOLS.get(workers) is pool:
            del _PROC_POOLS[workers]
    pool.shutdown(wait=False)


def _map_on_process_pool(
    workers: int, fn: Callable[[T], R], items: List[T]
) -> List[R]:
    pool = _process_pool(workers)
    try:
        futures = [pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]
    except BrokenProcessPool:
        _evict_process_pool(workers, pool)
        raise


def shutdown_process_pools(wait: bool = True) -> None:
    """Shut down every cached process pool (tests; interpreter exit handles
    the rest).  Safe to call when no pool was ever created."""
    with _PROC_POOLS_LOCK:
        pools = list(_PROC_POOLS.values())
        _PROC_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=wait)


class ProcessShardedExecutor:
    """:class:`ShardedExecutor` semantics on a spawn-based process pool.

    Same contract: ``workers=1`` (or a single item) runs inline on the
    calling thread — identical results, zero pickling — and ``workers=k``
    dispatches onto the shared ``k``-process pool, gathering results in
    submission order.  ``fn`` and every item must be picklable;
    shard-sized payloads only — bulk read-only data goes through
    :class:`SharedNDArray`.

    A worker that dies mid-map (killed, ``os._exit``, out of memory)
    breaks its pool: the pool is evicted and the map retried once on a
    fresh one; a second break evicts that pool too and raises
    ``BrokenProcessPool``.  The retry ships the same items, so it is only
    draw-identical if the caller applies results after ``map`` returns —
    both sharded callers do (see ``_settle_batch_procs`` and the AIS
    process path, which write shard RNG states back afterwards).
    """

    def __init__(self, workers: WorkersLike = None):
        self.workers = resolve_workers(workers)

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, across processes when it pays off."""
        items = list(items)
        if self.workers == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        try:
            return _map_on_process_pool(self.workers, fn, items)
        except BrokenProcessPool:
            return _map_on_process_pool(self.workers, fn, items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessShardedExecutor(workers={self.workers})"
