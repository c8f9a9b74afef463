"""The ``sharded`` backend: batched chunks fanned out over processes.

The :class:`~repro.core.batch.BatchedBackend` removes the per-round
Python overhead but still runs on one core.  ``ShardedBackend``
composes it with a process pool: the trial list is split into one
contiguous shard per worker, each worker runs the *batched* engine on
its shard, and the parent merges the shards back in trial order.
Because batched results are independent of chunking and trial streams
are independent (per-trial ``SeedSequence`` children), the merged
output is **bit-for-bit identical** to ``BatchedBackend`` — and hence
to the serial reference — on shared seeds (property-tested in
``tests/properties/test_sharded_equivalence.py``).

The dominant payload by far is the per-trial ``final_loads`` vector
(``n`` floats per trial at the scale frontier, where ``n`` is large).
Instead of pickling those through the result queue, each worker stacks
its shard's vectors into one :mod:`multiprocessing.shared_memory`
plane, nulls the in-result arrays and returns only the segment name;
the parent attaches, copies each row back into its result, and unlinks
the segment.  Shards whose result shapes are ragged (mixed-``n``
sweeps) transparently fall back to inline pickling — correctness never
depends on the shared-memory path.  When a shard raises, the parent
still waits for the other shards and unlinks every segment they
created before re-raising the first error, so a failed call leaves
nothing behind in ``/dev/shm``.

On a single-core box (or a single-trial call) sharding cannot help, so
the backend warns once per ``run_trials`` call
(:class:`ShardedDegradationWarning`, mirroring the
``BatchFallbackWarning`` pattern) and delegates to an in-process
``BatchedBackend`` — same results, no pool.  An *explicit* worker
count is honoured even beyond ``os.cpu_count()`` so the shared-memory
path stays testable anywhere.

Each worker starts by pinning glibc's allocator (:func:`_worker_init`):
``M_MMAP_THRESHOLD`` goes to 32 MiB and ``M_TRIM_THRESHOLD`` to 1 GiB,
through ``mallopt`` over :mod:`ctypes`.  A shard round allocates and
frees a handful of 0.4-0.8 MB temporaries (``argsort``, boolean
indexing, mover merges), and with glibc's defaults each free hands its
pages back to the kernel, by ``munmap`` or by trimming the heap, so the
next round faults them all in again.  On the benchmark's
``torus-sharded`` workload (100x100 torus, m = 10^5, two workers, on a
2-vCPU x86-64 Linux host with glibc 2.36) that cost about 3,500 minor
faults per trial-round and put a quarter of the CPU time in the kernel
(``os.sys_frac`` 0.25); with both settings it is about 90 faults per
trial-round and ``os.sys_frac`` 0.014.  Either setting alone is worse
than neither, because setting one switches off glibc's dynamic
threshold that otherwise keeps some of the churn on the heap.  The
price is that a worker's RSS stays at its high-water mark until the
``run_trials`` call returns; the pool lives for that one call, so the
memory goes back to the OS when its workers exit.  Where glibc's
``mallopt`` is not reachable (macOS, Windows, musl) the initializer
does nothing.  The calling process's allocator is never touched.
"""

from __future__ import annotations

import ctypes
import os
import sys
import warnings
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from .backends import SimulationBackend, TrialSetup, validate_workers
from .simulator import RunResult

__all__ = ["ShardedBackend", "ShardedDegradationWarning"]


class ShardedDegradationWarning(RuntimeWarning):
    """The sharded backend ran its shards in-process instead.

    Results are unaffected (the in-process batched engine is
    bit-identical), but the call gets no multi-core speedup.  Emitted
    once per ``run_trials`` call.
    """


#: ``(segment name, plane shape, dtype str)`` of a returned shard plane.
_ShmMeta = tuple[str, tuple, str]

#: ``mallopt`` parameter numbers from glibc's ``<malloc.h>``.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: Requests below this are served from the heap rather than a fresh
#: ``mmap`` (glibc's ceiling for the setting on 64-bit builds).
_MMAP_THRESHOLD_BYTES = 32 << 20
#: Free memory at the top of the heap is returned to the kernel only
#: beyond this.
_TRIM_THRESHOLD_BYTES = 1 << 30


def _glibc_mallopt() -> Callable[[int, int], int] | None:
    """glibc's ``mallopt`` through :mod:`ctypes`, or ``None`` if absent."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return None
    # gnu_get_libc_version tells glibc from musl, whose mallopt is a stub.
    if not hasattr(libc, "gnu_get_libc_version"):
        return None
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def _worker_init() -> None:
    """Keep a worker's freed round temporaries mapped (see module doc).

    Runs once in each pool worker.  A no-op where glibc's ``mallopt``
    cannot be found; ``mallopt`` reports a rejected value by returning
    0, which leaves glibc's default in place.
    """
    mallopt = _glibc_mallopt()
    if mallopt is None:
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _shard_worker(
    args: tuple[TrialSetup, list, int, bool, int | None],
) -> tuple[_ShmMeta | None, list[RunResult]]:
    """Run one shard through the batched engine in a worker process.

    Returns ``(shm_meta, results)``.  When every result in the shard
    has a same-shaped ``final_loads``, those vectors travel back as one
    worker-created shared-memory plane (``shm_meta`` names it and the
    results carry ``final_loads=None``); otherwise ``shm_meta`` is
    ``None`` and the arrays ride inline through pickling.  The worker
    closes its mapping but never unlinks — the parent owns the unlink
    after copying.
    """
    setup, seed_seqs, max_rounds, record_traces, max_batch = args
    from .batch import BatchedBackend

    backend = BatchedBackend(max_batch=max_batch)
    results = backend.run_trials(
        setup, seed_seqs, max_rounds=max_rounds, record_traces=record_traces
    )
    loads = [r.final_loads for r in results]
    stackable = (
        len(loads) > 0
        and all(ld is not None for ld in loads)
        and all(ld.shape == loads[0].shape for ld in loads)
    )
    if not stackable:
        return None, results
    plane = np.stack(loads)
    shm = shared_memory.SharedMemory(create=True, size=plane.nbytes)
    try:
        view = np.ndarray(plane.shape, dtype=plane.dtype, buffer=shm.buf)
        view[:] = plane
        del view
        for r in results:
            r.final_loads = None
        # Hand ownership to the parent: its attach re-registers the
        # segment with its resource tracker and its unlink unregisters,
        # so the worker-side registration must be withdrawn here or a
        # worker-local tracker reports the (already unlinked) segment
        # as leaked at shutdown.  The parent only attaches after this
        # returns, so the tracker sees register/unregister pairs in
        # order whatever the start method.
        resource_tracker.unregister(shm._name, "shared_memory")
        return (shm.name, plane.shape, plane.dtype.str), results
    finally:
        shm.close()


class ShardedBackend(SimulationBackend):
    """Contiguous trial shards, one batched engine per worker process.

    Parameters
    ----------
    workers:
        Shard/process count; ``-1`` (default) = all cores.  An explicit
        positive count is *not* capped at ``os.cpu_count()``, so tests
        can exercise real sharding on any machine; ``-1`` on a
        single-core box degrades to the in-process batched engine with
        a :class:`ShardedDegradationWarning`.
    max_batch:
        Forwarded to each worker's
        :class:`~repro.core.batch.BatchedBackend` (chunk size within a
        shard; results are independent of it).
    """

    name = "sharded"

    def __init__(
        self, workers: int = -1, max_batch: int | None = None
    ) -> None:
        if workers is None:
            raise ValueError(
                "workers must be a positive integer or -1 (all cores); "
                "got None (ShardedBackend needs an explicit shard count)"
            )
        validate_workers(workers)
        if max_batch is not None and max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.workers = int(workers)
        self.max_batch = max_batch

    # ------------------------------------------------------------------
    def run_trials(
        self,
        setup: TrialSetup,
        seed_seqs: list[np.random.SeedSequence],
        max_rounds: int = 100_000,
        record_traces: bool = False,
    ) -> list[RunResult]:
        from .batch import BatchedBackend

        trials = len(seed_seqs)
        if self.workers == -1:
            nproc = os.cpu_count() or 1
        else:
            nproc = self.workers
        nproc = min(nproc, trials)
        if nproc <= 1:
            warnings.warn(
                "sharded backend degraded to the in-process batched "
                f"engine ({trials} trial(s), "
                f"{os.cpu_count() or 1} core(s)) — results are "
                "identical, but there is nothing to shard over",
                ShardedDegradationWarning,
                stacklevel=2,
            )
            return BatchedBackend(max_batch=self.max_batch).run_trials(
                setup,
                seed_seqs,
                max_rounds=max_rounds,
                record_traces=record_traces,
            )

        # Contiguous shards, sized as evenly as possible; shard order ==
        # trial order, so concatenating shard results restores it.
        bounds = np.linspace(0, trials, nproc + 1).astype(int)
        payloads = [
            (
                setup,
                seed_seqs[lo:hi],
                max_rounds,
                record_traces,
                self.max_batch,
            )
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        with ProcessPoolExecutor(
            max_workers=nproc, initializer=_worker_init
        ) as pool:
            futures = [pool.submit(_shard_worker, p) for p in payloads]
            # Wait for every shard even after one fails: a finished
            # shard's segment belongs to the parent, which must unlink
            # it or it outlives the call in /dev/shm.
            finished: list[tuple[_ShmMeta | None, list[RunResult]]] = []
            error: Exception | None = None
            for future in futures:
                try:
                    finished.append(future.result())
                except Exception as exc:
                    error = error or exc
        results: list[RunResult] = []
        for shm_meta, shard in finished:
            if shm_meta is not None:
                try:
                    _take_plane(shm_meta, None if error else shard)
                except Exception as exc:
                    error = error or exc
            results.extend(shard)
        if error is not None:
            raise error
        return results


def _take_plane(shm_meta: _ShmMeta, shard: list[RunResult] | None) -> None:
    """Copy a worker's ``final_loads`` plane into ``shard``; unlink it.

    With ``shard=None`` the segment is only unlinked (the call failed
    and its results are dropped).
    """
    name, shape, dtype = shm_meta
    shm = shared_memory.SharedMemory(name=name)
    try:
        if shard is not None:
            plane = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
            for i, r in enumerate(shard):
                r.final_loads = plane[i].copy()
            del plane
    finally:
        shm.close()
        shm.unlink()
