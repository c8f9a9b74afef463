"""The sharded backend's worker processes: allocator policy and cleanup.

Bit-identity of sharded results is the job of
``tests/properties/test_sharded_equivalence.py``; this file pins what
the workers do around that contract.  ``_worker_init`` keeps freed
round temporaries mapped where glibc's ``mallopt`` is reachable and
does nothing elsewhere, and a call whose shard raises must not leave
the finished shards' shared-memory planes behind in ``/dev/shm``.
"""

from __future__ import annotations

import ctypes
import os
import resource
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import ShardedBackend, run_trials
from repro.core import sharded
from repro.experiments import UserControlledSetup
from repro.workloads import UniformRangeWeights

#: 1 MiB of float64.
_MIB_FLOATS = 131072


def _churn_faults() -> int:
    """Minor faults of 200 rounds that allocate and free 1 MiB arrays.

    Each round holds two arrays at once, like the temporaries of a
    shard round.  With a single live array glibc's dynamic mmap
    threshold already keeps the memory on the heap after the first
    free, so the loop would not tell the policies apart.
    """
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(200):
        a = np.ones(_MIB_FLOATS)
        b = np.ones(_MIB_FLOATS)
        del a, b
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(
    sharded._glibc_mallopt() is None, reason="needs glibc's mallopt"
)
def test_worker_init_keeps_freed_arrays_resident():
    # Measured on glibc 2.36 (x86-64): about 96,000 minor faults in a
    # pool without the initializer (both pages of every array fault
    # in again each round) and about 560 with it (the heap grows once).
    with ProcessPoolExecutor(
        max_workers=1, initializer=sharded._worker_init
    ) as pool:
        faults = pool.submit(_churn_faults).result()
    assert faults < 5_000


def test_worker_init_is_noop_without_mallopt(monkeypatch):
    monkeypatch.setattr(sharded, "_glibc_mallopt", lambda: None)
    assert sharded._worker_init() is None


def test_mallopt_lookup_tolerates_missing_libc(monkeypatch):
    def no_libc(name):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert sharded._glibc_mallopt() is None
    assert sharded._worker_init() is None


def test_worker_init_sets_both_thresholds(monkeypatch):
    calls = []
    monkeypatch.setattr(
        sharded, "_glibc_mallopt", lambda: lambda *args: calls.append(args)
    )
    sharded._worker_init()
    assert calls == [
        (sharded._M_MMAP_THRESHOLD, 32 << 20),
        (sharded._M_TRIM_THRESHOLD, 1 << 30),
    ]


class _FailsOnFirstTrial(UserControlledSetup):
    """Raises while building trial 0, so only the first shard fails."""

    def __call__(self, rng):
        if rng.bit_generator.seed_seq.spawn_key[0] == 0:
            raise RuntimeError("setup failed on trial 0")
        return super().__call__(rng)


def _shm_segments() -> set[str]:
    return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)
def test_failed_shard_leaves_no_shared_memory():
    setup = _FailsOnFirstTrial(
        n=6, m=40, distribution=UniformRangeWeights(1.0, 6.0)
    )
    before = _shm_segments()
    for _ in range(3):
        with pytest.raises(RuntimeError, match="trial 0"):
            run_trials(setup, 4, seed=3, backend=ShardedBackend(workers=2))
    assert _shm_segments() - before == set()
