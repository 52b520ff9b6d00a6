"""The process-wide analysis tables stay consistent under threads.

The loopback backend and the loopback service gang run several shards as
threads of one process, and every shard's analysis shares the memo tables
of `repro.regions.cache` and the interned class tables of both analysis
stages.  A tiny switch interval makes the interpreter preempt threads
every few bytecodes, so the check-then-act windows of an unlocked table
are hit within a few thousand operations.
"""

import sys
import threading
from types import SimpleNamespace

import pytest

from repro.core import coarse, fine
from repro.core.fine import clear_analysis_caches
from repro.oracle import READ_ONLY, READ_WRITE
from repro.regions.cache import PairCache

THREADS = 3     # more threads than the 2-core CI hosts
# Sized so the unlocked code fails every run: one interning round of it
# fails about half the time, and this many cache operations always did.
ROUNDS = 8
CACHE_OPS = 40000


@pytest.fixture
def preemptive():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def run_threads(body):
    """Run ``body(tid)`` on THREADS threads; re-raise the first error."""
    errors = []
    start = threading.Barrier(THREADS)

    def main(tid):
        try:
            start.wait()
            body(tid)
        except Exception as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=main, args=(t,))
               for t in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "a thread hung"
    if errors:
        raise errors[0]


def test_pair_cache_survives_concurrent_eviction(preemptive):
    """Hits refresh recency and misses evict the oldest key; two threads
    doing both on a small cache must never raise (KeyError or 'dictionary
    changed size during iteration' without the lock)."""
    cache = PairCache(maxsize=64)

    def body(tid):
        for i in range(CACHE_OPS):
            key = (i % 97, (i * 7 + tid) % 89)
            if cache.get(key) is None:
                cache.put(key, bool(i & 1))

    run_threads(body)
    assert len(cache) <= 64
    assert cache.hits + cache.misses == THREADS * CACHE_OPS


@pytest.fixture
def fresh_tables():
    # The fakes below must never meet a real requirement in the shared
    # tables: start and finish with empty ones.
    clear_analysis_caches()
    yield
    clear_analysis_caches()


def test_fine_interning_keeps_ids_bijective(preemptive, fresh_tables):
    """Every class id must point at a representative of its own class:
    a wrong representative means wrong conflict decisions."""
    n = 4000
    for r in range(ROUNDS):
        reqs = [SimpleNamespace(privilege=(READ_ONLY, READ_WRITE)[i % 2],
                                region=SimpleNamespace(uid=-1 - i // 2),
                                field_ids=lambda r=r: frozenset([r]))
                for i in range(n)]
        got = [None] * THREADS

        def body(tid):
            got[tid] = [fine._intern_class(q) for q in reqs]

        run_threads(body)
        assert all(g == got[0] for g in got)
        for req, cid in zip(reqs, got[0]):
            rep = fine._CLASS_REPS[cid]
            assert (rep.privilege, rep.region.uid, rep.field_ids()) == \
                (req.privilege, req.region.uid, req.field_ids())
    assert len(fine._CLASS_REPS) == ROUNDS * n


def test_coarse_interning_keeps_ids_bijective(preemptive, fresh_tables):
    n = 4000
    for r in range(ROUNDS):
        keys = [((READ_ONLY, READ_WRITE)[i % 2],
                 SimpleNamespace(uid=-1 - r * n - i // 2))
                for i in range(n)]
        got = [None] * THREADS

        def body(tid):
            got[tid] = [coarse._intern_class(p, b) for p, b in keys]

        run_threads(body)
        assert all(g == got[0] for g in got)
        for (priv, bound), cid in zip(keys, got[0]):
            rpriv, rbound = coarse._CLASS_REPS[cid]
            assert (rpriv, rbound.uid) == (priv, bound.uid)
    assert len(coarse._CLASS_REPS) == ROUNDS * n
