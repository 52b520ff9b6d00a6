"""FieldManager pooling: deferred frees, reuse, bounded region counts."""

import gc
import weakref

import numpy as np
import pytest

from repro.legate import LegateContext
from repro.legate.fields import FieldManager
from repro.runtime import Runtime


class FakeContext:
    """Just enough of LegateContext for unit-testing the manager."""

    def __init__(self):
        self.created = []

    def _create_region(self, shape):
        self.created.append(shape)
        return f"region{len(self.created)}"


def manager():
    """A manager plus the region factory its checkouts allocate through
    (the manager keeps no reference to its context)."""
    return FieldManager(), FakeContext()._create_region


class TestFieldManagerUnit:
    def test_fresh_checkout_allocates(self):
        fm, make = manager()
        block, lease = fm.checkout((4,), make)
        assert fm.created == 1 and fm.reused == 0
        assert block.shape == (4,)

    def test_free_is_deferred_until_a_launch_retires(self):
        fm, make = manager()
        block, lease = fm.checkout((4,), make)
        lease.release()
        # No launch retired yet: the block must NOT be reusable (a task
        # launched before the free may still read it).
        b2, l2 = fm.checkout((4,), make)
        assert b2 is not block and fm.created == 2
        fm.note_launch()
        b3, l3 = fm.checkout((4,), make)
        assert b3 is block and fm.reused == 1

    def test_release_is_idempotent(self):
        fm, make = manager()
        _block, lease = fm.checkout((3,), make)
        lease.release()
        lease.release()
        assert fm.released == 1

    def test_gc_releases_through_lease(self):
        fm, make = manager()
        block, lease = fm.checkout((5,), make)
        del lease
        assert fm.released == 1
        fm.note_launch()
        b2, _l2 = fm.checkout((5,), make)
        assert b2 is block

    def test_pools_are_shape_keyed(self):
        fm, make = manager()
        b1, l1 = fm.checkout((4,), make)
        l1.release()
        fm.note_launch()
        b2, _l2 = fm.checkout((5,), make)       # different shape: no reuse
        assert b2 is not b1 and fm.reused == 0

    def test_generation_bumps_on_reuse(self):
        fm, make = manager()
        b, lease = fm.checkout((2,), make)
        assert b.generation == 0
        lease.release()
        fm.note_launch()
        b2, _ = fm.checkout((2,), make)
        assert b2.generation == 1

    def test_flush_retires_everything(self):
        fm, make = manager()
        b, lease = fm.checkout((2,), make)
        lease.release()
        assert fm.pooled == 1
        fm.flush()
        b2, _ = fm.checkout((2,), make)
        assert b2 is b


class TestBoundedRegions:
    def test_100_op_loop_keeps_region_count_bounded(self):
        """The acceptance demo: temporaries over 100 ops reuse a handful
        of backing regions instead of allocating 100."""

        def control(ctx):
            lg = LegateContext(ctx, num_tiles=4)
            x = lg.from_values(np.arange(8.0), "x")
            for _ in range(100):
                t = x + 1.0            # fresh temporary every iteration
                del t                  # GC frees it; pool recycles
            return lg.fields.created, lg.fields.reused

        created, reused = Runtime(num_shards=1).execute(control)
        assert created <= 4, f"unbounded allocation: {created} regions"
        assert reused >= 97

    def test_reuse_is_shard_deterministic(self):
        """Counters (hence create-call streams) match across shard counts."""

        def control(ctx):
            lg = LegateContext(ctx, num_tiles=4)
            x = lg.from_values(np.arange(6.0), "x")
            for _ in range(20):
                t = (x + 2.0) * 3.0
                del t
            return lg.fields.created, lg.fields.reused, lg.fields.released

        a = Runtime(num_shards=1).execute(control)
        b = Runtime(num_shards=3).execute(control)
        assert a == b

    def test_freed_field_results_stay_correct(self):
        """Recycled fields must never leak stale values into results."""

        def control(ctx):
            lg = LegateContext(ctx, num_tiles=3)
            outs = []
            for i in range(12):
                t = lg.from_values(np.full(7, float(i)))
                outs.append((t + 1.0).to_numpy())
                t.free()
            return outs

        outs = Runtime(num_shards=2).execute(control)
        for i, arr in enumerate(outs):
            assert np.array_equal(arr, np.full(7, float(i + 1)))


class TestRuntimeFreedByRefcount:
    """A finished runtime must not sit in a reference cycle: the field
    manager is a drain hook of the runtime, so a manager -> context
    back-reference would keep the runtime and all its analysis state
    alive until a full garbage collection."""

    @staticmethod
    def _freed_without_gc(control, **runtime_kw):
        enabled = gc.isenabled()
        gc.disable()
        try:
            rt = Runtime(num_shards=2, **runtime_kw)
            rt.execute(control)
            ref = weakref.ref(rt)
            del rt
            return ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_sliced_stencil_runtime_freed(self):
        from repro.legate import make_wave, sliced_stencil

        init = make_wave(64)
        assert self._freed_without_gc(
            lambda ctx: sliced_stencil(ctx, init, 3, 4))

    @pytest.mark.parametrize("auto_trace", [False, True])
    def test_logistic_regression_runtime_freed(self, auto_trace):
        from repro.legate import logistic_regression

        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 4))
        y = (x @ rng.standard_normal(4) > 0).astype(np.float64)
        assert self._freed_without_gc(
            lambda ctx: logistic_regression(ctx, x, y, 3, 0.5, 4),
            auto_trace=auto_trace)
