"""Performance guards: the analysis stays within its complexity class.

These are not micro-benchmarks; they are generous upper bounds that fail
only if an accidental change makes the coarse stage scale with point count
or the pipeline quadratic in ops — the regressions that would silently
invalidate the scalability story.
"""

import time

from repro.core import (BLOCKED, CoarseAnalysis, CoarseRequirement,
                        IDENTITY_PROJECTION, Operation)
from repro.oracle import READ_ONLY, READ_WRITE
from repro.regions import FieldSpace, IndexSpace, LogicalRegion


def build_chain(num_tiles, chain):
    fs = FieldSpace([("a", "f8"), ("b", "f8")])
    region = LogicalRegion(IndexSpace.line(num_tiles * 4), fs)
    tiles = region.partition_equal(num_tiles)
    ghost = region.partition_ghost(tiles, 1)
    ops = []
    for i in range(chain):
        rf, wf = ("a", "b") if i % 2 == 0 else ("b", "a")
        ops.append(Operation(
            "task",
            [CoarseRequirement(tiles, frozenset([fs[wf]]), READ_WRITE,
                               IDENTITY_PROJECTION),
             CoarseRequirement(ghost, frozenset([fs[rf]]), READ_ONLY,
                               IDENTITY_PROJECTION)],
            launch_domain=list(range(num_tiles)), sharding=BLOCKED,
            name=f"s{i}"))
    return ops


class TestCoarseScaling:
    def _time_coarse(self, num_tiles, chain=60):
        ops = build_chain(num_tiles, chain)
        coarse = CoarseAnalysis(num_shards=num_tiles)
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            op.seq = i
            coarse.analyze(op)
        return time.perf_counter() - t0, coarse

    def test_cost_independent_of_group_size(self):
        """The §4.1 claim: coarse cost must not scale with points.  The
        scan count must be *identical* for 16 and 512 tiles, and the wall
        clock within a loose constant factor."""
        t_small, c_small = self._time_coarse(16)
        t_big, c_big = self._time_coarse(512)
        assert c_small.result.users_scanned == c_big.result.users_scanned
        assert t_big < max(10 * t_small, 0.5)

    def test_epoch_lists_stay_bounded(self):
        """The double-buffered chain must not accumulate epoch state."""
        _t, coarse = self._time_coarse(16, chain=200)
        for state in coarse._state.values():
            assert len(state.write_epoch) + len(state.read_epoch) <= 6

    def test_long_chain_wall_clock(self):
        t, _ = self._time_coarse(64, chain=300)
        assert t < 2.0


class TestFunctionalSoak:
    def test_medium_functional_stencil(self):
        """A mid-size replicated run (8 shards, 8 tiles, 10 steps) stays
        fast, validates, and matches the reference."""
        import time

        import numpy as np

        from repro.apps.stencil import (reference_stencil2d,
                                        stencil2d_control)
        from repro.runtime import Runtime

        t0 = time.perf_counter()
        rt = Runtime(num_shards=8)
        cells = rt.execute(stencil2d_control, 32, 8, 10)
        elapsed = time.perf_counter() - t0
        got = rt.store.raw(cells.tree_id, cells.field_space["a"])
        assert np.allclose(got, reference_stencil2d(32, 10))
        rt.pipeline.validate()
        assert elapsed < 10.0

    def test_fine_stage_epoch_bound(self):
        """Point-level epoch lists stay bounded on the alternating chain."""
        from repro.core.fine import FineAnalysis

        ops = build_chain(8, 120)
        fine = FineAnalysis(num_shards=4)
        for i, op in enumerate(ops):
            op.seq = i
            fine.analyze(op)
        for state in fine._state.values():
            assert len(state.write_epoch) + len(state.read_epoch) <= 20


class TestFenceProofCoverage:
    """validate() stays cheap only while the fine scan proves every
    cross-shard edge of an untraced run covered as it finds it.  A change
    that silently routes edges back to the full any-pair check would keep
    every verdict and lose the speed; these counts catch it."""

    @staticmethod
    def _check(rt):
        rt.pipeline.validate()
        fine = rt.pipeline.fine
        assert fine.result.cross_edges
        assert fine.fallback_edges == 0

    def test_sliced_stencil_sends_no_edge_to_the_fallback(self):
        from repro.legate import make_wave, sliced_stencil
        from repro.runtime import Runtime

        init = make_wave(256)
        rt = Runtime(num_shards=2)
        rt.execute(lambda ctx: sliced_stencil(ctx, init, 4, 4))
        self._check(rt)

    def test_stencil2d_control_sends_no_edge_to_the_fallback(self):
        from repro.apps.stencil import stencil2d_control
        from repro.runtime import Runtime

        rt = Runtime(num_shards=4)
        rt.execute(stencil2d_control, 16, 4, 4)
        self._check(rt)


class TestPayloadEncodedOnce:
    """Every shard passes the same explicit ``from_values`` payload to the
    determinism hasher; the monitor's memo must encode it once and serve
    the other shard from the memo.  A change that re-encodes per shard
    keeps every digest and silently doubles the hashing cost."""

    def test_logistic_regression_payloads(self):
        import numpy as np

        from repro.legate import logistic_regression
        from repro.obs import Profiler
        from repro.runtime import Runtime

        rng = np.random.default_rng(0)
        x = rng.standard_normal((256, 8))
        y = (x @ rng.standard_normal(8) > 0).astype(np.float64)
        prof = Profiler().enable()
        rt = Runtime(num_shards=2, profiler=prof)
        rt.execute(lambda ctx: logistic_regression(ctx, x, y, 3, 0.5, 4))
        counters = prof.metrics.counters
        payloads = 2                              # X and y
        assert counters["core.determinism.encodes"] == payloads
        assert counters["core.determinism.memo_hits"] == payloads
        assert counters["core.determinism.encoded_bytes"] > 8 * x.size
        assert len(set(rt.determinism_digests())) == 1


class TestAnalysisCachesReleasedBetweenPrograms:
    """The process-wide analysis caches key on region uids, which are
    never reused.  Once no program is executing they are emptied, so a
    long-lived process does not keep every finished program's
    requirements reachable (peak RSS would grow with programs run)."""

    @staticmethod
    def _sizes():
        from repro.core.coarse import coarse_decision_stats
        from repro.core.fine import fine_decision_stats
        from repro.regions import cache
        return (fine_decision_stats()["classes"],
                coarse_decision_stats()["classes"],
                len(cache._alias_cache), len(cache._contains_cache))

    def test_emptied_after_each_program(self):
        from repro.legate import make_wave, sliced_stencil
        from repro.regions import region_cache_stats
        from repro.runtime import Runtime

        init = make_wave(64)
        for _ in range(3):
            rt = Runtime(num_shards=2)
            rt.execute(lambda ctx: sliced_stencil(ctx, init, 3, 4))
            assert self._sizes() == (0, 0, 0, 0)
        stats = region_cache_stats()
        assert stats["alias_hits"] + stats["alias_misses"] > 0
        rt.pipeline.validate()          # still valid after the release

    def test_kept_while_another_program_executes(self):
        from repro.legate import make_wave, sliced_stencil
        from repro.runtime import Runtime

        init = make_wave(64)
        seen = []

        def outer(ctx):
            sliced_stencil(ctx, init, 2, 4)
            Runtime(num_shards=1).execute(
                lambda inner: sliced_stencil(inner, init, 2, 2))
            seen.append(self._sizes())

        Runtime(num_shards=2).execute(outer)
        assert all(size[0] > 0 for size in seen)
        assert self._sizes() == (0, 0, 0, 0)
