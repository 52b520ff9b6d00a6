"""Fine-stage analysis: precise point graphs and fence-elision soundness."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (brute_force_point_graph, naive_covers_cross_edge,
                     reachability)
from test_indexed_equivalence import build_env, build_ops, op_specs

from repro.core.coarse import CoarseAnalysis, CoarseResult, Fence, FenceStore
from repro.core.fine import FineAnalysis
from repro.core.operation import (CoarseRequirement, IDENTITY_PROJECTION,
                                  Operation)
from repro.core.pipeline import DCRPipeline
from repro.core.sharding import BLOCKED, CYCLIC, HASHED
from repro.oracle import (READ_ONLY, READ_WRITE, WRITE_DISCARD, reduce_priv,
                          requirements_conflict_uncached)
from repro.regions import FieldSpace, IndexSpace, LogicalRegion


def environment(tiles=4):
    fs = FieldSpace([("state", "f8"), ("flux", "f8")])
    cells = LogicalRegion(IndexSpace.line(tiles * 4), fs, name="cells")
    owned = cells.partition_equal(tiles, name="owned")
    ghost = cells.partition_ghost(owned, 1, name="ghost")
    return fs, cells, owned, ghost


def stencil_ops(fs, cells, owned, ghost, steps=3, sharding=CYCLIC, tiles=4):
    state = frozenset([fs["state"]])
    flux = frozenset([fs["flux"]])
    dom = list(range(tiles))
    ops = [Operation("fill", [CoarseRequirement(cells, state | flux,
                                                WRITE_DISCARD)],
                     name="fill")]
    for t in range(steps):
        ops.append(Operation(
            "task", [CoarseRequirement(owned, state, READ_WRITE,
                                       IDENTITY_PROJECTION)],
            launch_domain=dom, sharding=sharding, name=f"add[{t}]"))
        ops.append(Operation(
            "task", [CoarseRequirement(owned, flux, READ_WRITE,
                                       IDENTITY_PROJECTION),
                     CoarseRequirement(ghost, state, READ_ONLY,
                                       IDENTITY_PROJECTION)],
            launch_domain=dom, sharding=sharding, name=f"st[{t}]"))
    return ops


class TestPreciseGraph:
    @pytest.mark.parametrize("sharding", [CYCLIC, BLOCKED, HASHED])
    def test_matches_brute_force_partial_order(self, sharding):
        fs, cells, owned, ghost = environment()
        ops = stencil_ops(fs, cells, owned, ghost, sharding=sharding)
        fine = FineAnalysis(num_shards=3)
        for i, op in enumerate(ops):
            op.seq = i
            fine.analyze(op)
        brute = brute_force_point_graph(ops, 3)
        assert fine.result.graph.tasks == brute.tasks
        # Epoch pruning may drop transitively-redundant edges; the induced
        # partial orders must be identical.
        assert reachability(fine.result.graph) == reachability(brute)

    def test_edge_classification(self):
        fs, cells, owned, ghost = environment()
        ops = stencil_ops(fs, cells, owned, ghost, steps=2)
        fine = FineAnalysis(num_shards=2)
        for i, op in enumerate(ops):
            op.seq = i
            fine.analyze(op)
        res = fine.result
        assert res.local_edges | res.cross_edges == set(res.graph.deps)
        assert not (res.local_edges & res.cross_edges)
        for a, b in res.cross_edges:
            assert a.shard != b.shard
        for a, b in res.local_edges:
            assert a.shard == b.shard

    def test_points_attributed_to_shards(self):
        fs, cells, owned, ghost = environment()
        ops = stencil_ops(fs, cells, owned, ghost, steps=1)
        fine = FineAnalysis(num_shards=2)
        for i, op in enumerate(ops):
            op.seq = i
            fine.analyze(op)
        counts = fine.result.points_per_shard
        assert sum(counts.values()) == 1 + 4 + 4
        # Cyclic sharding balances the two group launches evenly.
        assert counts[0] >= 4 and counts[1] >= 4


class TestFenceSoundness:
    @pytest.mark.parametrize("sharding", [CYCLIC, BLOCKED, HASHED])
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    def test_every_cross_edge_covered(self, sharding, shards):
        """The invariant behind fence elision: any precise dependence that
        crosses shards is ordered by some coarse-stage fence."""
        fs, cells, owned, ghost = environment()
        ops = stencil_ops(fs, cells, owned, ghost, sharding=sharding)
        coarse = CoarseAnalysis(shards)
        fine = FineAnalysis(shards)
        for i, op in enumerate(ops):
            op.seq = i
            coarse.analyze(op)
            fine.analyze(op)
        assert fine.uncovered_cross_edges(coarse.result) == []

    def test_detects_missing_fence(self):
        """Sanity-check the checker itself: removing the fences must expose
        uncovered cross-shard edges."""
        fs, cells, owned, ghost = environment()
        ops = stencil_ops(fs, cells, owned, ghost)
        coarse = CoarseAnalysis(2)
        fine = FineAnalysis(2)
        for i, op in enumerate(ops):
            op.seq = i
            coarse.analyze(op)
            fine.analyze(op)
        coarse.result.fences.clear()
        assert fine.uncovered_cross_edges(coarse.result)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 5),
           st.sampled_from([CYCLIC, BLOCKED, HASHED]))
    def test_random_programs_covered(self, shards, tiles, sharding):
        fs, cells, owned, ghost = environment(tiles)
        ops = stencil_ops(fs, cells, owned, ghost, steps=3,
                          sharding=sharding, tiles=tiles)
        coarse = CoarseAnalysis(shards)
        fine = FineAnalysis(shards)
        for i, op in enumerate(ops):
            op.seq = i
            coarse.analyze(op)
            fine.analyze(op)
        assert fine.uncovered_cross_edges(coarse.result) == []


class TestScanTimeProofs:
    """The pipeline's fine stage proves most cross edges covered while it
    scans, and ``uncovered_cross_edges`` re-checks only the rest.  Its
    answer must equal the full any-pair check over every cross edge —
    here computed with no index and no memo anywhere (uncached conflict
    oracle, linear fence walk) — on sound programs, after the proofs go
    stale, against a foreign coarse result, under replays, and on
    deliberately unsound analyses."""

    @staticmethod
    def full_check(fine, coarse):
        fences = list(coarse.fences)
        return {(p, t) for p, t in fine.result.cross_edges
                if not any(requirements_conflict_uncached(a, b)
                           and naive_covers_cross_edge(
                               fences, p.op.seq, t.op.seq, b.region,
                               a.fields | b.fields)
                           for a in p.requirements for b in t.requirements)}

    def assert_same_verdict(self, pipe, coarse=None):
        coarse = pipe.coarse_result if coarse is None else coarse
        got = pipe.fine.uncovered_cross_edges(coarse)
        assert len(got) == len(set(got))
        assert set(got) == self.full_check(pipe.fine, coarse)
        return got

    @staticmethod
    def run(specs, shards, iters=1, mode=None):
        """``iters`` copies of one random program through a pipeline;
        ``mode`` None (fresh), "explicit" (one trace per copy) or "auto"."""
        env = build_env()
        pipe = DCRPipeline(shards, auto_trace=mode == "auto")
        for _ in range(iters):
            if mode == "explicit":
                pipe.begin_trace(7)
            for op in build_ops(env, specs):
                pipe.analyze(op)
            if mode == "explicit":
                pipe.end_trace()
        return pipe

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(op_specs, st.integers(2, 4))
    def test_random_programs(self, specs, shards):
        pipe = self.run(specs, shards)
        assert self.assert_same_verdict(pipe) == []
        assert pipe.fine.fallback_edges <= len(pipe.fine_result.cross_edges)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(op_specs, st.integers(2, 4), st.sampled_from(["explicit", "auto"]))
    def test_replayed_programs(self, specs, shards, mode):
        pipe = self.run(specs, shards, iters=4, mode=mode)
        assert self.assert_same_verdict(pipe) == []

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(op_specs, st.integers(2, 4))
    def test_after_fences_clear(self, specs, shards):
        pipe = self.run(specs, shards)
        pipe.coarse_result.fences.clear()
        self.assert_same_verdict(pipe)
        # Re-adding fences after a clear does not revive the old proofs.
        pipe.coarse_result.fences.append(Fence(at_seq=0, region=None,
                                               fields=frozenset()))
        self.assert_same_verdict(pipe)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(op_specs, st.integers(2, 4))
    def test_against_a_different_coarse_result(self, specs, shards):
        pipe = self.run(specs, shards)
        fences = list(pipe.coarse_result.fences)
        for store in (FenceStore(), FenceStore(fences[::2]),
                      FenceStore(fences)):
            self.assert_same_verdict(pipe, CoarseResult(fences=store))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(op_specs, st.integers(2, 4), st.sets(st.integers(0, 11)))
    def test_random_programs_with_broken_elision(self, specs, shards, drop):
        """Unsound analyses: the coarse stage wrongly elides every fence
        the ops at the ``drop`` positions would have needed."""
        env = build_env()
        pipe = DCRPipeline(shards)
        sound = pipe.coarse._provably_shard_local
        pipe.coarse._provably_shard_local = (
            lambda prev, op, pairs: op.seq in drop or sound(prev, op, pairs))
        for op in build_ops(env, specs):
            pipe.analyze(op)
        self.assert_same_verdict(pipe)

    def test_fence_at_the_earlier_op_does_not_cover(self):
        """A fence at the earlier op's own position orders nothing between
        the two ops: the scan must not count it as a proof."""
        fs, cells, owned, ghost = environment()
        state = frozenset([fs["state"]])
        ops = [Operation("task", [CoarseRequirement(owned[0], state, priv)],
                         owner_shard=shard, name=name)
               for name, priv, shard in (("w0", READ_WRITE, 0),
                                         ("w1", READ_WRITE, 1),
                                         ("r2", READ_ONLY, 0))]
        pipe = DCRPipeline(2)
        sound = pipe.coarse._provably_shard_local
        pipe.coarse._provably_shard_local = (
            lambda prev, op, pairs: op.seq == 2 or sound(prev, op, pairs))
        pipe.run_program(ops)
        assert [f.at_seq for f in pipe.coarse_result.fences] == [1]
        bad = self.assert_same_verdict(pipe)
        assert [(p.op.name, t.op.name) for p, t in bad] == [("w1", "r2")]
        assert pipe.fine.fallback_edges == 1

    def test_stencil_edges_all_proven_at_scan_time(self):
        fs, cells, owned, ghost = environment()
        pipe = DCRPipeline(2)
        for op in stencil_ops(fs, cells, owned, ghost, sharding=BLOCKED):
            pipe.analyze(op)
        assert pipe.fine_result.cross_edges
        assert self.assert_same_verdict(pipe) == []
        assert pipe.fine.fallback_edges == 0

    def test_cross_edge_added_outside_the_scan_is_checked(self):
        """An edge the scan never saw has no proof: the accounting no
        longer adds up, so every edge goes to the full check."""
        fs, cells, owned, ghost = environment()
        pipe = DCRPipeline(2)
        pipe.run_program(stencil_ops(fs, cells, owned, ghost))
        tasks = sorted(pipe.fine_result.graph.tasks,
                       key=lambda t: (t.op.seq, repr(t.point)))
        late = tasks[-1]
        early = next(t for t in tasks if t.shard != late.shard)
        pipe.fine_result.cross_edges.add((late, early))
        assert self.assert_same_verdict(pipe) == [(late, early)]
        assert pipe.fine.fallback_edges == len(pipe.fine_result.cross_edges)

    def test_standalone_fine_analysis_checks_every_edge(self):
        fs, cells, owned, ghost = environment()
        coarse, fine = CoarseAnalysis(2), FineAnalysis(2)
        for i, op in enumerate(stencil_ops(fs, cells, owned, ghost)):
            op.seq = i
            coarse.analyze(op)
            fine.analyze(op)
        assert fine.uncovered_cross_edges(coarse.result) == []
        assert fine.fallback_edges == len(fine.result.cross_edges) > 0

    def test_broken_elision(self, monkeypatch):
        monkeypatch.setattr(CoarseAnalysis, "_provably_shard_local",
                            lambda self, prev, op, pairs: True)
        fs, cells, owned, ghost = environment()
        pipe = DCRPipeline(2)
        for op in stencil_ops(fs, cells, owned, ghost, sharding=CYCLIC):
            pipe.analyze(op)
        assert len(pipe.coarse_result.fences) == 0
        bad = self.assert_same_verdict(pipe)
        assert set(bad) == pipe.fine_result.cross_edges != set()

    def test_wrongly_narrowed_fence_scope(self, monkeypatch):
        """Fences scoped to data the dependence never touches prove
        nothing: every edge goes to the fallback, which rejects it."""
        fs, cells, owned, ghost = environment()
        state = frozenset([fs["state"]])
        flux = frozenset([fs["flux"]])

        def narrowed(self, prev, op, pairs):
            return Fence(at_seq=op.seq, region=owned[1], fields=flux)

        monkeypatch.setattr(CoarseAnalysis, "_fence_for", narrowed)
        a = Operation("task", [CoarseRequirement(owned[0], state,
                                                 READ_WRITE)],
                      owner_shard=0, name="a")
        b = Operation("task", [CoarseRequirement(owned[0], state,
                                                 READ_WRITE)],
                      owner_shard=1, name="b")
        pipe = DCRPipeline(2)
        pipe.run_program([a, b])
        assert pipe.coarse_result.fences
        bad = self.assert_same_verdict(pipe)
        assert len(bad) == 1
        assert pipe.fine.fallback_edges == 1

    def test_validate_names_the_first_uncovered_edge(self, monkeypatch):
        monkeypatch.setattr(CoarseAnalysis, "_provably_shard_local",
                            lambda self, prev, op, pairs: True)
        fs, cells, owned, ghost = environment()
        pipe = DCRPipeline(2)
        pipe.run_program(stencil_ops(fs, cells, owned, ghost, sharding=CYCLIC))
        prev, task = min(pipe.fine_result.cross_edges,
                         key=lambda e: (e[1].op.seq, e[0].op.seq))
        with pytest.raises(AssertionError) as info:
            pipe.validate()
        msg = str(info.value)
        n = len(pipe.fine_result.cross_edges)
        assert msg.startswith(f"{n} cross-shard dependences not covered")
        assert f"first: {prev.op.name!r} (seq {prev.op.seq})" in msg
        assert f"-> {task.op.name!r} (seq {task.op.seq})" in msg


class TestUncoveredCrossEdgesCheck:
    """Direct coverage of the soundness checker itself (ISSUE 4 satellite):
    multi-requirement ops, global fences, and a deliberately broken elision
    proof the checker must catch."""

    def _run(self, ops, shards, coarse_cls=CoarseAnalysis):
        coarse = coarse_cls(shards)
        fine = FineAnalysis(shards)
        for i, op in enumerate(ops):
            op.seq = i
            coarse.analyze(op)
            fine.analyze(op)
        return coarse, fine

    def test_multi_requirement_ops_covered_via_conflicting_pair(self):
        """Edges between two-requirement ops conflict only through specific
        requirement pairs; the checker must find the fence through whichever
        pair actually conflicts, not just the first."""
        fs, cells, owned, ghost = environment()
        state = frozenset([fs["state"]])
        flux = frozenset([fs["flux"]])
        dom = list(range(4))
        ops = [
            Operation("fill", [CoarseRequirement(cells, state | flux,
                                                 WRITE_DISCARD)], name="fill"),
            # Writes flux through owned, reads state through ghost.
            Operation("task", [CoarseRequirement(owned, flux, READ_WRITE,
                                                 IDENTITY_PROJECTION),
                               CoarseRequirement(ghost, state, READ_ONLY,
                                                 IDENTITY_PROJECTION)],
                      launch_domain=dom, sharding=CYCLIC, name="a"),
            # Writes state through owned, reads flux through ghost — each
            # of its requirements conflicts with the *other* requirement
            # of the previous op.
            Operation("task", [CoarseRequirement(owned, state, READ_WRITE,
                                                 IDENTITY_PROJECTION),
                               CoarseRequirement(ghost, flux, READ_ONLY,
                                                 IDENTITY_PROJECTION)],
                      launch_domain=dom, sharding=BLOCKED, name="b"),
        ]
        coarse, fine = self._run(ops, 2)
        assert fine.result.cross_edges  # different shardings cross shards
        assert fine.uncovered_cross_edges(coarse.result) == []

    def test_global_fence_covers_any_region(self):
        """A region=None fence orders everything across it, including edges
        whose requirements it could never match by region or field."""
        from repro.core.coarse import Fence
        fs, cells, owned, ghost = environment()
        state = frozenset([fs["state"]])
        a = Operation("task", [CoarseRequirement(owned[0], state,
                                                 READ_WRITE)],
                      owner_shard=0, name="a")
        b = Operation("task", [CoarseRequirement(owned[0], state,
                                                 READ_WRITE)],
                      owner_shard=1, name="b")
        coarse, fine = self._run([a, b], 2)
        assert fine.result.cross_edges
        # Swap the analysis's scoped fences for a single global fence at
        # the dependent op: still covered.
        coarse.result.fences.clear()
        coarse.result.fences.append(Fence(at_seq=b.seq, region=None,
                                          fields=frozenset()))
        assert fine.uncovered_cross_edges(coarse.result) == []
        # A global fence *at or before* the earlier op orders nothing
        # between the pair — the checker must reject it.
        coarse.result.fences.clear()
        coarse.result.fences.append(Fence(at_seq=a.seq, region=None,
                                          fields=frozenset()))
        assert fine.uncovered_cross_edges(coarse.result) == [
            edge for edge in fine.result.cross_edges]

    def test_broken_elision_is_caught(self, monkeypatch):
        """If the §4.1 shard-locality proof wrongly claims every dependence
        is local, every fence is elided and the checker must flag the
        cross-shard edges left unordered."""
        monkeypatch.setattr(CoarseAnalysis, "_provably_shard_local",
                            lambda self, prev, op, pairs: True)
        fs, cells, owned, ghost = environment()
        ops = stencil_ops(fs, cells, owned, ghost, sharding=CYCLIC)
        coarse, fine = self._run(ops, 2)
        assert len(coarse.result.fences) == 0
        assert coarse.result.fences_elided > 0
        assert fine.result.cross_edges
        assert fine.uncovered_cross_edges(coarse.result)

    def test_wrongly_narrowed_fence_scope_is_caught(self):
        """A fence whose scope misses the conflicting data must not count
        as covering the edge (this is exactly what the pre-fix _fence_for
        bug could produce)."""
        from repro.core.coarse import Fence
        fs, cells, owned, ghost = environment()
        state = frozenset([fs["state"]])
        flux = frozenset([fs["flux"]])
        a = Operation("task", [CoarseRequirement(owned[0], state,
                                                 READ_WRITE)],
                      owner_shard=0, name="a")
        b = Operation("task", [CoarseRequirement(owned[0], state,
                                                 READ_WRITE)],
                      owner_shard=1, name="b")
        coarse, fine = self._run([a, b], 2)
        # Scope the replacement fence to a disjoint subregion / wrong field:
        # region owned[1] can never alias owned[0], and field flux never
        # intersects the conflicting state field.
        for bad in (Fence(at_seq=b.seq, region=owned[1], fields=state),
                    Fence(at_seq=b.seq, region=owned[0], fields=flux)):
            coarse.result.fences.clear()
            coarse.result.fences.append(bad)
            assert fine.uncovered_cross_edges(coarse.result)
