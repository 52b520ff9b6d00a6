"""Distributed control-determinism checking (paper §3, over real IPC).

:class:`DistDeterminismMonitor` is the per-process counterpart of
:class:`repro.core.determinism.DeterminismMonitor`: each shard process owns
one instance holding only its *own* :class:`ShardHasher`, and the window
check becomes a real all-reduce over the transport.

Protocol
--------
Each rank folds its pending calls into windows at deterministic points —
after every ``batch`` recorded calls, plus one *final* window at flush.
For each window it all-reduces ``(start, count, window_digest, final_total,
ok)``; the combine op verifies that every shard contributed the identical
tuple.  Because a control-deterministic program records the same calls in
the same order on every shard, window boundaries coincide globally without
any coordination; any divergence — different digests, different window
shapes (one shard flushing while another still has full batches), or
different final call counts — turns ``ok`` false on *every* rank in the
same collective, so all shards raise together and none deadlocks.  A shard
that dies instead of participating surfaces as
:class:`~repro.faults.injector.CollectiveTimeout` via the transport's hard
receive deadline.

On a mismatch, ``localize=True`` (the default here — a lone process cannot
inspect its peers' streams) runs the LOCALIZE protocol: one all-gather of
the window's per-call digests and descriptions, then the shared
:func:`~repro.core.determinism.locate_divergence` binary search, raising
:class:`ControlDeterminismViolation` with a full
:class:`~repro.core.determinism.DivergenceDiagnosis`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..core.determinism import (CanonMemo, ControlDeterminismViolation,
                                ShardHasher, locate_divergence,
                                stream_digest)
from ..faults.injector import FaultInjector
from ..obs.events import CAT_DETERMINISM, EV_DET_CHECK, EV_DET_LOCALIZE
from ..obs.profiler import Profiler, get_profiler
from .collectives import DistCollectives

__all__ = ["DistDeterminismMonitor"]

#: ``final_total`` slot value for a non-final (full batch) window.
_NOT_FINAL = -1


def _combine_check(a: Tuple, b: Tuple) -> Tuple:
    """All shards must contribute identical staged windows.

    The payload is ``(windows, ok)`` where ``windows`` is a tuple of
    ``(start, count, digest, final_total)`` — one entry per coalesced
    window.  Any difference (digests, window shapes, window count, or
    final totals) turns ``ok`` false on every rank in the same collective.
    """
    ok = a[1] and b[1] and a[0] == b[0]
    return (a[0], ok)


class DistDeterminismMonitor:
    """Windowed determinism checking for one shard process.

    ``coalesce`` batches that many completed windows into a single digest
    allreduce: the control-plane message count per window drops by the
    same factor, at the cost of divergence being detected up to
    ``coalesce × batch`` calls later (the LOCALIZE search then covers the
    whole coalesced span, so the diagnosis stays exact).
    """

    def __init__(self, collectives: DistCollectives, batch: int = 64,
                 enabled: bool = True, localize: bool = True,
                 profiler: Optional[Profiler] = None,
                 injector: Optional[FaultInjector] = None,
                 coalesce: int = 1):
        self.collectives = collectives
        self.rank = collectives.rank
        self.num_shards = collectives.num_shards
        self.profiler = profiler if profiler is not None else get_profiler()
        self.hasher = ShardHasher(self.rank, injector,
                                  CanonMemo(self.profiler))
        self.batch = max(1, batch)
        self.enabled = enabled
        self.localize = localize
        self.coalesce = max(1, coalesce)
        self._verified = 0
        self._staged: List[Tuple[int, int, int, int]] = []
        self.checks_performed = 0

    # -- recording -----------------------------------------------------------

    def record(self, api_call: str, *args: Any, **kwargs: Any) -> int:
        """Hash one API call, then check if a full batch is pending."""
        digest = self.hasher.record(api_call, *args, **kwargs)
        self.maybe_check()
        return digest

    def maybe_check(self) -> None:
        if self.enabled and self._ready() >= self.batch:
            self._stage(self._ready(), final_total=_NOT_FINAL)
            if len(self._staged) >= self.coalesce:
                self._exchange()

    def flush(self) -> None:
        """Check the remaining calls and verify equal totals everywhere.

        Always performs the final collective (even with an empty remainder
        and no staged windows) so a shard that issued extra trailing calls
        is caught rather than silently ignored.
        """
        if not self.enabled:
            return
        self._stage(self._ready(), final_total=len(self.hasher.calls))
        self._exchange()

    def _ready(self) -> int:
        return len(self.hasher.calls) - self._verified

    @property
    def verified(self) -> int:
        return self._verified

    def stream_digest(self) -> int:
        """Digest of this shard's full call stream (the report hash)."""
        return stream_digest(self.hasher.calls)

    # -- the collective check ------------------------------------------------

    def _stage(self, count: int, final_total: int) -> None:
        """Close one window locally; exchange happens at coalesce points."""
        start = self._verified
        digest = stream_digest(self.hasher.calls[start:start + count])
        self._staged.append((start, count, digest, final_total))
        self._verified = start + count

    def _exchange(self) -> None:
        """All-reduce every staged window in one collective round."""
        staged, self._staged = self._staged, []
        prof = self.profiler
        t0 = prof.now_us() if prof.enabled else 0.0
        self.checks_performed += 1
        verdict = self.collectives.allreduce(
            (tuple(staged), True), _combine_check)
        span_count = sum(w[1] for w in staged)
        if not verdict[1]:
            self._diverged(staged[0][0], span_count, staged[-1][3])
        if prof.enabled:
            prof.complete(self.rank, CAT_DETERMINISM, EV_DET_CHECK, t0,
                          prof.now_us() - t0, calls=span_count,
                          windows=len(staged),
                          batch=self.checks_performed)
            prof.count("determinism.dist.batches")
            prof.count("determinism.dist.calls_checked", span_count)

    def _diverged(self, start: int, count: int, final_total: int) -> None:
        """Raise the structured violation; all ranks take this path."""
        if not self.localize:
            raise ControlDeterminismViolation(
                start, ["<window mismatch>"], shard_ids=[self.rank])
        prof = self.profiler
        t0 = prof.now_us() if prof.enabled else 0.0
        # LOCALIZE over the wire: gather every shard's window digests,
        # descriptions, window shape and total call count in one allgather.
        calls = self.hasher.calls[start:start + count]
        descr = self.hasher.descriptions[start:start + count]
        gathered = self.collectives.allgather(
            (start, count, calls, descr, len(self.hasher.calls)))
        shard_ids = list(range(self.num_shards))
        counts = [g[4] for g in gathered]
        shapes = {(g[0], g[1]) for g in gathered}
        if len(shapes) > 1 or len(set(counts)) > 1:
            # Shards disagree about how many calls exist: the unequal-
            # call-count violation, localized to the short shard(s).
            seq = min(counts)
            descriptions = []
            for g in gathered:
                w_start, w_descr = g[0], g[3]
                off = seq - w_start
                descriptions.append(w_descr[off]
                                    if 0 <= off < len(w_descr)
                                    else "<no call>")
            raise ControlDeterminismViolation(
                seq, descriptions, shard_ids=shard_ids, call_counts=counts)
        width = min(len(g[2]) for g in gathered)
        diagnosis = locate_divergence(
            shard_ids,
            [list(g[2])[:width] for g in gathered],
            [list(g[3])[:width] for g in gathered],
            counts, start, width)
        if prof.enabled:
            prof.complete(self.rank, CAT_DETERMINISM, EV_DET_LOCALIZE,
                          t0, prof.now_us() - t0, seq=diagnosis.seq,
                          shards=list(diagnosis.divergent_shards),
                          window=count)
            prof.count("determinism.dist.localizations")
        raise ControlDeterminismViolation(
            diagnosis.seq, list(diagnosis.descriptions),
            shard_digests=list(diagnosis.shard_digests),
            shard_ids=list(diagnosis.shard_ids),
            diagnosis=diagnosis)
