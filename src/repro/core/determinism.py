"""Control-determinism checking (paper §3).

DCR requires all shards to make the *same sequence of runtime API calls*
("control determinism").  The check: for every API call from a shard of a
replicated task, compute a 128-bit hash capturing the call and its actual
arguments, then verify via an (asynchronous, batched) all-reduce that all
shards produced identical hashes.  On mismatch the runtime aborts with an
error naming the first divergent operation — the paper reports this is
sufficient for debugging.  With ``localize=True`` the monitor goes further:
it allgathers the per-call digests of the failed window and binary-searches
the first divergent call, attaching a :class:`DivergenceDiagnosis` naming
the culprit shard(s) — the foundation the recovery policies in
:mod:`repro.resilience` build on.

Hashing detail: raw Python object identities differ between shards even for
logically identical resources, so each shard's checker *interns* runtime
resources (regions, partitions, fields, futures...) into shard-local ids
assigned in API-call order.  Control determinism guarantees identical
numbering across shards, making the hashes comparable.

Long all-float sequences (the explicit payloads of array frontends) are
encoded by a vectorized NumPy path that reproduces the recursive encoding
byte for byte, and the result is memoized per monitor in a
:class:`CanonMemo` keyed by the payload's exact float64 bit pattern, so a
payload every shard passes is encoded once per program.
"""

from __future__ import annotations

import hashlib
import operator
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.injector import FaultInjector, ShardCrash
from ..obs.events import (CAT_DETERMINISM, CONTROL_SHARD, EV_DET_CHECK,
                          EV_DET_LOCALIZE)
from ..obs.profiler import Profiler, get_profiler
from .collectives import Collectives

__all__ = ["ControlDeterminismViolation", "DivergenceDiagnosis",
           "ShardHasher", "DeterminismMonitor", "CanonMemo", "stream_digest",
           "locate_divergence"]

#: Float sequences shorter than this take the recursive path: below it the
#: vectorized encoder's fixed cost exceeds the per-element one it saves.
FAST_FLOATS_MIN = 64
#: Elements encoded per NumPy pass, so temporaries stay ~1 MB per pass.
_CHUNK = 8192
#: Bytes of keys plus encodings one :class:`CanonMemo` may hold.
_MEMO_BYTES = 64 << 20

# One row per float of ``F[-]0x<lead>.<13 hex digits>p<exponent>,`` in
# fixed columns; a per-row mask drops the columns a value does not use.
_COL_SIGN, _COL_MANT, _COL_P, _WIDTH = 1, 6, 19, 26
_ZERO = 2047          # table row of ±0.0; rows 0..2046 are biased exponents
_tables: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None


def _float_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encoder tables, built on first use so importing costs nothing.

    * ``rows[e]``: the full row of a value whose exponent row is ``e``,
      mantissa digits still ``0``;
    * ``used[2 * e + sign]``: which of its columns the value spells;
    * ``hex_pairs[octet]``: the two hex digits of one byte.
    """
    global _tables
    if _tables is None:
        texts = []
        for e in range(2048):
            lead = b"1" if 0 < e < _ZERO else b"0"
            exp = (b"+0" if e == _ZERO else b"-1022" if e == 0
                   else b"%+d" % (e - 1023))
            texts.append((b"F-0x" + lead + b"." + b"0" * 13 + b"p"
                          + exp).ljust(_WIDTH - 1, b"\0") + b",")
        rows = np.frombuffer(b"".join(texts), dtype=np.uint8).reshape(
            2048, _WIDTH)
        used = np.repeat(rows != 0, 2, axis=0)
        used[0::2, _COL_SIGN] = False
        used[2 * _ZERO:, _COL_MANT + 1:_COL_P] = False
        hex_pairs = np.frombuffer(
            b"".join(b"%02x" % b for b in range(256)),
            dtype=np.uint8).reshape(256, 2)
        _tables = (rows, used, hex_pairs)
    return _tables


def _encode_finite(bits: np.ndarray) -> bytes:
    """``b",".join(b"F" + v.hex().encode() for v in floats) + b","``.

    ``bits`` holds finite float64 values viewed as uint64.  ``float.hex``
    spells a nonzero value as ``[-]0x<lead>.<13 hex digits>p<exp>``, with
    lead 1 for normals and 0 (exponent -1022) for subnormals, and zero as
    ``[-]0x0.0p+0``; all but the sign, the exponent's width and zero's
    12 trailing digits sit in fixed columns.
    """
    row_table, used_table, hex_pairs = _float_tables()
    n = bits.shape[0]
    mant = bits & np.uint64((1 << 52) - 1)
    exp_row = ((bits >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.intp)
    exp_row[(exp_row == 0) & (mant == 0)] = _ZERO
    rows = row_table.take(exp_row, axis=0)
    # The 52 mantissa bits are the low 13 hex digits of big-endian bytes
    # 1..7 (byte 0 is zero).
    octets = mant.astype(">u8").view(np.uint8).reshape(n, 8)[:, 1:]
    rows[:, _COL_MANT:_COL_P] = hex_pairs.take(
        octets, axis=0).reshape(n, 14)[:, 1:]
    sign = (bits >> np.uint64(63)).astype(np.intp)
    return rows[used_table.take(2 * exp_row + sign, axis=0)].tobytes()


def encode_float_seq(values: Any) -> Optional[bytes]:
    """Canonical bytes of a sequence of exact ``float``s: ``T(F…,F…)``.

    Byte-identical to the recursive :meth:`ShardHasher._canon` on the
    same sequence (``values`` may also be its float64 array), encoded by
    :func:`_encode_finite` in chunks.  None if a value is an inf or nan:
    those take the recursive path.
    """
    bits = np.asarray(values, dtype=np.float64).view(np.uint64)
    if ((bits >> np.uint64(52)) & np.uint64(0x7FF) == 0x7FF).any():
        return None
    parts = [b"T("]
    parts.extend(_encode_finite(bits[lo:lo + _CHUNK])
                 for lo in range(0, len(bits), _CHUNK))
    if len(parts) > 1:
        parts[-1] = parts[-1][:-1]     # the last value's trailing comma
    parts.append(b")")
    return b"".join(parts)


class CanonMemo:
    """Canonical bytes of long float payloads, shared by one monitor's hashers.

    The key is the payload's float64 bit pattern (never float ``==``:
    ``0.0 == -0.0``, but the two encode differently), so a payload that
    every shard rebuilds from the same data is encoded once.  Entries stop
    being added once keys plus encodings reach ``_MEMO_BYTES``; the memo
    lives and dies with its owner, so nothing grows process-wide.  Hits and
    encoded bytes are counted under ``core.determinism`` while the profiler
    is enabled.
    """

    def __init__(self, profiler: Optional[Profiler] = None):
        self.profiler = profiler if profiler is not None else get_profiler()
        self._entries: Dict[bytes, bytes] = {}
        self._bytes = 0
        self._lock = threading.Lock()

    def floats(self, values: Sequence[Any]) -> Optional[bytes]:
        """Encoding of ``values`` if every element is an exact, finite
        ``float``, else None (the caller falls back to the recursive
        encoding)."""
        n = len(values)
        if (type(values[0]) is not float
                or operator.countOf(map(type, values), float) != n):
            return None
        arr = np.fromiter(values, dtype=np.float64, count=n)
        key = arr.tobytes()
        prof = self.profiler
        encoded = self._entries.get(key)
        if encoded is not None:
            if prof.enabled:
                prof.count("core.determinism.memo_hits")
            return encoded
        encoded = encode_float_seq(arr)
        if encoded is None:
            return None
        if prof.enabled:
            prof.count("core.determinism.encodes")
            prof.count("core.determinism.encoded_bytes", len(encoded))
        size = len(key) + len(encoded)
        with self._lock:
            if (key not in self._entries
                    and self._bytes + size <= _MEMO_BYTES):
                self._entries[key] = encoded
                self._bytes += size
        return encoded


def stream_digest(calls: Sequence[int]) -> int:
    """128-bit digest of a sequence of per-call digests.

    The canonical "control-determinism hash" of a call stream: used for
    window checks here, and by the multiprocess backend
    (:mod:`repro.dist`) to compare whole per-shard streams across process
    boundaries — so both backends fold digests identically.
    """
    acc = hashlib.blake2b(digest_size=16)
    for d in calls:
        acc.update(d.to_bytes(16, "little"))
    return int.from_bytes(acc.digest(), "little")


def locate_divergence(shard_ids: Sequence[int],
                      per_call: Sequence[Sequence[int]],
                      descriptions: Sequence[Sequence[str]],
                      call_counts: Sequence[int],
                      start: int, count: int) -> DivergenceDiagnosis:
    """Binary-search the first divergent call of a mismatched window.

    Pure function over already-gathered per-shard data, shared by the
    in-process monitor (which gathers via :class:`Collectives`) and the
    multiprocess backend (which gathers over the transport).  ``per_call``
    holds each shard's call digests for ``[start, start + count)`` and
    ``descriptions`` the matching call descriptions.

    Individual call digests can re-coincide after a divergence, so the
    search runs over *chained prefix* digests (prefix[i] folds in calls
    [0, i]), which are monotone: once the first differing call is
    included, every longer prefix disagrees too.
    """
    prefixes: List[List[int]] = []
    for calls in per_call:
        acc = hashlib.blake2b(digest_size=16)
        row: List[int] = []
        for d in calls:
            acc.update(d.to_bytes(16, "little"))
            row.append(int.from_bytes(acc.digest(), "little"))
        prefixes.append(row)
    lo, hi = 0, count - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if len({row[mid] for row in prefixes}) > 1:
            hi = mid
        else:
            lo = mid + 1
    off = lo
    seq = start + off
    digests = [calls[off] for calls in per_call]
    # Majority digest wins; ties break toward the lowest shard id's
    # digest, so a 1-vs-1 split blames the higher shard.
    tally: Dict[int, int] = {}
    for d in digests:
        tally[d] = tally.get(d, 0) + 1
    best = max(tally.values())
    majority = next(d for d in digests if tally[d] == best)
    divergent = tuple(s for s, d in zip(shard_ids, digests)
                      if d != majority)
    return DivergenceDiagnosis(
        seq=seq,
        shard_ids=tuple(shard_ids),
        shard_digests=tuple(digests),
        descriptions=tuple(descr[off] for descr in descriptions),
        divergent_shards=divergent,
        majority_digest=majority,
        call_counts=tuple(call_counts),
        window=(start, count),
    )


@dataclass(frozen=True)
class DivergenceDiagnosis:
    """Localized first point of control divergence (LOCALIZE output).

    Produced by :meth:`DeterminismMonitor.localize_window`: after a window
    hash mismatch, the per-call digests of the window are allgathered and
    the first divergent call index found by binary search over per-shard
    digest prefixes.  ``divergent_shards`` are the shards whose digest at
    ``seq`` differs from the majority digest (ties break toward the digest
    held by the lowest shard id).
    """

    seq: int                                  # global API-call index
    shard_ids: Tuple[int, ...]                # shards compared, ascending
    shard_digests: Tuple[int, ...]            # 128-bit digest at seq, per shard
    descriptions: Tuple[str, ...]             # call description at seq, per shard
    divergent_shards: Tuple[int, ...]         # minority shards at seq
    majority_digest: int
    call_counts: Tuple[int, ...]              # total calls recorded, per shard
    window: Tuple[int, int]                   # (start, count) of failed window

    def summary(self) -> str:
        pairs = ", ".join(
            f"shard {s}: {d!r}" for s, d in zip(self.shard_ids,
                                                self.descriptions))
        return (f"first divergence at API call #{self.seq} on shard(s) "
                f"{list(self.divergent_shards)} — {pairs}")


class ControlDeterminismViolation(RuntimeError):
    """Raised when shards diverge in their sequence of runtime API calls.

    Beyond the formatted message, carries structured fields so recovery
    policies (and tests) never have to parse strings:

    * ``seq`` — first divergent (or first missing) API-call index;
    * ``descriptions`` — per-shard call description at ``seq``;
    * ``shard_digests`` — per-shard 128-bit digest at ``seq`` (None for the
      unequal-count case, where the short shards made no call at ``seq``);
    * ``shard_ids`` — which shard each entry of the parallel lists refers
      to (defaults to 0..n-1);
    * ``call_counts`` — per-shard total recorded calls (unequal-count case);
    * ``diagnosis`` — full :class:`DivergenceDiagnosis` when LOCALIZE ran.
    """

    def __init__(self, seq: int, descriptions: Sequence[str],
                 shard_digests: Optional[Sequence[int]] = None,
                 shard_ids: Optional[Sequence[int]] = None,
                 call_counts: Optional[Sequence[int]] = None,
                 diagnosis: Optional[DivergenceDiagnosis] = None):
        self.seq = seq
        self.descriptions = list(descriptions)
        self.shard_digests = list(shard_digests) if shard_digests else None
        self.shard_ids = (list(shard_ids) if shard_ids is not None
                          else list(range(len(self.descriptions))))
        self.call_counts = list(call_counts) if call_counts else None
        self.diagnosis = diagnosis
        uniq = sorted(set(self.descriptions))
        msg = (f"control determinism violated at API call #{seq}: shards "
               f"disagree — {uniq}")
        if self.call_counts:
            per = ", ".join(f"shard {s}: {c} calls" for s, c in
                            zip(self.shard_ids, self.call_counts))
            short = [s for s, c in zip(self.shard_ids, self.call_counts)
                     if c == min(self.call_counts)]
            msg += f" (unequal call counts — {per}; short: {short})"
        if diagnosis is not None:
            msg += f"; {diagnosis.summary()}"
        super().__init__(msg)

    @property
    def divergent_shards(self) -> Optional[List[int]]:
        """Culprit shards when known (diagnosis or unequal counts)."""
        if self.diagnosis is not None:
            return list(self.diagnosis.divergent_shards)
        if self.call_counts:
            lo = min(self.call_counts)
            return [s for s, c in zip(self.shard_ids, self.call_counts)
                    if c == lo]
        if self.shard_digests and self.shard_ids:
            # Majority digest wins; ties break toward the lowest shard.
            tally: Dict[int, int] = {}
            for d in self.shard_digests:
                tally[d] = tally.get(d, 0) + 1
            best = max(tally.values())
            majority = next(d for d in self.shard_digests
                            if tally[d] == best)
            return [s for s, d in zip(self.shard_ids, self.shard_digests)
                    if d != majority]
        return None


class ShardHasher:
    """Per-shard API-call hasher with resource interning.

    When a :class:`~repro.faults.FaultInjector` is attached, two fault
    sites live here: ``hash_flip`` perturbs the digest (and tags the
    description) of one call — simulating a divergent control decision
    without changing the analyzed program — and ``shard_crash`` raises
    :class:`~repro.faults.ShardCrash` in place of recording a call.  Both
    are behind an ``enabled`` guard so the default path is unchanged.

    ``memo`` is the :class:`CanonMemo` for long float payloads; a
    :class:`DeterminismMonitor` passes one shared by all its hashers, and a
    standalone hasher gets its own.
    """

    def __init__(self, shard: int,
                 injector: Optional[FaultInjector] = None,
                 memo: Optional[CanonMemo] = None):
        self.shard = shard
        self.injector = injector
        self.memo = memo if memo is not None else CanonMemo()
        # id(obj) -> (local id, obj): holding the object pins its id, so a
        # freed temporary's address can never be reused by a later resource.
        self._intern: Dict[int, Tuple[int, Any]] = {}
        self.calls: List[int] = []          # 128-bit hashes, in call order
        self.descriptions: List[str] = []   # human-readable, for error messages

    def intern(self, obj: Any) -> int:
        """Shard-local id for a runtime resource, by first-use order."""
        entry = self._intern.get(id(obj))
        if entry is None:
            entry = (len(self._intern), obj)
            self._intern[id(obj)] = entry
        return entry[0]

    def _canon(self, value: Any) -> bytes:
        """Canonical byte encoding of an argument value."""
        kind = type(value)
        # The common exact types first, one identity test each.  Everything
        # else (None, bool, subclasses, resources) takes the isinstance
        # chain below, which gives an exact type the same bytes.
        if kind is int:
            return b"I%d" % value
        if kind is tuple or kind is list:
            return self._canon_seq(value)
        if kind is str:
            return b"S" + value.encode()
        if value is None:
            return b"N"
        if isinstance(value, bool):
            return b"B1" if value else b"B0"
        if isinstance(value, int):
            return b"I" + str(value).encode()
        if isinstance(value, float):
            return b"F" + value.hex().encode()
        if isinstance(value, str):
            return b"S" + value.encode()
        if isinstance(value, bytes):
            return b"Y" + value
        if isinstance(value, (tuple, list)):
            return self._canon_seq(value)
        if isinstance(value, dict):
            items = sorted((str(k), v) for k, v in value.items())
            inner = b",".join(
                self._canon(k) + b"=" + self._canon(v) for k, v in items)
            return b"D(" + inner + b")"
        if isinstance(value, frozenset) or isinstance(value, set):
            inner = b",".join(sorted(self._canon(v) for v in value))
            return b"Z(" + inner + b")"
        # Runtime resource: intern by first-use order.
        return b"R" + str(self.intern(value)).encode()

    def _canon_seq(self, value: Sequence[Any]) -> bytes:
        """``T(`` + element encodings joined by ``,`` + ``)``."""
        if len(value) >= FAST_FLOATS_MIN:
            encoded = self.memo.floats(value)
            if encoded is not None:
                return encoded
        return b"T(" + b",".join(map(self._canon, value)) + b")"

    def record(self, api_call: str, *args: Any, **kwargs: Any) -> int:
        """Hash one API call; returns the 128-bit digest as an int."""
        inj = self.injector
        faulted = False
        if inj is not None and inj.enabled:
            call = len(self.calls)
            if inj.crash_call(self.shard, call):
                raise ShardCrash(self.shard, call)
            faulted = inj.flip_call(self.shard, call)
        h = hashlib.blake2b(digest_size=16)
        h.update(api_call.encode())
        for a in args:
            h.update(b"|")
            h.update(self._canon(a))
        for k in sorted(kwargs):
            h.update(b"|" + k.encode() + b"=")
            h.update(self._canon(kwargs[k]))
        if faulted:
            # Perturb only the digest: the analyzed call itself is intact,
            # so recovery re-analysis reproduces the fault-free task graph
            # (Theorem 1) while the determinism check sees a divergence.
            h.update(b"|<fault-injected>")
        digest = int.from_bytes(h.digest(), "little")
        self.calls.append(digest)
        self.descriptions.append(api_call + " [faulted]" if faulted
                                 else api_call)
        return digest


@dataclass
class _CheckWindow:
    """One pending batch of hashes awaiting the all-reduce."""

    start: int
    length: int


class DeterminismMonitor:
    """Coordinates the asynchronous hash all-reduce across shards.

    The real system hides the all-reduce latency by pipelining it with
    execution; here ``maybe_check`` is called after every recorded call and
    performs the collective once every ``batch`` calls are available on all
    shards (plus a final ``flush`` at task completion).  ``enabled=False``
    models the "No Safe" configurations of Fig. 21.

    Recovery hooks (all optional, default off):

    * ``injector`` — threaded into every :class:`ShardHasher`;
    * ``localize=True`` — on a window mismatch, allgather per-call digests
      and binary-search the first divergent call, raising with a full
      :class:`DivergenceDiagnosis` instead of a bare first-difference scan;
    * ``on_batch`` — callback ``(verified_count) -> None`` after each
      successful check, used by the runtime for batch-boundary snapshots;
    * ``quarantine(shard)`` / ``reset_shard(shard)`` — shrink the compared
      shard set after DEGRADE, or re-admit a shard with a fresh hasher for
      RESTART (it rejoins checking at the next batch boundary, once its
      re-execution catches back up to the verified frontier).
    """

    def __init__(self, num_shards: int, batch: int = 64, enabled: bool = True,
                 collectives: Optional[Collectives] = None,
                 profiler: Optional[Profiler] = None,
                 injector: Optional[FaultInjector] = None,
                 localize: bool = False,
                 on_batch: Optional[Callable[[int], None]] = None):
        self.injector = injector
        self.profiler = profiler if profiler is not None else get_profiler()
        self.memo = CanonMemo(self.profiler)
        self.hashers = [ShardHasher(i, injector, self.memo)
                        for i in range(num_shards)]
        self.batch = max(1, batch)
        self.enabled = enabled
        self.localize = localize
        self.on_batch = on_batch
        self.collectives = collectives or Collectives(
            num_shards, profiler=self.profiler)
        self._verified = 0
        self.checks_performed = 0
        self._active = set(range(num_shards))

    def hasher(self, shard: int) -> ShardHasher:
        return self.hashers[shard]

    # -- shard-set management (DEGRADE / RESTART) ----------------------------

    @property
    def active_shards(self) -> List[int]:
        return sorted(self._active)

    def quarantine(self, shard: int) -> None:
        """Stop comparing ``shard``; its recorded calls are abandoned."""
        self._active.discard(shard)
        if not self._active:
            raise ValueError("cannot quarantine the last active shard")

    def reset_shard(self, shard: int) -> None:
        """Re-admit ``shard`` with a fresh hasher (RESTART rejoin).

        The restarted shard replays its control stream from the beginning;
        checks stall (``_ready() <= 0``) until it catches back up to the
        verified frontier, i.e. it rejoins at the next batch boundary.
        """
        self.hashers[shard] = ShardHasher(shard, self.injector, self.memo)
        self._active.add(shard)

    def _active_hashers(self) -> List[ShardHasher]:
        return [self.hashers[s] for s in sorted(self._active)]

    def _ready(self) -> int:
        """Number of call slots recorded by *all* shards but not yet checked."""
        avail = min(len(h.calls) for h in self._active_hashers())
        return max(0, avail - self._verified)

    def maybe_check(self) -> None:
        """Run the collective check if a full batch is ready on every shard."""
        if self.enabled and self._ready() >= self.batch:
            self._check(self._ready())

    def flush(self) -> None:
        """Check everything outstanding; also verifies equal call counts."""
        if not self.enabled:
            return
        hashers = self._active_hashers()
        counts = [len(h.calls) for h in hashers]
        if len(set(counts)) > 1:
            seq = min(counts)
            # Guard and index must agree on the *same* list: descriptions
            # grows in lockstep with calls, so index it under its own length.
            descr = [
                h.descriptions[seq] if seq < len(h.descriptions)
                else "<no call>"
                for h in hashers
            ]
            raise ControlDeterminismViolation(
                seq, descr,
                shard_ids=[h.shard for h in hashers],
                call_counts=counts)
        remaining = self._ready()
        if remaining > 0:
            self._check(remaining)

    # -- window digests & localization ---------------------------------------

    def window_digest(self, shard: int, start: int, count: int) -> int:
        """128-bit digest of one shard's calls ``[start, start+count)``."""
        return stream_digest(self.hashers[shard].calls[start:start + count])

    def localize_window(self, start: int, count: int) -> DivergenceDiagnosis:
        """Find the first divergent call in a mismatched window (LOCALIZE).

        Models the paper-faithful distributed protocol: every shard
        contributes its per-call digests for the window via one allgather
        (charged to :class:`Collectives` and the profiler), then each shard
        runs the same deterministic binary search over digest prefixes —
        window hashes are prefix-monotone, so the first index at which the
        prefix sets diverge is the first divergent call.
        """
        prof = self.profiler
        t0 = prof.now_us() if prof.enabled else 0.0
        shards = sorted(self._active)
        hashers = [self.hashers[s] for s in shards]
        # The allgather moves count 128-bit digests per shard; the payload
        # rides the same O(log N) schedule as any allgather.  Quarantined
        # slots are padded with the first active shard's stream so the
        # collective keeps its fixed width without affecting the search.
        per_call = [h.calls[start:start + count] for h in hashers]
        pad = self.collectives.num_shards - len(per_call)
        full = self.collectives.allgather(
            per_call + per_call[:1] * pad)[0][:len(shards)]
        # The binary search over chained prefix digests is shared with the
        # multiprocess backend (which gathers over the transport instead).
        diagnosis = locate_divergence(
            shards, full,
            [h.descriptions[start:start + count] for h in hashers],
            [len(h.calls) for h in hashers], start, count)
        seq = diagnosis.seq
        divergent = diagnosis.divergent_shards
        if prof.enabled:
            prof.complete(CONTROL_SHARD, CAT_DETERMINISM, EV_DET_LOCALIZE,
                          t0, prof.now_us() - t0, seq=seq,
                          shards=list(divergent), window=count)
            prof.count("determinism.localizations")
        return diagnosis

    def _check(self, count: int) -> None:
        prof = self.profiler
        t0 = prof.now_us() if prof.enabled else 0.0
        start = self._verified
        self.checks_performed += 1
        hashers = self._active_hashers()
        # One all-reduce over the batch: combine (window-hash, ok) pairs.
        window_hashes = [self.window_digest(h.shard, start, count)
                         for h in hashers]
        pad = self.collectives.num_shards - len(window_hashes)
        combined = self.collectives.allreduce(
            [(w, True) for w in window_hashes + window_hashes[:1] * pad],
            lambda a, b: (a[0], a[1] and b[1] and a[0] == b[0]))
        if not all(ok for (_w, ok) in combined):
            if self.localize:
                diagnosis = self.localize_window(start, count)
                raise ControlDeterminismViolation(
                    diagnosis.seq, list(diagnosis.descriptions),
                    shard_digests=list(diagnosis.shard_digests),
                    shard_ids=list(diagnosis.shard_ids),
                    diagnosis=diagnosis)
            # Locate the first divergent call for the error message.
            for off in range(count):
                seq = start + off
                digests = {h.calls[seq] for h in hashers}
                if len(digests) > 1:
                    raise ControlDeterminismViolation(
                        seq, [h.descriptions[seq] for h in hashers],
                        shard_digests=[h.calls[seq] for h in hashers],
                        shard_ids=[h.shard for h in hashers])
            raise ControlDeterminismViolation(start, ["<window mismatch>"])
        self._verified = start + count
        if prof.enabled:
            prof.complete(CONTROL_SHARD, CAT_DETERMINISM, EV_DET_CHECK,
                          t0, prof.now_us() - t0, calls=count,
                          batch=self.checks_performed)
            prof.count("determinism.batches")
            prof.count("determinism.calls_checked", count)
        if self.on_batch is not None:
            self.on_batch(self._verified)
