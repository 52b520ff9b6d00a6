"""Control-determinism checking at the monitor level (paper §3)."""

import gc
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import determinism
from repro.core.determinism import (FAST_FLOATS_MIN, CanonMemo,
                                    ControlDeterminismViolation,
                                    DeterminismMonitor, ShardHasher,
                                    encode_float_seq, stream_digest)


class TestHashing:
    def test_identical_calls_identical_hash(self):
        a, b = ShardHasher(0), ShardHasher(1)
        assert a.record("launch", 1, "x", 2.5) == b.record("launch", 1, "x", 2.5)

    def test_argument_sensitivity(self):
        a, b = ShardHasher(0), ShardHasher(1)
        assert a.record("launch", 1) != b.record("launch", 2)

    def test_call_name_sensitivity(self):
        a, b = ShardHasher(0), ShardHasher(1)
        assert a.record("fill", 1) != b.record("launch", 1)

    def test_kwargs_order_insensitive(self):
        a, b = ShardHasher(0), ShardHasher(1)
        assert a.record("op", x=1, y=2) == b.record("op", y=2, x=1)

    def test_type_disambiguation(self):
        """1, 1.0, "1" and True must hash differently (no coercion)."""
        h = ShardHasher(0)
        digests = {h.record("op", v) for v in (1, 1.0, "1", True)}
        assert len(digests) == 4

    def test_container_canonicalization(self):
        a, b = ShardHasher(0), ShardHasher(1)
        assert a.record("op", [1, (2, 3)]) == b.record("op", [1, (2, 3)])
        assert a.record("op", {4, 5}) == b.record("op", {5, 4})
        assert a.record("op", {"k": 1}) == b.record("op", {"k": 1})

    def test_resource_interning_by_first_use(self):
        """Different objects in the same usage order hash identically —
        the property that makes per-shard resource handles comparable."""
        res_a, res_b = object(), object()
        other_a, other_b = object(), object()
        h0, h1 = ShardHasher(0), ShardHasher(1)
        d0 = [h0.record("use", res_a), h0.record("use", other_a)]
        d1 = [h1.record("use", res_b), h1.record("use", other_b)]
        assert d0 == d1
        # Swapped usage order changes the digests.
        h2 = ShardHasher(2)
        d2 = [h2.record("use", other_a), h2.record("use", res_a)]
        assert d2 == d0  # first-use interning is positional, so still equal

    def test_resource_reuse_stable(self):
        res = object()
        h = ShardHasher(0)
        first = h.record("use", res)
        second = h.record("use", res)
        assert first == second

    @given(st.lists(st.integers(), max_size=6))
    def test_hash_is_128_bit(self, args):
        d = ShardHasher(0).record("op", *args)
        assert 0 <= d < 2 ** 128


class TestMonitor:
    def _record_all(self, mon, *calls):
        for shard in range(len(mon.hashers)):
            for call in calls:
                mon.hasher(shard).record(*call)
            mon.maybe_check()

    def test_agreeing_shards_pass(self):
        mon = DeterminismMonitor(3, batch=2)
        self._record_all(mon, ("a", 1), ("b", 2), ("c", 3))
        mon.flush()
        assert mon.checks_performed >= 1

    def test_divergent_argument_detected(self):
        mon = DeterminismMonitor(2, batch=1)
        mon.hasher(0).record("launch", 1)
        mon.hasher(1).record("launch", 2)
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.maybe_check()
        assert exc.value.seq == 0
        assert "launch" in str(exc.value)

    def test_divergent_order_detected(self):
        mon = DeterminismMonitor(2, batch=2)
        mon.hasher(0).record("a")
        mon.hasher(0).record("b")
        mon.hasher(1).record("b")
        mon.hasher(1).record("a")
        with pytest.raises(ControlDeterminismViolation):
            mon.maybe_check()

    def test_missing_call_detected_at_flush(self):
        mon = DeterminismMonitor(2, batch=100)
        mon.hasher(0).record("a")
        mon.hasher(0).record("b")
        mon.hasher(1).record("a")
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.flush()
        assert exc.value.seq == 1

    def test_batching_defers_checks(self):
        mon = DeterminismMonitor(2, batch=4)
        for _ in range(3):
            mon.hasher(0).record("x")
            mon.hasher(1).record("x")
            mon.maybe_check()
        assert mon.checks_performed == 0        # batch not yet full
        mon.hasher(0).record("x")
        mon.hasher(1).record("x")
        mon.maybe_check()
        assert mon.checks_performed == 1

    def test_disabled_monitor_never_raises(self):
        mon = DeterminismMonitor(2, batch=1, enabled=False)
        mon.hasher(0).record("a", 1)
        mon.hasher(1).record("a", 2)
        mon.maybe_check()
        mon.flush()
        assert mon.checks_performed == 0

    def test_violation_reports_first_divergence(self):
        mon = DeterminismMonitor(2, batch=8)
        for shard in (0, 1):
            mon.hasher(shard).record("same")
        mon.hasher(0).record("diverge", 0)
        mon.hasher(1).record("diverge", 1)
        for shard in (0, 1):
            mon.hasher(shard).record("same-again")
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.flush()
        assert exc.value.seq == 1


class TestCanonicalEncodingProperties:
    from hypothesis import given as _given, strategies as _st

    primitives = _st.one_of(
        _st.integers(-10**6, 10**6), _st.floats(allow_nan=False),
        _st.text(max_size=12), _st.booleans(), _st.none())

    @_given(primitives, primitives)
    def test_distinct_values_distinct_hashes(self, a, b):
        """The canonical encoding must be injective on primitives (no
        cross-type coercion collisions like 1 == 1.0 == True)."""
        if a is b or (type(a) is type(b) and a == b):
            return
        ha = ShardHasher(0).record("op", a)
        hb = ShardHasher(1).record("op", b)
        assert ha != hb, (a, b)

    @_given(_st.lists(primitives, max_size=5))
    def test_encoding_stable_across_hashers(self, args):
        assert ShardHasher(0).record("op", *args) == \
            ShardHasher(1).record("op", *args)

    @_given(_st.lists(primitives, min_size=2, max_size=5))
    def test_argument_order_matters(self, args):
        if args == list(reversed(args)):
            return
        a = ShardHasher(0).record("op", *args)
        b = ShardHasher(1).record("op", *reversed(args))
        assert a != b


class TestStructuredViolation:
    """Satellite: violations carry enough structure to act on (resilience)."""

    def test_flush_count_mismatch_is_structured(self):
        mon = DeterminismMonitor(3, batch=100)
        for shard in range(3):
            mon.hasher(shard).record("a")
            mon.hasher(shard).record("b")
        mon.hasher(1).record("c")           # shards 0 and 2 stop short
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.flush()
        v = exc.value
        assert v.seq == 2
        assert v.call_counts == [2, 3, 2]
        assert v.shard_ids == [0, 1, 2]
        # The shards that recorded fewest calls are the likely culprits.
        assert v.divergent_shards == [0, 2]
        assert "<no call>" in v.descriptions

    def test_flush_count_guard_indexes_safely(self):
        """The count guard must not IndexError when the shortest shard has
        recorded fewer calls than the divergence point (regression)."""
        mon = DeterminismMonitor(2, batch=100)
        mon.hasher(0).record("only-on-zero")
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.flush()
        assert exc.value.descriptions == ["only-on-zero", "<no call>"]

    def test_batch_violation_carries_digests(self):
        mon = DeterminismMonitor(2, batch=1)
        mon.hasher(0).record("launch", 1)
        mon.hasher(1).record("launch", 2)
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.maybe_check()
        v = exc.value
        assert v.shard_ids == [0, 1]
        assert v.shard_digests is not None
        assert len(set(v.shard_digests)) == 2


class TestLocalization:
    """LOCALIZE: one allgather + binary search pins the divergent call."""

    def _diverge_at(self, num_shards, culprit, idx, total, localize=True):
        mon = DeterminismMonitor(num_shards, batch=total, localize=localize)
        for shard in range(num_shards):
            for call in range(total):
                if shard == culprit and call == idx:
                    mon.hasher(shard).record("call", call, "divergent")
                else:
                    mon.hasher(shard).record("call", call)
        return mon

    def test_diagnosis_names_call_and_shard(self):
        mon = self._diverge_at(3, culprit=1, idx=5, total=12)
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.maybe_check()
        d = exc.value.diagnosis
        assert d is not None
        assert d.seq == 5
        assert d.divergent_shards == (1,)
        assert d.majority_digest == mon.hasher(0).calls[5]
        assert d.window == (0, 12)
        assert "shard 1" in d.summary()

    def test_recoincident_digests_still_localized(self):
        """Calls after the divergence hash identically again, so the
        search must run on prefix digests, not raw call digests
        (regression: raw digests are not prefix-monotone)."""
        mon = self._diverge_at(3, culprit=2, idx=0, total=10)
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.flush()
        d = exc.value.diagnosis
        assert d.seq == 0 and d.divergent_shards == (2,)

    def test_divergence_at_window_end(self):
        mon = self._diverge_at(2, culprit=1, idx=7, total=8)
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.flush()
        assert exc.value.diagnosis.seq == 7

    def test_localize_off_keeps_plain_violation(self):
        mon = self._diverge_at(2, culprit=1, idx=3, total=6, localize=False)
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.flush()
        assert exc.value.diagnosis is None
        assert exc.value.seq == 3

    def test_localization_charged_to_collectives(self):
        mon = self._diverge_at(3, culprit=1, idx=2, total=6)
        before = mon.collectives.stats.by_kind.get("allgather", 0)
        with pytest.raises(ControlDeterminismViolation):
            mon.flush()
        assert mon.collectives.stats.by_kind["allgather"] == before + 1


class TestShardSetManagement:
    """Quarantine/reset used by the DEGRADE and RESTART policies."""

    def test_quarantined_shard_is_not_compared(self):
        mon = DeterminismMonitor(3, batch=2)
        mon.quarantine(2)
        for shard in (0, 1):
            mon.hasher(shard).record("a")
            mon.hasher(shard).record("b")
        mon.flush()                          # shard 2 recorded nothing: fine
        assert mon.checks_performed == 1
        assert mon.active_shards == [0, 1]

    def test_cannot_quarantine_last_shard(self):
        mon = DeterminismMonitor(2)
        mon.quarantine(0)
        with pytest.raises(ValueError):
            mon.quarantine(1)

    def test_reset_shard_stalls_checks_until_caught_up(self):
        mon = DeterminismMonitor(2, batch=2)
        for shard in (0, 1):
            for call in ("a", "b"):
                mon.hasher(shard).record(call)
        mon.maybe_check()
        assert mon.checks_performed == 1
        mon.reset_shard(1)                   # fresh hasher, 0 calls
        mon.maybe_check()                    # must not underflow or raise
        assert mon.checks_performed == 1
        for call in ("a", "b"):
            mon.hasher(1).record(call)       # replica replays from scratch
        mon.hasher(0).record("c")
        mon.hasher(1).record("c")
        mon.flush()                          # only call "c" is new to check
        assert mon.checks_performed == 2


# -- golden digests: the canonical encoding is a compatibility contract ------

def _bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def golden_corpus():
    """(name, args, kwargs) cases; values are pure functions of the code."""
    mask = (1 << 64) - 1
    scattered = []
    i = 1
    while len(scattered) < 3000:
        v = _bits_to_float((i * 0x9E3779B97F4A7C15) & mask)
        i += 1
        if v == v and abs(v) != float("inf"):
            scattered.append(v)
    ramp = [k * 0.37 - 11.0 for k in range(1000)]
    specials = [0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0,
                0.5, 2.0 ** -1074, 2.0 ** 1023, 2.0 ** -1022, 0.1]
    return [
        ("short_tuple", ((1.0, 2.5, -3.25, 0.0, -0.0),), {}),
        ("len63_tuple", (tuple(ramp[:63]),), {}),
        ("len64_tuple", (tuple(ramp[:64]),), {}),
        ("len65_list", (ramp[:65],), {}),
        ("len1000_list", (ramp,), {}),
        ("len1000_tuple", (tuple(ramp),), {}),
        ("scattered_bits", (scattered,), {}),
        ("specials_scalars", tuple(specials), {}),
        ("specials_long", ((specials * 10),), {}),
        ("all_zero", ([0.0] * 100,), {}),
        ("all_negzero", ([-0.0] * 100,), {}),
        ("subnormals", ([_bits_to_float(k * 977 + 1) for k in range(200)],),
         {}),
        ("extreme_exponents",
         ([2.0 ** e for e in range(-1074, 1024, 7)]
          + [-(2.0 ** e) for e in range(-1022, 1024, 11)],), {}),
        ("with_inf", (ramp[:50] + [float("inf")] + ramp[50:100],), {}),
        ("with_neg_inf", (tuple(ramp[:80]) + (float("-inf"),),), {}),
        ("with_nan", (ramp[:70] + [float("nan")],), {}),
        ("inf_nan_scalars", (float("inf"), float("-inf"), float("nan")), {}),
        ("mixed_int_float", (tuple(k if k % 3 == 0 else k * 0.5
                                   for k in range(100)),), {}),
        ("bool_in_floats", (ramp[:40] + [True] + ramp[40:100],), {}),
        ("np_float64_elems", ([np.float64(v) for v in ramp[:100]],), {}),
        ("np_float64_one", (ramp[:60] + [np.float64(2.5)] + ramp[60:100],),
         {}),
        ("nested", ((1, (2.5, (ramp[:70], "s")), [ramp[:5]]),), {}),
        ("dict", ({"b": ramp[:90], "a": 1.5, 3: (None, True)},), {}),
        ("sets", ({1, 2, 3}, frozenset({"x", "y"}), {0.5, -0.0}), {}),
        ("bytes_str", (b"\x00\x01raw", "text", "", b""), {}),
        ("none_bool_int", (None, True, False, 0, -12345678901234567890), {}),
        ("kwargs", (ramp[:3],), {"payload": tuple(ramp[:200]), "n": 3}),
        ("empty", ((), [], {}), {}),
        ("list_of_payloads", ([tuple(ramp[:100]), tuple(ramp[:100]),
                               (8, 32)],), {}),
    ]


#: ``ShardHasher(0).record("op", *args, **kwargs)`` of each corpus case,
#: captured before the vectorized float path existed.  A change here means
#: the encoding changed and every recorded digest with it.
GOLDEN = {
    "short_tuple": "c1cc37a638e65dc712b20e76b65fed51",
    "len63_tuple": "9a2630d0025770c618fb7c4b7b45314e",
    "len64_tuple": "2803449d4ab49082bc11e18141c9724b",
    "len65_list": "0ffa7958b7d49cb639d7d96ece3e7078",
    "len1000_list": "813c3e2ffe8259e7fbaf72eab2db0ea3",
    "len1000_tuple": "813c3e2ffe8259e7fbaf72eab2db0ea3",
    "scattered_bits": "e0c0485fc920fe74ae720e3f8e02b5e8",
    "specials_scalars": "411988f3c7a52039e1cf57c08cfbc04b",
    "specials_long": "034a91578594771810c7712ac565138d",
    "all_zero": "e9e8e8e6c94329c91e9ce7106e310dec",
    "all_negzero": "4935cb354671d5a41b20e0c2ffaee58b",
    "subnormals": "e9f8dec3b2c38b0423443b7fa7917a4e",
    "extreme_exponents": "62f0cdd1b94da18993283a7e4d02cd4b",
    "with_inf": "dd7c830bf6ac6c1a6f90daa8d3b3459a",
    "with_neg_inf": "ffa8caaebc4adfd3f5e7bf69c2cdce4d",
    "with_nan": "def546a074cbe16388f1babd96b9532a",
    "inf_nan_scalars": "6f6d905d2aeb800d830d3fee29a9f9ec",
    "mixed_int_float": "10b9f1c0ab419f77f7f12b1a441bf645",
    "bool_in_floats": "9bca7b9684a21a2fd9a64fda26d0958c",
    "np_float64_elems": "a59011d16ee9f7e9b507c9ccd6141936",
    "np_float64_one": "7e4479eb9d7465d6340917ba429d132f",
    "nested": "fdb43a878466239875fe02f3012388c8",
    "dict": "fa7e0b38a958333e582bb391917878cd",
    "sets": "233020a5a2e4b639bc056429bb5fbffe",
    "bytes_str": "3019c85c5c894ee9d1b70086b415be2c",
    "none_bool_int": "5ea21d0e7e506a9a7494e3f945949451",
    "kwargs": "38066d1efab249e58037d55b2e1a21bd",
    "empty": "b3a9e6e51c403176d5c302c7cc9c8a1c",
    "list_of_payloads": "2cbfc4be4589e3a03538643602e57ce5",
}


def _reference(values):
    """The recursive encoding of a float sequence, one element at a time."""
    canon = ShardHasher(0)._canon
    return b"T(" + b",".join(canon(v) for v in values) + b")"


class TestGoldenDigests:
    @pytest.mark.parametrize("name,args,kwargs", golden_corpus(),
                             ids=[c[0] for c in golden_corpus()])
    def test_digest_pinned(self, name, args, kwargs):
        digest = ShardHasher(0).record("op", *args, **kwargs)
        assert "%032x" % digest == GOLDEN[name]

    def test_corpus_crosses_the_fast_path_threshold(self):
        lengths = {len(a) for _n, args, _k in golden_corpus() for a in args
                   if isinstance(a, (tuple, list))}
        assert FAST_FLOATS_MIN - 1 in lengths
        assert FAST_FLOATS_MIN in lengths
        assert max(lengths) > determinism._CHUNK // 4

    def test_digests_equal_through_a_shared_memo(self):
        """Hashing every case twice through one monitor (the second time
        from the memo) reproduces the pinned digests."""
        mon = DeterminismMonitor(2)
        for shard in (0, 1):
            for name, args, kwargs in golden_corpus():
                hasher = ShardHasher(shard, memo=mon.memo)
                digest = hasher.record("op", *args, **kwargs)
                assert "%032x" % digest == GOLDEN[name], (shard, name)


floats_any = st.floats(allow_nan=True, allow_infinity=True,
                       allow_subnormal=True, width=64)
bit_patterns = st.integers(0, 2 ** 64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])


class TestFastPathMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(floats_any, bit_patterns), max_size=300))
    def test_vectorized_bytes_equal_recursive(self, values):
        expected = _reference(values)
        finite = all(abs(v) != float("inf") and v == v for v in values)
        assert encode_float_seq(values) == (expected if finite else None)
        assert encode_float_seq(tuple(values)) == encode_float_seq(values)
        assert ShardHasher(0)._canon(values) == expected

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=64),
                    min_size=FAST_FLOATS_MIN, max_size=200))
    def test_finite_lists_take_the_memo(self, values):
        memo = CanonMemo()
        hasher = ShardHasher(0, memo=memo)
        assert hasher._canon(values) == _reference(values)
        assert len(memo._entries) == 1

    def test_chunk_boundaries(self, monkeypatch):
        values = [(-1.0) ** k * 2.0 ** (k - 60) for k in range(123)]
        values[7] = -0.0
        values[8] = 5e-324
        for chunk in (1, 2, 5, 7, 8, 122, 123, 124):
            monkeypatch.setattr(determinism, "_CHUNK", chunk)
            assert encode_float_seq(values) == _reference(values), chunk

    @pytest.mark.parametrize("odd", [1, True, np.float64(2.0), "x", None,
                                     float("inf"), float("nan")])
    def test_non_float_or_non_finite_element(self, odd):
        values = [0.25 * k for k in range(FAST_FLOATS_MIN + 5)]
        values[FAST_FLOATS_MIN // 2] = odd
        expected = b"T(" + b",".join(ShardHasher(0)._canon(v)
                                     for v in values) + b")"
        assert ShardHasher(0)._canon(values) == expected

    def test_tables_are_built_on_first_use(self):
        code = ("import repro.core.determinism as d, repro.runtime;"
                "assert d._tables is None;"
                "d.encode_float_seq([1.0]); assert d._tables is not None")
        subprocess.run([sys.executable, "-c", code], check=True)


class TestCanonMemo:
    def test_shared_by_a_monitors_hashers(self):
        mon = DeterminismMonitor(3)
        payload = tuple(0.5 * k for k in range(1000))
        for shard in range(3):
            mon.hasher(shard).record("launch", list(payload))
        assert len(mon.memo._entries) == 1
        assert len({h.calls[0] for h in mon.hashers}) == 1
        mon.reset_shard(1)
        assert mon.hasher(1).memo is mon.memo

    def test_keyed_by_bit_pattern_not_equality(self):
        memo = CanonMemo()
        hasher = ShardHasher(0, memo=memo)
        pos = [0.0] * 100
        neg = [-0.0] * 100
        assert hasher._canon(pos) == _reference(pos)
        assert hasher._canon(neg) == _reference(neg)
        assert hasher._canon(neg) != hasher._canon(pos)
        assert len(memo._entries) == 2

    def test_bounded_in_bytes(self, monkeypatch):
        monkeypatch.setattr(determinism, "_MEMO_BYTES", 4000)
        memo = CanonMemo()
        hasher = ShardHasher(0, memo=memo)
        for k in range(20):
            values = [k + 0.125 * i for i in range(100)]
            assert hasher._canon(values) == _reference(values)
        assert 0 < len(memo._entries) < 20
        assert memo._bytes <= 4000

    def test_standalone_hashers_do_not_share(self):
        assert ShardHasher(0).memo is not ShardHasher(1).memo


class _Temp:
    """A resource with no uid: interned by object identity."""


class TestInterningIndependentOfGC:
    def test_freed_temporaries_do_not_alias(self):
        """One shard drops each temporary right after recording it (so
        CPython can hand the next one the same address); another keeps
        all 50 alive.  Both issued the same logical calls."""
        freeing, keeping = ShardHasher(0), ShardHasher(1)
        for _ in range(50):
            freeing.record("use", _Temp())
        gc.collect()
        alive = [_Temp() for _ in range(50)]
        for obj in alive:
            keeping.record("use", obj)
        assert stream_digest(freeing.calls) == stream_digest(keeping.calls)

    def test_numbering_is_first_use_order(self):
        a, b = _Temp(), _Temp()
        hasher = ShardHasher(0)
        assert [hasher.intern(o) for o in (a, b, a, b)] == [0, 1, 0, 1]
