"""The loopback backend: threaded replicas over the in-memory fabric.

Every replica runs the full distributed checking protocol on its own
thread through a LoopbackFabric, sharing the driver's logs directly.  The
checks every gang backend shares (result parity, single-shard short
circuit, divergence, resilience refusal) live in
``tests/runtime/test_gang_backends.py``; this module keeps what is
specific to threaded replicas.
"""

import numpy as np
import pytest

from repro.legate.fuzz import run_deferred, run_numpy
from repro.runtime import Runtime


def test_loopback_rejects_timing_oracle():
    with pytest.raises(ValueError, match="timing_oracle"):
        Runtime(num_shards=2, backend="loopback",
                timing_oracle=lambda shard, fut: True)


def test_determinism_digests_match_other_backends():
    """The digest API reports one digest per shard, equal across the
    three backends for the same control program."""
    program = [
        {"op": "create", "shape": [2, 3], "values": [1, 2, 3, 4, 5, 6]},
        {"op": "transpose", "src": 0},
        {"op": "sum", "src": 1, "axis": 0},
        {"op": "sum", "src": 2, "axis": None},
    ]
    ref = run_numpy(program)
    vectors = {}
    for backend in ("inprocess", "loopback", "multiprocess"):
        got, digests = run_deferred(program, num_shards=3, backend=backend)
        assert len(digests) == 3
        assert len(set(digests)) == 1
        for a, b in zip(ref["arrays"], got["arrays"]):
            assert np.array_equal(a, b)
        vectors[backend] = tuple(digests)
    assert len(set(vectors.values())) == 1


def test_loopback_drains_deferred_frees():
    """Drain hooks (the field manager's flush) run on the loopback path."""
    from repro.legate import LegateContext

    def control(ctx):
        lg = LegateContext(ctx, num_tiles=2)
        t = lg.from_values(np.arange(4.0)) + 1.0
        out = t.to_numpy()
        return out, lg.fields

    (out, fields) = Runtime(num_shards=2, backend="loopback").execute(control)
    assert np.array_equal(out, np.arange(4.0) + 1.0)
    assert fields.pooled == fields.released  # nothing stuck pending
