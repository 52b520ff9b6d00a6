"""Runtime(backend=...) on every gang backend.

The loopback backend (threaded replicas over the in-memory fabric) and
the process backends (forked replicas over pipes, shared-memory rings or
sockets) share one execute path, so each check here runs on all of them.
The fuzz tier leans on loopback for cross-backend digest comparison, so
parity with the process backends is load-bearing.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.determinism import ControlDeterminismViolation
from repro.dist.runner import BACKENDS
from repro.dist.transport import PROCESS_BACKENDS
from repro.obs.profiler import Profiler
from repro.regions import fresh_id_epoch
from repro.resilience import RecoveryPolicy, ResilienceConfig
from repro.runtime import Runtime

#: The summary every replica ships back, whatever its backend.
REPORT_KEYS = {"shard", "calls", "checks", "stream_digest", "frames_sent",
               "frames_received"}


def stencil_control(ctx):
    fs = ctx.create_field_space([("x", "f8")])
    r = ctx.create_region(ctx.create_index_space(16), fs, "r")
    tiles = ctx.partition_equal(r, 4)
    ctx.fill(r, "x", 1.0)

    def bump(point, arg):
        arg["x"].view[...] += 1.0
        return float(arg["x"].view.sum())

    for _ in range(2):
        ctx.index_launch(bump, range(4), [(tiles, "x", "rw")])
    fm = ctx.index_launch(lambda p, arg: float(arg["x"].view.sum()),
                          range(4), [(tiles, "x", "ro")])
    return fm.reduce(lambda a, b: a + b)


def divergent_control(ctx):
    fs = ctx.create_field_space([("x", "f8")])
    r = ctx.create_region(ctx.create_index_space(8), fs, "r")
    # Shard-dependent control flow: the canonical determinism violation.
    ctx.fill(r, "x", float(ctx.shard))
    return None


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("num_shards", [2, 3, 4])
def test_result_parity(backend, num_shards):
    ref = Runtime(num_shards=num_shards).execute(stencil_control)
    rt = Runtime(num_shards=num_shards, backend=backend, check_batch=4)
    assert rt.execute(stencil_control) == ref
    # Every replica verified the driver's call stream over the backend's
    # transport, on its own thread or in its own process.
    assert len(rt.replica_reports) == num_shards - 1
    assert len({rep["stream_digest"] for rep in rt.replica_reports}) == 1
    assert all(set(rep) == REPORT_KEYS for rep in rt.replica_reports)
    assert all(rep["frames_sent"] > 0 for rep in rt.replica_reports)
    assert all(rep["checks"] > 0 for rep in rt.replica_reports)
    assert rt.dist_checks > 0
    assert rt.replica_profiles == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_shard_short_circuits(backend):
    rt = Runtime(num_shards=1, backend=backend)
    assert rt.execute(stencil_control) == \
        Runtime(num_shards=1).execute(stencil_control)
    assert rt.replica_reports == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_divergence_raises(backend):
    rt = Runtime(num_shards=3, backend=backend, check_batch=2)
    with pytest.raises(ControlDeterminismViolation) as exc:
        rt.execute(divergent_control)
    assert "diverg" in str(exc.value).lower()
    assert not [p for p in multiprocessing.active_children()
                if p.name.startswith("repro-replica-")]


@pytest.mark.parametrize("backend", BACKENDS)
def test_rejects_resilience(backend):
    with pytest.raises(ValueError, match="does not support recovery"):
        Runtime(num_shards=2, backend=backend,
                resilience=ResilienceConfig(policy=RecoveryPolicy.DEGRADE))


@pytest.mark.parametrize("backend", PROCESS_BACKENDS)
def test_process_backends_accept_timing_oracle(backend):
    # Only loopback refuses an oracle (its replica threads race on the
    # shard it dispatches on); a forked replica owns its runtime copy.
    rt = Runtime(num_shards=2, backend=backend,
                 timing_oracle=lambda shard, fut: True)
    assert rt.execute(stencil_control) == \
        Runtime(num_shards=2).execute(stencil_control)


@pytest.mark.parametrize("backend", BACKENDS)
def test_replica_profiles_only_from_forked_replicas(backend):
    rt = Runtime(num_shards=3, backend=backend,
                 profiler=Profiler(enabled=True))
    rt.execute(stencil_control)
    # Loopback replicas profile into the driver's own profiler; forked
    # replicas ship a snapshot of theirs back with the report.
    expected = 0 if backend == "loopback" else 2
    assert len(rt.replica_profiles) == expected
    assert all(set(rep) == REPORT_KEYS for rep in rt.replica_reports)


@pytest.mark.parametrize("coalesce", [1, 2, 8])
def test_coalesced_checks_agree_across_backends(coalesce):
    """Every gang backend honours check_coalesce on every rank.

    Regression: loopback replicas once built their monitors without
    ``coalesce`` while the driver rank coalesced, so any coalesce > 1
    raised a false unequal-call-count violation on a deterministic
    program.
    """
    from repro.legate import make_wave, sliced_stencil

    init = make_wave(128)

    def control(ctx):
        return sliced_stencil(ctx, init, 3, 4)

    def run(backend):
        rt = Runtime(num_shards=2, backend=backend, check_batch=4,
                     check_coalesce=coalesce)
        with fresh_id_epoch():
            out = rt.execute(control)
        return rt, out

    ref, ref_out = run("inprocess")
    checks = {}
    for backend in BACKENDS:
        rt, out = run(backend)
        assert np.array_equal(out, ref_out), backend
        digests = rt.determinism_digests()
        assert len(set(digests)) == 1, backend
        assert digests == ref.determinism_digests(), backend
        checks[backend] = rt.dist_checks
    assert len(set(checks.values())) == 1, checks


def test_shm_replica_exit_fails_run_without_orphans():
    """A replica process that dies mid-replay fails the run and is reaped."""
    parent = os.getpid()

    def control(ctx):
        if os.getpid() != parent:
            os._exit(3)  # the forked replica dies without a report
        return stencil_control(ctx)

    rt = Runtime(num_shards=2, backend="shm", check_batch=4)
    with pytest.raises(RuntimeError, match="shard 1"):
        rt.execute(control)
    assert not [p for p in multiprocessing.active_children()
                if p.name.startswith("repro-replica-")]
