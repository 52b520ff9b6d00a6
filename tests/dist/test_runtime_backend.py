"""Runtime(backend=...) and DCRModel(backend=...): multiprocess wiring.

The checks every gang backend shares live in
``tests/runtime/test_gang_backends.py``.
"""

import json
import multiprocessing
import os

import pytest

from repro.models import DCRModel
from repro.runtime import Runtime
from repro.sim import MachineSpec


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


def test_multiprocess_replicas_are_separate_processes():
    rt = Runtime(num_shards=3, backend="multiprocess")
    rt.execute(stencil_control)
    pids = {rep["pid"] for rep in rt.replica_reports if "pid" in rep}
    # Reports may omit pid; fall back to counting reports.
    assert len(rt.replica_reports) == 2
    assert os.getpid() not in pids
    assert not [p for p in multiprocessing.active_children()
                if p.name.startswith("repro-replica-")]


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        Runtime(num_shards=2, backend="carrier-pigeon")
    with pytest.raises(ValueError, match="backend must be"):
        DCRModel(MachineSpec("m", nodes=4, cpus_per_node=1,
                             gpus_per_node=1), backend="carrier-pigeon")


def _sim_chain(points=16, iters=8, warm=2):
    from repro.sim import DepSpec, ProcKind, SimOp, SimProgram

    prog = SimProgram("chain")
    prog.work_per_iteration = 1.0
    prev = None
    for it in range(warm + iters):
        start = prog.begin_iteration() if it >= warm else None
        deps = ([DepSpec(prev, "halo", 4096, (-1, 1))]
                if prev is not None else [])
        prev = prog.add(SimOp(f"s[{it}]", points, 1e-7, deps=deps,
                              proc_kind=ProcKind.CPU, fence=True,
                              traced=False))
        if it >= warm:
            prog.end_iteration(start)
    return prog


def test_dcr_model_multiprocess_charges_ipc():
    m = MachineSpec("m", nodes=16, cpus_per_node=1, gpus_per_node=1)
    inproc = DCRModel(m, backend="inprocess").run(_sim_chain())
    multiproc = DCRModel(m, backend="multiprocess").run(_sim_chain())
    # IPC surcharges (per-hop and per-call) make the same program slower.
    assert multiproc.iteration_time > inproc.iteration_time


def test_cli_smoke(tmp_path):
    from repro.tools.dist import main

    report = tmp_path / "report.json"
    code = main(["--shards", "3", "--tiles", "6", "--steps", "2",
                 "--batch", "8", "--verify", "--json", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["conformant"] is True
    assert payload["num_shards"] == 3
    assert len(payload["shards"]) == 3
    assert len({s["pid"] for s in payload["shards"]}) == 3
    assert not [p for p in multiprocessing.active_children()
                if p.name.startswith("repro-shard-")]


def test_cli_loopback_with_profiles(tmp_path):
    from repro.tools.dist import main

    prof_dir = tmp_path / "prof"
    code = main(["--shards", "2", "--tiles", "4", "--steps", "1",
                 "--backend", "loopback", "--profile-dir", str(prof_dir)])
    assert code == 0
    profiles = sorted(p.name for p in prof_dir.iterdir())
    assert any(name.endswith(".profile.json") for name in profiles)
    assert any(name.endswith(".chrome.json") for name in profiles)


def test_cli_rejects_bad_shard_count(capsys):
    from repro.tools.dist import main

    assert main(["--shards", "0"]) == 1
    assert "--shards" in capsys.readouterr().err
