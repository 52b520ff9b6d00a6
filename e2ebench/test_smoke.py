"""Smoke tests for the end-to-end benchmark, at tiny sizes.

Run from the repository root::

    python3 -m pytest e2ebench -q

They check the benchmark's contract, not the system's speed: every
metric printed is declared in ``BENCHMARK.json`` (and vice versa), a
deliberately wrong reference fails every program, no process outlives a
run, and the benchmark refuses to run without the sources it measures.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"), "--seed", "3",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_workloads_exist():
    # service-mix runs by name but is not declared: too unsteady on a
    # 2-CPU shared host to gate on (see README.md).
    declared = [w["name"] for w in SPEC["workloads"]]
    assert declared == [w for w in WORKLOADS if w != "service-mix"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_printed_metrics_match_spec(workload, trace):
    proc = run_bench("--workload", workload, "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


@pytest.mark.parametrize("workload", ["stencil-inproc", "service-mix"])
def test_wrong_reference_fails_every_program(workload):
    proc = run_bench("--workload", workload, "--trace", "0", "--tiny",
                     "--break-reference")
    assert proc.returncode != 0
    result = last_json(proc)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "error_rate 1 ratio" in proc.stdout


def _session_members(sid):
    """Pids of every process (zombies too) in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat[stat.rfind(")") + 2:].split()[3]) == sid:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("trace", [0, 1])
def test_no_process_outlives_the_run(trace):
    # stencil-shm forks replicas and, through the shared-memory fabric,
    # starts multiprocessing's resource tracker in the run and in every
    # set-up probe; none may still exist once the run has exited.
    proc = subprocess.Popen(
        [sys.executable, os.path.join("e2ebench", "run.py"), "--seed", "3",
         "--seconds", "1", "--workload", "stencil-shm", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
    assert proc.wait(timeout=170) == 0
    assert _session_members(proc.pid) == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "stencil-inproc", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
