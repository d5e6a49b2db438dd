"""Tests of the benchmark itself. From the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

assert bench.import_package() is None

import child  # noqa: E402
import routes  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _tiny(workload, timeout):
    """The workload's first instance at 2,000 symbols."""
    wl = bench.WORKLOADS[workload]
    inst = wl.instances[0]
    small = dataclasses.replace(inst, spec=dict(inst.spec, n=2000))
    return bench.Workload(timeout, 200, (small,))


def _write_tiny(workload, seed, directory):
    directory.mkdir(parents=True, exist_ok=True)
    for inst in bench.WORKLOADS[workload].instances:
        (directory / (inst.name + ".txt")).write_text(bench.gen.make_text(inst.spec, seed))


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload; set-up writes in-process, and no recorded
    digests apply to the shrunken inputs."""
    workloads = {name: _tiny(name, 0.5 if name == "wall" else 5.0) for name in bench.WORKLOADS}
    monkeypatch.setattr(bench, "WORKLOADS", workloads)

    def set_up(workload, seed, work):
        _write_tiny(workload, seed, work / "inputs0")
        return 0.01, work / "inputs0", True

    monkeypatch.setattr(bench, "set_up", set_up)
    monkeypatch.setattr(bench, "load_expected", lambda workload, seed: {})


def _benchmark_json():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_same_seed_writes_identical_files(tmp_path):
    for name in ("a", "b"):
        bench.write_inputs("many-hist", 7, tmp_path / name)
    bench.write_inputs("many-hist", 8, tmp_path / "c")
    for inst in bench.WORKLOADS["many-hist"].instances:
        a, b, c = ((tmp_path / d / (inst.name + ".txt")).read_bytes() for d in "abc")
        assert a == b
        assert a != c


def test_set_up_repeats_and_checks_bytes(tmp_path):
    seconds, inputs, same = bench.set_up("many-hist", 3, tmp_path)
    assert same and seconds > 0
    assert sorted(p.name for p in inputs.iterdir()) == sorted(
        i.name + ".txt" for i in bench.WORKLOADS["many-hist"].instances)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_workload(tiny, tmp_path, workload, trace):
    result, notes, _ = bench.run(workload, 1, 0, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(bench.ROUTES) * (1 + trace)
    listed = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert UNIT.fullmatch(metric["unit"])
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_names_and_units():
    spec = _benchmark_json()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def _cssr_call(tmp_path):
    inputs = tmp_path / "in"
    _write_tiny("many-hist", 2, inputs)
    (tmp_path / "out").mkdir()
    calls = bench.make_calls("many-hist", 2, inputs, tmp_path / "out", traced=False)
    return [c for c in calls if c["route"] == "cssr"][:1]


def test_perturbed_expected_digest_is_a_failure(tmp_path):
    calls = _cssr_call(tmp_path)
    (ok,) = bench.check_pass(bench.run_pass(calls, routes.UNTRACED.get, 5.0), {})
    assert "fail" not in ok
    key = bench._key(ok)
    digest = ok["outputs"]["json"]
    wrong = {key: {"outputs": {"json": digest[:-1] + ("0" if digest[-1] != "0" else "1")}}}
    (again,) = bench.check_pass(bench.run_pass(calls, routes.UNTRACED.get, 5.0), wrong)
    assert "differs from the seed commit" in again["fail"] and again["broken"]
    assert bench.charged(again, 5.0) == 5.0


def test_traced_decomposition_reproduces_cli_bytes(tmp_path):
    calls = _cssr_call(tmp_path)
    (cli,) = bench.run_pass(calls, routes.UNTRACED.get, 5.0)
    traced_calls = [dict(c, out=c["out"] + ".traced") for c in calls]
    (traced,) = bench.check_pass(
        bench.run_pass(traced_calls, lambda route: routes.traced, 5.0), {}, [cli], False)
    assert "fail" not in traced and traced["outputs"] == cli["outputs"]
    assert {s["name"] for s in traced["spans"]} >= {"call", "cssr.cssr_split"}


def _spin(arg, timer):
    with timer:
        while True:
            pass


def _exit_without_reply(arg, timer):
    os._exit(3)


def _raise_untyped(arg, timer):
    with timer:
        raise ValueError("not one of the package's errors")


def _ignore_timer(arg, timer):
    with timer:
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        time.sleep(30)


def _typed_error(arg, timer):
    return {"status": "error", "error": "error: more than 1 exact covers", "seconds": 0.01}


def _as_result(reply, route="ip"):
    reply.update(instance="x", route=route)
    return bench.check_pass([reply], {})[0]


def test_timeout_fails_the_call_and_charges_the_timeout():
    r = _as_result(child.run_in_child(_spin, None, 0.2))
    assert r["status"] == "timeout" and r["fail"] == "timeout" and not r["broken"]
    assert 0.2 <= bench.charged(r, 0.2) < 1.0


def test_child_without_reply_is_recorded_not_raised():
    r = _as_result(child.run_in_child(_exit_without_reply, None, 5.0))
    assert r["status"] == "died" and r["broken"]
    assert bench.charged(r, 5.0) == 5.0


def test_untyped_exception_is_a_crash():
    r = _as_result(child.run_in_child(_raise_untyped, None, 5.0))
    assert r["status"] == "crash" and r["broken"]
    assert r["fail"].endswith("ValueError: not one of the package's errors")


def test_child_past_hard_deadline_is_killed():
    t0 = time.monotonic()
    r = _as_result(child.run_in_child(_ignore_timer, None, 0.1, grace=0.3))
    assert time.monotonic() - t0 < 5
    assert r["status"] == "killed" and r["broken"]
    assert bench.charged(r, 0.1) == 0.1


def test_typed_error_keeps_its_text_and_charges_the_timeout():
    r = _as_result(child.run_in_child(_typed_error, None, 2.0), route="clique")
    assert r["fail"] == "error error: more than 1 exact covers" and not r["broken"]
    assert bench.charged(r, 2.0) == 2.0


def test_without_the_package_the_benchmark_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_successful_call_is_charged_in_reference_seconds():
    import calib

    r = _as_result(child.run_in_child(_typed_error, None, 2.0), route="clique")
    assert r["cal_s"] > 0
    ok = {"status": "ok", "seconds": 0.3, "cal_s": 2 * calib.REFERENCE_S}
    assert bench.charged(ok, 2.0) == pytest.approx(0.15)
    assert bench._measured(dict(ok, status="timeout")) == 0.3
