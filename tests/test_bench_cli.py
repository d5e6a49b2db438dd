"""Benchmark harness and the command line front end."""

import io
import json
import os
import sys
from collections import Counter

import numpy as np
import pytest

from minpfsa import (
    Alphabet,
    BenchConfig,
    CSV_HEADER,
    FormatError,
    build_machine,
    compatibility_graph,
    cssr_split,
    gen_fixture,
    parse_bench_config,
    random_machine,
    run_bench,
    write_csv,
)
from minpfsa import bench
from minpfsa.cli import main

FULL_CONFIG = """\
# benchmark grid
methods = cssr, clique
alphabets = 2, 3
lengths = 50, 100   # per alphabet
reps = 2
seed = 11
L = 2
alpha = 0.01
test = chi2
timeout = 30
"""


def test_parse_bench_config_full():
    cfg = parse_bench_config(FULL_CONFIG)
    assert cfg == BenchConfig(
        methods=("cssr", "clique"), alphabets=(2, 3), lengths=(50, 100),
        reps=2, seed=11, L=2, alpha=0.01, test="chi2", timeout=30.0,
    )


def test_parse_bench_config_defaults():
    assert parse_bench_config("") == BenchConfig()


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("reps 3", "line 1"),
        ("colour = red", "unknown key"),
        ("methods = cssr, fancy", "unknown method"),
        ("lengths = 10\nreps = x", "line 2"),
    ],
)
def test_parse_bench_config_rejects(text, fragment):
    with pytest.raises(FormatError) as err:
        parse_bench_config(text)
    assert fragment in str(err.value)


def test_bench_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(reps=0)
    with pytest.raises(ValueError):
        BenchConfig(lengths=(100, 10))


def test_random_machine_structure():
    rng = np.random.default_rng(2)
    alphabet = Alphabet(("0", "1", "2"))
    m = random_machine(rng, 4, alphabet)
    assert m.num_states == 4
    assert m.start_state == 0
    rows = m.prob_rows()
    assert np.allclose(rows.sum(axis=1), 1.0)
    assert (rows > 0).all()
    for (j, a), targets in m.delta.items():
        assert len(targets) == 1
        assert 0 <= next(iter(targets)) < 4


SMALL = BenchConfig(
    methods=("cssr", "ip", "clique"), alphabets=(2,), lengths=(30, 60),
    reps=2, seed=7, timeout=60.0,
)


def test_run_bench_grid():
    rows = run_bench(SMALL)
    assert len(rows) == 3 * 1 * 2 * 2
    keys = [(r["method"], r["alphabet"], r["length"], r["rep"]) for r in rows]
    assert keys == sorted(keys)
    allowed = {"ok", "timeout", "error", "mismatch", "cssr_below_ip"}
    by_point = {}
    for r in rows:
        assert r["flag"] in allowed
        by_point.setdefault((r["length"], r["rep"]), {})[r["method"]] = r
    for point in by_point.values():
        ip, cssr_row, clique = point["ip"], point["cssr"], point["clique"]
        if ip["flag"] == "ok":
            if cssr_row["flag"] == "ok":
                assert cssr_row["states"] >= ip["states"]
            elif cssr_row["flag"] == "cssr_below_ip":
                assert cssr_row["states"] < ip["states"]
            if clique["flag"] == "mismatch":
                assert clique["states"] != ip["states"]
            elif clique["flag"] == "ok":
                assert clique["states"] == ip["states"]


def test_run_bench_is_deterministic_up_to_timing():
    def strip(rows):
        return [
            (r["method"], r["alphabet"], r["length"], r["rep"], r["states"], r["flag"])
            for r in rows
        ]

    assert strip(run_bench(SMALL)) == strip(run_bench(SMALL))


def test_run_bench_timeout_flag():
    cfg = BenchConfig(
        methods=("cssr",), alphabets=(2,), lengths=(30,), reps=1,
        seed=7, timeout=1e-4,
    )
    rows = run_bench(cfg)
    assert len(rows) == 1
    assert rows[0]["flag"] == "timeout"
    assert rows[0]["states"] == -1
    assert rows[0]["seconds"] == pytest.approx(1e-4)


def test_run_bench_child_death_flags_error(monkeypatch):
    # the forked child inherits the patch and exits before it can reply
    monkeypatch.setattr(bench, "_run_point", lambda cfg_point: os._exit(3))
    cfg = BenchConfig(
        methods=("cssr", "ip"), alphabets=(2,), lengths=(30,), reps=1,
        seed=7, timeout=30.0,
    )
    rows = run_bench(cfg)
    assert [(r["method"], r["flag"], r["states"]) for r in rows] == [
        ("cssr", "error", -1), ("ip", "error", -1),
    ]


def test_write_csv():
    rows = [
        dict(method="cssr", alphabet=2, length=30, rep=0,
             seconds=0.1234567, states=3, flag="ok"),
    ]
    buf = io.StringIO()
    write_csv(rows, buf, meta="seed=7")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# seed=7"
    assert lines[1] == CSV_HEADER
    assert lines[2] == "cssr,2,30,0,0.123457,3,ok"
    buf = io.StringIO()
    write_csv(rows, buf)
    assert buf.getvalue().splitlines()[0] == CSV_HEADER


# ---------------------------------------------------------------------------
# command line


@pytest.fixture()
def fixture_file(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text(gen_fixture().text() + "\n")
    return str(path)


def test_cli_gen_fixture(tmp_path):
    out = tmp_path / "seq.txt"
    assert main(["gen-fixture", "--out", str(out)]) == 0
    text = out.read_text()
    assert text == gen_fixture().text() + "\n"
    assert len(text) == 649


def test_cli_gen_fixture_stdout(capsys):
    assert main(["gen-fixture"]) == 0
    assert capsys.readouterr().out == gen_fixture().text() + "\n"


def test_cli_infer_json(fixture_file, tmp_path):
    out = tmp_path / "machine.json"
    lp = tmp_path / "model.lp"
    code = main([
        "infer", "--in", fixture_file, "--method", "clique",
        "--out", str(out), "--lp", str(lp),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["states"]) == 3
    assert doc["alphabet"] == ["0", "1"]
    assert lp.read_text().startswith("Minimize")


def test_cli_infer_dot(fixture_file, capsys):
    # default method is cssr, so the 00 history keeps its own state and
    # its unmerged emission probability
    assert main(["infer", "--in", fixture_file, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert 'label="0/0.9314"' in out
    assert 'label="0/1.0000"' in out


def test_cli_infer_methods_agree_on_fixture(fixture_file, capsys):
    counts = {}
    for method in ("cssr", "ip", "clique"):
        assert main(["infer", "--in", fixture_file, "--method", method]) == 0
        doc = json.loads(capsys.readouterr().out)
        counts[method] = len(doc["states"])
    assert counts == {"cssr": 4, "ip": 3, "clique": 3}


@pytest.mark.parametrize("method", ["ip", "clique"])
def test_cli_infer_lp_runs_each_step_once(method, fixture_file, tmp_path, monkeypatch):
    calls = Counter()
    counted = {f.__name__: f for f in (compatibility_graph, cssr_split, build_machine)}
    for name, module in list(sys.modules.items()):
        if not name.startswith("minpfsa."):
            continue
        for fname, fn in counted.items():
            if getattr(module, fname, None) is fn:
                def wrapper(*args, _fname=fname, _fn=fn, **kwargs):
                    calls[_fname] += 1
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, fname, wrapper)
    code = main([
        "infer", "--in", fixture_file, "--method", method,
        "--out", str(tmp_path / "machine.json"), "--lp", str(tmp_path / "model.lp"),
    ])
    assert code == 0
    assert calls == {"compatibility_graph": 1, "build_machine": 1}


def test_cli_graph(fixture_file, capsys):
    assert main(["graph", "--in", fixture_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["# 0 00", "# 1 01", "# 2 11", "# 3 10", "0 3", "2 3"]


def test_cli_bench(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("methods = cssr\nalphabets = 2\nlengths = 30\nreps = 1\nseed = 3\n")
    out = tmp_path / "results.csv"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# sources: random 2-4 state machines, seed=3, test=freeman-tukey, L=2"
    assert lines[1] == CSV_HEADER
    assert len(lines) == 3
    assert lines[2].startswith("cssr,2,30,0,")


def test_cli_missing_input_returns_one(tmp_path, capsys):
    assert main(["infer", "--in", str(tmp_path / "absent.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_bad_config_returns_one(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("colour = red\n")
    assert main(["bench", "--config", str(cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_cli_usage_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["infer"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
    for bad in (["--alpha", "0"], ["--alpha", "1"], ["--alpha", "1.5"],
                ["--alpha", "nan"], ["--alpha", "x"], ["--L", "-1"]):
        for command in ("infer", "graph"):
            with pytest.raises(SystemExit) as err:
                main([command, "--in", "unused.txt"] + bad)
            assert err.value.code == 2
