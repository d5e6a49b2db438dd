"""Benchmark harness and the command line front end."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minpfsa import (
    Alphabet,
    BenchConfig,
    CSV_HEADER,
    FormatError,
    TestConfig,
    build_ip_model,
    build_machine,
    compatibility_graph,
    count_windows,
    cssr_split,
    gen_fixture,
    parse_bench_config,
    parse_sequence,
    random_machine,
    run_bench,
    sample,
    succ_table,
    to_lp_text,
    write_csv,
)
from minpfsa import bench, cli
from minpfsa.cli import COMMANDS, build_parser, infer, main

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
        ("reps = 0", "reps must be at least 1"),
        ("lengths = 100, 10", "lengths must be positive and ascending"),
        ("lengths = 0, 10", "lengths must be positive and ascending"),
        ("alphabets = 2, 0", "alphabets must be at least 1"),
        ("L = -1", "L must be non-negative"),
        ("timeout = 0", "timeout must be positive"),
        ("timeout = inf", "timeout must be positive and finite"),
        ("timeout = nan", "timeout must be positive and finite"),
        ("seed = -1", "seed must be non-negative"),
        ("test = bogus", "unknown test"),
        ("alpha = 2", "alpha must be in (0, 1)"),
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


def test_run_bench_times_the_sampled_sequence(monkeypatch):
    # symbols of two or more digits must reach the child as sampled
    monkeypatch.setattr(bench, "_run_point", lambda cfg_point: (0.0, len(cfg_point[1])))
    cfg = BenchConfig(methods=("cssr",), alphabets=(12,), lengths=(200,), reps=1, seed=3)
    rows = run_bench(cfg)
    assert [(r["flag"], r["states"]) for r in rows] == [("ok", 200)]


def test_run_bench_overrun_reply_flags_timeout(monkeypatch):
    # the child replies in time for the poll but measured more than the timeout
    monkeypatch.setattr(bench, "_run_point", lambda cfg_point: (1.0, 3))
    cfg = BenchConfig(methods=("cssr",), alphabets=(2,), lengths=(30,), reps=1,
                      seed=7, timeout=0.5)
    rows = run_bench(cfg)
    assert [(r["flag"], r["states"], r["seconds"]) for r in rows] == [("timeout", -1, 0.5)]


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


@pytest.mark.parametrize("method", ["cssr", "ip", "clique"])
def test_infer_at_L0_is_one_state_looping_on_each_symbol(method):
    wc = count_windows(parse_sequence("0110201101", "chars"), 0)
    machine, _ = infer(wc, method, TestConfig())
    assert machine.states == (((),),)
    assert machine.delta == {(0, a): frozenset({0}) for a in range(3)}
    assert len(sample(machine, 50, seed=1)) == 50


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


@pytest.fixture()
def wide_file(tmp_path):
    """1500 symbols of a 3-state source over three symbols."""
    source = random_machine(np.random.default_rng(0), 3, Alphabet(("0", "1", "2")))
    path = tmp_path / "wide.txt"
    path.write_text(sample(source, 1500, 0).text() + "\n")
    return str(path)


@pytest.mark.parametrize("source,L,n", [("fixture_file", 2, 4), ("wide_file", 3, 27)])
def test_cli_lp_is_the_model_text(source, L, n, request, tmp_path, capsys):
    path = request.getfixturevalue(source)
    with open(path) as fh:
        wc = count_windows(parse_sequence(fh.read(), "chars"), L)
    graph = compatibility_graph(wc, TestConfig())
    assert len(graph.vertices) == n
    expect = to_lp_text(build_ip_model(graph, succ_table(wc, graph.vertices))).splitlines(True)
    argv = ["infer", "--in", path, "--L", str(L), "--out", str(tmp_path / "machine.json")]
    # the model depends only on the graph and wc.succ, so every route writes
    # the same bytes, cssr's too, which builds the graph only for --lp
    lp = {}
    for method in ("ip", "cssr", "clique"):
        lp[method] = tmp_path / ("%s.lp" % method)
        assert main(argv + ["--method", method, "--lp", str(lp[method])]) == 0
    assert lp["ip"].read_text().splitlines(True) == expect
    assert lp["cssr"].read_bytes() == lp["clique"].read_bytes() == lp["ip"].read_bytes()
    capsys.readouterr()
    assert main(argv + ["--method", "ip", "--lp", "-"]) == 0
    assert capsys.readouterr().out.splitlines(True) == expect


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


@pytest.mark.parametrize("command", [["infer", "--in"], ["graph", "--in"], ["bench", "--config"]])
def test_cli_non_utf8_input_returns_one(command, tmp_path, capsys):
    path = tmp_path / "input.bin"
    path.write_bytes(b"\xff\xfe\x00abc")
    assert main(command + [str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s is not text" % path) and "Traceback" not in err


def test_cli_bad_config_returns_one(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("colour = red\n")
    assert main(["bench", "--config", str(cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    # an infinite timeout once overflowed in the pipe's poll, a negative
    # seed in numpy's seed sequence
    ("timeout = inf", "error: timeout must be positive and finite\n"),
    ("seed = -1", "error: seed must be non-negative\n"),
])
def test_cli_bad_bench_value_returns_one(line, message, tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("methods = cssr\nlengths = 30\nreps = 1\n%s\n" % line)
    out = tmp_path / "results.csv"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_cli_bench_rejects_an_empty_alphabet_before_any_run(tmp_path, capsys, monkeypatch):
    # alphabets = 2, 0 once ran the whole alphabet-2 grid in forked
    # children, and only then failed on the empty alphabet
    def forked(cfg_point, timeout):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr(bench, "_timed_run", forked)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("methods = cssr\nalphabets = 2, 0\nlengths = 30\nreps = 1\n")
    out = tmp_path / "results.csv"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: alphabets must be at least 1\n")
    assert not out.exists()


def test_cli_bad_test_in_config_returns_one(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("methods = cssr\nlengths = 30\nreps = 1\ntest = bogus\n")
    out = tmp_path / "results.csv"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
    assert "unknown test" in capsys.readouterr().err
    assert not out.exists()


def test_cli_deep_clique_route_returns_one(deep_text, tmp_path, capsys):
    path = tmp_path / "deep.txt"
    path.write_text(deep_text)
    assert main(["infer", "--in", str(path), "--method", "clique", "--L", "5"]) == 1
    err = capsys.readouterr().err
    assert err == "error: more than 10000 exact covers of 11 cliques\n"


def test_cli_deep_ip_route_returns_one_state(deep_text, tmp_path, capsys):
    # at this alpha every pair of the 1,024 histories is compatible; the
    # deterministic search's first descent is 1,024 deep and is the optimum
    path = tmp_path / "deep.txt"
    path.write_text(deep_text)
    argv = ["infer", "--in", str(path), "--method", "ip", "--L", "5", "--alpha", "1e-10"]
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["states"]) == 1


def test_infer_unknown_method():
    wc = count_windows(gen_fixture(), 2)
    with pytest.raises(ValueError, match="unknown method"):
        infer(wc, "fancy", TestConfig())


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


def _outcome(parse, argv):
    """The parsed arguments of argv as a dict, or the exit code, stdout and
    stderr of parse when it exits."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(list(argv)))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


USAGE_CASES = [
    [], ["--help"], ["-h"], ["frobnicate"], ["--bogus"], ["frobnicate", "--in", "x"],
    ["gen-fixture", "--help"], ["gen-fixture", "--bogus"], ["gen-fixture", "extra"],
    ["bench", "--help"], ["bench", "--out"], ["bench", "--config", "x", "--bogus"],
    ["infer", "--in", "x", "--method", "nope"], ["infer", "--in", "x", "--format", "svg"],
    ["infer", "--in", "f", "--L", "x"], ["infer", "--in", "f", "--L", "3.0"],
] + [[command] + args for command in ("infer", "graph") for args in (
    ["--help"], [], ["--L", "2"], ["--in", "x", "--test", "nope"], ["--in", "x", "--L", "-1"],
    ["--in", "x", "--alpha", "1.5"], ["--in", "x", "--bogus"], ["--in", "x", "extra", "--bogus=1"],
    ["--in", "x", "--", "y"],
)]


@pytest.mark.parametrize("argv", USAGE_CASES, ids=" ".join)
def test_cli_usage_text_matches_the_full_parser(argv):
    # what main prints and its exit code must be those of the whole tree
    got = _outcome(main, argv)
    assert got == _outcome(build_parser().parse_args, argv)
    assert got[0] == (0 if "--help" in argv or "-h" in argv else 2)


@pytest.mark.parametrize("value", ["x", "3.0"])
def test_cli_bad_history_length_names_no_function(value):
    code, out, err = _outcome(main, ["infer", "--in", "f", "--L", value])
    assert (code, out) == (2, "")
    assert err.endswith(
        "minpfsa infer: error: argument --L: L must be a non-negative integer, not %r\n" % value)
    assert "_history_length" not in err


def test_cli_builds_no_parser_for_a_well_formed_call(fixture_file, tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("methods = cssr\nalphabets = 2\nlengths = 30\nreps = 1\n")
    for argv in (
        ["gen-fixture", "--out", str(tmp_path / "seq.txt")],
        ["infer", "--in", fixture_file, "--method", "ip", "--L", "2", "--alpha", "0.05",
         "--test", "chi2", "--format", "dot", "--out", str(tmp_path / "m.dot"),
         "--lp", str(tmp_path / "m.lp")],
        ["graph", "--in", fixture_file, "--out", str(tmp_path / "edges.txt")],
        ["bench", "--config", str(cfg), "--out", str(tmp_path / "bench.csv")],
    ):
        assert main(argv) == 0
    assert built == []
    tree = ["minpfsa"] + ["minpfsa %s" % name for name in COMMANDS]
    for argv, code in ((["infer", "--help"], 0), (["infer", "--in", fixture_file, "--L", "x"], 2)):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == code
        assert built == tree
        built.clear()


OPTIONS = {name: options for name, (_, options, _) in COMMANDS.items()}
FLAGS = sorted({opt[0] for options in OPTIONS.values() for opt in options})
# values that convert, for the options whose parse is a converter
CONVERTIBLE = {"--L": ["0", "3", "+4", " 5 "], "--alpha": ["0.01", "1e-10", ".5"]}
TEXTS = ["seq.txt", "-", "", "a b", "\u00e9"]
ODD = ["-", "-x", "-1", "", "-a b", "x", "3.0", "1.5", "--", "-h", "--help", "--bogus", "extra"]


def _good_values(option):
    """Values that the option takes."""
    flag, _, _, parse, _, _ = option
    if isinstance(parse, tuple):
        return list(parse)
    return CONVERTIBLE.get(flag, TEXTS)


# words drawn from the option tables: full and abbreviated names,
# --opt=value, valid and odd values, extras, -- and -h, an unknown command
WORDS = FLAGS + sorted({flag[:k] for flag in FLAGS for k in range(3, len(flag))})
WORDS += ["%s=%s" % (opt[0], value) for options in OPTIONS.values() for opt in options
          for value in _good_values(opt)[:2] + ["-x"]]
WORDS += sorted({v for options in OPTIONS.values() for opt in options for v in _good_values(opt)})
WORDS += ODD + sorted(OPTIONS) + ["frobnicate"]


@st.composite
def argvs(draw, odd):
    """A subcommand, then its full option names in any order and with
    repeats, each with a valid value and every required option among them.
    With odd, a value may be an odd one and a required option may be left
    out, now and then, and up to two words are inserted, replaced or
    deleted after."""
    name = draw(st.sampled_from(sorted(OPTIONS)))
    options = OPTIONS[name]
    chosen = draw(st.lists(st.sampled_from(options), max_size=8))
    if not odd or draw(st.integers(0, 3)):
        chosen += [opt for opt in options if opt[2] is cli._REQUIRED]
    argv = [name]
    for opt in draw(st.permutations(chosen)):
        argv.append(opt[0])
        if opt[2] is not False:
            odd_value = odd and draw(st.integers(0, 4)) == 0
            argv.append(draw(st.sampled_from(ODD if odd_value else _good_values(opt))))
    for _ in range(draw(st.integers(0, 2 if odd else 0))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        if edit == "insert":
            argv.insert(i, draw(st.sampled_from(WORDS)))
        elif i < len(argv) and edit == "replace":
            argv[i] = draw(st.sampled_from(WORDS))
        elif i < len(argv):
            del argv[i]
    return argv


@settings(max_examples=300, deadline=None)
@given(argvs(odd=False))
def test_table_reads_every_well_formed_call_as_the_full_parser(argv):
    got = cli._read_table(argv)
    assert got is not None
    assert vars(got) == _outcome(build_parser().parse_args, argv)


@settings(max_examples=500, deadline=None)
@given(argvs(odd=True))
def test_cli_parse_matches_the_full_parser(argv):
    assert _outcome(cli._parse, argv) == _outcome(build_parser().parse_args, argv)


def _run_cli(argv, stdin, **env):
    """Return code, stdout and stderr of the command line in a new
    interpreter that imports the package from this checkout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               **env)
    proc = subprocess.run([sys.executable, "-m", "minpfsa.cli"] + argv, input=stdin, env=env,
                          capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr.decode("utf-8", "replace")


def test_cli_command_loads_no_argparse(tmp_path):
    # gen-fixture computes no p-value: scipy.special, which the first one
    # loads, imports argparse itself
    code, _, err = _run_cli(["gen-fixture", "--out", str(tmp_path / "seq.txt")], b"",
                            PYTHONPROFILEIMPORTTIME="1")
    assert code == 0
    modules = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()}
    assert "minpfsa" in modules
    assert not modules & {"argparse", "gettext"}


def test_cli_undecodable_stdin_returns_one(tmp_path):
    # under UTF-8 mode sys.stdin would take the bytes in as lone surrogates,
    # which only fail when the output is written
    code, _, err = _run_cli(
        ["infer", "--in", "-", "--L", "1", "--format", "dot", "--out", str(tmp_path / "o.dot")],
        b"ab\xffab\xffabab\xff\n", PYTHONUTF8="1")
    assert code == 1
    assert err.startswith("error: - is not text: ") and "Traceback" not in err
    assert not (tmp_path / "o.dot").exists()


@pytest.mark.parametrize("source", ["-", "file"])
def test_cli_reads_utf8_whatever_the_locale(source, tmp_path):
    text = "é中é中中é\U0001f600é中\n".encode("utf-8")
    path = tmp_path / "seq.txt"
    path.write_bytes(text)
    argv = ["infer", "--in", "-" if source == "-" else str(path), "--L", "1"]
    # an ASCII locale with no UTF-8 mode, and a Latin-1 standard stream
    code, out, err = _run_cli(argv, text, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                              PYTHONIOENCODING="latin-1")
    assert code == 0, err
    assert json.loads(out)["alphabet"] == ["é", "中", "\U0001f600"]


@pytest.mark.parametrize("command", ["infer", "graph"])
def test_cli_writes_utf8_whatever_the_locale(command, tmp_path):
    path = tmp_path / "seq.txt"
    path.write_bytes("é中é中中é\U0001f600é中\n".encode("utf-8"))
    argv = [command, "--in", str(path), "--L", "1"]
    if command == "infer":
        argv += ["--format", "dot"]
    # an ASCII locale with no UTF-8 mode, and an ASCII standard stream
    locale = dict(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONIOENCODING="ascii")
    code, out, err = _run_cli(argv, b"", **locale)
    assert code == 0, err
    code, _, err = _run_cli(argv + ["--out", str(tmp_path / "out.txt")], b"", **locale)
    assert code == 0, err
    assert (tmp_path / "out.txt").read_bytes() == out
    assert all(symbol in out.decode("utf-8") for symbol in "é中\U0001f600")
