"""Runtime benchmark harness.

Draws seeded random source machines, samples sequences from them and
times each inference method on the same sequence. Results go to CSV with
the header ``method,alphabet,length,rep,seconds,states,flag``. Rows are
emitted in sorted order and everything except the seconds column is
deterministic for a fixed seed.

Each run executes in a forked child process so a hung method can be
killed at the configured timeout. The child inherits the sampled
sequence through the fork, and the seconds it reports are measured
around the same route code that ``minpfsa infer`` runs (``cli.infer``),
from counting the windows to the built machine. The parent loads
scipy.special before the first fork, so no child's seconds include that
import. A run killed at the timeout, or one whose own seconds exceed it,
is flagged ``timeout``. A configuration value that ``BenchConfig``
rejects is a FormatError in ``parse_bench_config``, so ``minpfsa bench``
exits 1 on it.
"""

import time
from dataclasses import dataclass, fields

import numpy as np

from .errors import FormatError
from .machine import PFSA, sample
from .sequences import Alphabet, count_windows
from .stat_tests import TestConfig, load_special

METHODS = ("cssr", "ip", "clique")


@dataclass(frozen=True)
class BenchConfig:
    methods: tuple = METHODS
    alphabets: tuple = (2, 3, 4)
    lengths: tuple = (10, 100, 1000)
    reps: int = 5
    seed: int = 0
    L: int = 2
    alpha: float = 0.05
    test: str = "freeman-tukey"
    timeout: float = 300.0

    def __post_init__(self):
        for m in self.methods:
            if m not in METHODS:
                raise ValueError("unknown method %r" % m)
        TestConfig(test=self.test, alpha=self.alpha)
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.L < 0:
            raise ValueError("L must be non-negative")
        if not 0 < self.timeout < float("inf"):
            raise ValueError("timeout must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if min(self.lengths, default=1) < 1 or list(self.lengths) != sorted(self.lengths):
            raise ValueError("lengths must be positive and ascending")
        if min(self.alphabets, default=1) < 1:
            raise ValueError("alphabets must be at least 1")


_DEFAULTS = {f.name: f.default for f in fields(BenchConfig)}


def parse_bench_config(text):
    """Parse the key = value benchmark configuration format.

    Lines starting with # and blank lines are ignored. Unknown keys are
    an error so that typos do not silently fall back to defaults. Each
    value is converted by the type of its field's default (a tuple field
    takes a comma-separated list), and every value the configuration
    rejects raises FormatError.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError("line %d: expected key = value" % lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _DEFAULTS:
            raise FormatError("line %d: unknown key %r" % (lineno, key))
        default = _DEFAULTS[key]
        try:
            if isinstance(default, tuple):
                values[key] = tuple(type(default[0])(v.strip()) for v in val.split(","))
            else:
                values[key] = type(default)(val)
        except ValueError as exc:
            raise FormatError("line %d: %s" % (lineno, exc))
    try:
        return BenchConfig(**values)
    except ValueError as exc:
        raise FormatError(str(exc))


def random_machine(rng, n_states, alphabet):
    """A random source: every state emits every symbol with a random
    positive probability and a random target state. Member-history labels
    are not meaningful for synthetic sources and stay empty."""
    delta = {}
    probs = {}
    for j in range(n_states):
        weights = rng.dirichlet(np.ones(len(alphabet)) * 2.0)
        for a in range(len(alphabet)):
            delta[(j, a)] = frozenset([int(rng.integers(n_states))])
            probs[(j, a)] = float(weights[a])
    states = tuple(() for _ in range(n_states))
    return PFSA(alphabet, states, delta, probs, start_state=0)


def _run_point(cfg_point):
    """Child-process body: time counting plus one ``infer`` route on one
    sequence and return (seconds, states)."""
    from .cli import infer  # imported here because cli imports this module

    method, seq, L, test_config = cfg_point
    t0 = time.perf_counter()
    machine, _ = infer(count_windows(seq, L), method, test_config)
    return time.perf_counter() - t0, machine.num_states


def _child(conn, cfg_point):
    try:
        conn.send(_run_point(cfg_point))
    except Exception as exc:  # surface the failure in the parent
        conn.send(("error", repr(exc)))
    finally:
        conn.close()


def _timed_run(cfg_point, timeout):
    """Run one point in a forked child; return (seconds, states, flag)."""
    import multiprocessing  # here, so that importing the package does not load it

    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(child, cfg_point))
    proc.start()
    child.close()
    if parent.poll(timeout):
        try:
            result = parent.recv()
        except EOFError:  # the child died without replying
            result = ("error", "child exited without a result")
        proc.join()
    else:
        proc.terminate()
        proc.join()
        result = None
    parent.close()
    if result is not None and result[0] == "error":
        return 0.0, -1, "error"
    # a child can reply before the first poll even when it overran
    if result is None or result[0] > timeout:
        return float(timeout), -1, "timeout"
    seconds, states = result
    return float(seconds), int(states), "ok"


def run_bench(config):
    """Run the whole benchmark grid and return rows as dicts.

    For each (alphabet, length, rep) a random 2 to 4 state source is
    sampled and every configured method runs on the same sequence. Flags:
    ok, timeout, error, mismatch (clique optimum differs from ip) and
    cssr_below_ip (heuristic returned fewer states than the exact
    deterministic optimum).
    """
    test_config = TestConfig(test=config.test, alpha=config.alpha)
    load_special()
    rows = []
    for n_symbols in config.alphabets:
        alphabet = Alphabet(tuple(str(i) for i in range(n_symbols)))
        for length in config.lengths:
            for rep in range(config.reps):
                ss = np.random.SeedSequence(
                    entropy=config.seed, spawn_key=(n_symbols, length, rep)
                )
                rng = np.random.default_rng(ss)
                source = random_machine(rng, int(rng.integers(2, 5)), alphabet)
                seq = sample(source, length, int(rng.integers(2 ** 63)))
                point = {}
                for method in config.methods:
                    seconds, states, flag = _timed_run(
                        (method, seq, config.L, test_config), config.timeout)
                    row = dict(method=method, alphabet=n_symbols, length=length,
                               rep=rep, seconds=seconds, states=states, flag=flag)
                    point[method] = row
                    rows.append(row)
                ip_row = point.get("ip")
                if ip_row and ip_row["flag"] == "ok":
                    row = point.get("clique")
                    if row and row["flag"] == "ok" and row["states"] != ip_row["states"]:
                        row["flag"] = "mismatch"
                    row = point.get("cssr")
                    if row and row["flag"] == "ok" and row["states"] < ip_row["states"]:
                        row["flag"] = "cssr_below_ip"
    rows.sort(key=lambda r: (r["method"], r["alphabet"], r["length"], r["rep"]))
    return rows


CSV_HEADER = "method,alphabet,length,rep,seconds,states,flag"


def write_csv(rows, fh, meta=None):
    """Write rows as CSV. meta, when given, goes into a leading comment
    line so the seed and source description travel with the numbers."""
    if meta:
        fh.write("# %s\n" % meta)
    fh.write(CSV_HEADER + "\n")
    for r in rows:
        fh.write(
            "%s,%d,%d,%d,%.6f,%d,%s\n"
            % (r["method"], r["alphabet"], r["length"], r["rep"],
               r["seconds"], r["states"], r["flag"])
        )
