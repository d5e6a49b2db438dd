"""Command line front end.

Subcommands:

* ``gen-fixture`` writes the walkthrough sequence used throughout the
  tests and demos.
* ``infer`` runs one inference method on a sequence file and writes the
  machine as JSON or DOT, with an optional integer-program LP dump.
* ``graph`` dumps the history compatibility graph as ``i j`` edge lines.
* ``bench`` runs the benchmark grid and writes the results CSV.

Exit status is 0 on success, 1 on input or runtime errors and 2 on
command line usage errors.
"""

import argparse
import contextlib
import sys

from .bench import METHODS, BenchConfig, parse_bench_config, run_bench, write_csv
from .cliques import clique_pipeline
from .cssr import cssr
from .errors import FormatError, MinpfsaError
from .exact import build_ip_model, solve_msdpfsa, write_lp
from .machine import build_machine, to_dot, to_json
from .sequences import count_windows, gen_fixture, parse_sequence
from .stat_tests import TESTS, TestConfig, compatibility_graph


def _read_text(path):
    """The text of a file, or of stdin for -; FormatError unless it decodes."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError("%s is not text: %s" % (path, exc))


def _window_counts(args):
    """The window counts of the --in sequence and the configured test."""
    seq = parse_sequence(_read_text(args.infile), "tokens" if args.tokens else "chars")
    return count_windows(seq, args.L), TestConfig(test=args.test, alpha=args.alpha)


@contextlib.contextmanager
def _output(path):
    """The text file to write: stdout for -, else path opened for writing."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _write(path, text):
    with _output(path) as fh:
        fh.write(text)


def _alpha(text):
    try:
        return TestConfig(alpha=float(text)).alpha
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _history_length(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("L must be non-negative, not %s" % text)
    return value


def _add_input_args(sub):
    sub.add_argument("--in", dest="infile", required=True, metavar="FILE",
                     help="sequence file, or - for stdin")
    sub.add_argument("--tokens", action="store_true",
                     help="split the input on whitespace instead of reading characters")
    sub.add_argument("--L", type=_history_length, default=2,
                     help="history length (default 2)")
    sub.add_argument("--alpha", type=_alpha, default=0.05,
                     help="significance level (default 0.05)")
    sub.add_argument("--test", choices=TESTS, default="freeman-tukey",
                     help="two-sample test (default freeman-tukey)")


def cmd_gen_fixture(args):
    _write(args.out, gen_fixture().text() + "\n")
    return 0


def infer(wc, method, config):
    """Run one inference route on window counts; the one place where the
    routes are composed, for ``infer`` and for the bench.

    Returns the machine and the compatibility graph the route built,
    which is None for cssr. Raises ValueError on an unknown method.
    """
    if method == "cssr":
        return cssr(wc, config), None
    if method == "ip":
        graph = compatibility_graph(wc, config)
        result = solve_msdpfsa(graph, wc.succ)
        return build_machine(wc, result.partition), graph
    if method == "clique":
        result = clique_pipeline(wc, config)
        return result.machine, result.graph
    raise ValueError("unknown method %r" % method)


def cmd_infer(args):
    wc, cfg = _window_counts(args)
    machine, graph = infer(wc, args.method, cfg)
    render = to_dot if args.format == "dot" else to_json
    _write(args.out, render(machine))
    if args.lp:
        if graph is None:
            graph = compatibility_graph(wc, cfg)
        model = build_ip_model(graph, wc.succ)
        with _output(args.lp) as fh:
            write_lp(model, fh)
    return 0


def cmd_graph(args):
    wc, cfg = _window_counts(args)
    graph = compatibility_graph(wc, cfg)
    lines = ["# %d %s" % (i, wc.alphabet.render(h)) for i, h in enumerate(graph.vertices)]
    lines += ["%d %d" % edge for edge in graph.edges()]
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_bench(args):
    if args.config:
        config = parse_bench_config(_read_text(args.config))
    else:
        config = BenchConfig()
    rows = run_bench(config)
    meta = "sources: random 2-4 state machines, seed=%d, test=%s, L=%d" % (
        config.seed, config.test, config.L)
    with _output(args.out) as fh:
        write_csv(rows, fh, meta=meta)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minpfsa",
        description="Minimum-state probabilistic finite-state automaton inference.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("gen-fixture", help="write the walkthrough sequence")
    sub.add_argument("--out", default="-", metavar="FILE",
                     help="output file (default stdout)")
    sub.set_defaults(func=cmd_gen_fixture)

    sub = subs.add_parser("infer", help="infer a machine from a sequence file")
    sub.add_argument("--method", choices=METHODS, default="cssr")
    _add_input_args(sub)
    sub.add_argument("--format", choices=("json", "dot"), default="json",
                     help="machine output format (default json)")
    sub.add_argument("--out", default="-", metavar="FILE",
                     help="machine output file (default stdout)")
    sub.add_argument("--lp", metavar="FILE",
                     help="also write the integer program as LP text")
    sub.set_defaults(func=cmd_infer)

    sub = subs.add_parser("graph", help="dump the compatibility graph edge list")
    _add_input_args(sub)
    sub.add_argument("--out", default="-", metavar="FILE",
                     help="output file (default stdout)")
    sub.set_defaults(func=cmd_graph)

    sub = subs.add_parser("bench", help="run the benchmark grid")
    sub.add_argument("--config", metavar="FILE", help="key = value configuration file")
    sub.add_argument("--out", default="-", metavar="FILE",
                     help="CSV output (default stdout)")
    sub.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MinpfsaError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
