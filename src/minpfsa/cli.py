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

Each subcommand's help line, arguments and handler sit in one table,
``COMMANDS``. ``build_parser`` builds the whole tree from it, but a call
that names a subcommand builds only that subcommand's parser: the
arguments of the other three are never built. Help, usage and error
texts and exit codes are the full tree's.
"""

import argparse
import contextlib
import io
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
    """The text of a file, or of stdin for -, decoded strictly as UTF-8
    whatever the locale; FormatError unless it decodes."""
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError("%s is not text: %s" % (path, exc))


def _window_counts(args):
    """The window counts of the --in sequence and the configured test."""
    seq = parse_sequence(_read_text(args.infile), "tokens" if args.tokens else "chars")
    return count_windows(seq, args.L), TestConfig(test=args.test, alpha=args.alpha)


@contextlib.contextmanager
def _output(path):
    """The text file to write, UTF-8 whatever the locale: path opened for
    writing, or stdout for -, through its byte buffer when it has one."""
    if path != "-":
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        fh = io.TextIOWrapper(sys.stdout.buffer, encoding="utf-8")
        try:
            yield fh
        finally:
            fh.detach()  # flushes, and leaves sys.stdout open
    else:
        yield sys.stdout


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


def _add_gen_fixture_args(sub):
    sub.add_argument("--out", default="-", metavar="FILE",
                     help="output file (default stdout)")


def _add_infer_args(sub):
    sub.add_argument("--method", choices=METHODS, default="cssr")
    _add_input_args(sub)
    sub.add_argument("--format", choices=("json", "dot"), default="json",
                     help="machine output format (default json)")
    sub.add_argument("--out", default="-", metavar="FILE",
                     help="machine output file (default stdout)")
    sub.add_argument("--lp", metavar="FILE",
                     help="also write the integer program as LP text")


def _add_graph_args(sub):
    _add_input_args(sub)
    sub.add_argument("--out", default="-", metavar="FILE",
                     help="output file (default stdout)")


def _add_bench_args(sub):
    sub.add_argument("--config", metavar="FILE", help="key = value configuration file")
    sub.add_argument("--out", default="-", metavar="FILE",
                     help="CSV output (default stdout)")


# name -> (help line, argument builder, handler), in the order of the help listing
COMMANDS = {
    "gen-fixture": ("write the walkthrough sequence", _add_gen_fixture_args, cmd_gen_fixture),
    "infer": ("infer a machine from a sequence file", _add_infer_args, cmd_infer),
    "graph": ("dump the compatibility graph edge list", _add_graph_args, cmd_graph),
    "bench": ("run the benchmark grid", _add_bench_args, cmd_bench),
}


def _fill_command(sub, name):
    """Give sub the arguments and handler of subcommand name."""
    _, add_args, handler = COMMANDS[name]
    add_args(sub)
    sub.set_defaults(func=handler)


def build_parser():
    """The full parser: the top level and every subcommand."""
    parser = argparse.ArgumentParser(
        prog="minpfsa",
        description="Minimum-state probabilistic finite-state automaton inference.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in COMMANDS.items():
        _fill_command(subs.add_parser(name, help=help_line), name)
    return parser


def _parse(argv):
    """The parsed arguments of argv, as build_parser() parses them.

    When argv starts with a subcommand, only that subcommand's parser is
    built, as the full tree names it. Its help, usage and errors are the
    tree's own. Arguments it leaves over go back to the full tree, which
    reports them with its usage and exit code 2; so does every other argv
    (none, --help, an unknown command).
    """
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog="minpfsa " + argv[0])
        _fill_command(parser, argv[0])
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (MinpfsaError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
