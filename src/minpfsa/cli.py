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

Each subcommand's help line, options and handler are declared once, as
data in ``COMMANDS``. A plain well-formed call (full option names, one
value after each, valid choices and values, the required options
present) is read straight from that table, with no argparse. Every other
command line goes to ``build_parser``, which renders the same table into
argparse, so help, usage, error texts and exit codes are argparse's, and
argparse is imported only there.
"""

import contextlib
import io
import sys
import types

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
    """--alpha: a significance level in (0, 1)."""
    return TestConfig(alpha=float(text)).alpha


def _history_length(text):
    """--L: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError("L must be a non-negative integer, not %r" % text)
    return value


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


# Each option is (flag, dest, default, parse, metavar, help): parse is a
# converter that raises ValueError, a tuple of choices, or None for the
# text as given; the default _REQUIRED makes the option required, and the
# default False makes it a flag that takes no value.
_REQUIRED = object()
_INPUT = (
    ("--in", "infile", _REQUIRED, None, "FILE", "sequence file, or - for stdin"),
    ("--tokens", "tokens", False, None, None,
     "split the input on whitespace instead of reading characters"),
    ("--L", "L", 2, _history_length, None, "history length (default 2)"),
    ("--alpha", "alpha", 0.05, _alpha, None, "significance level (default 0.05)"),
    ("--test", "test", "freeman-tukey", TESTS, None, "two-sample test (default freeman-tukey)"),
)


def _out(help_line):
    """The --out option, with its help line."""
    return ("--out", "out", "-", None, "FILE", help_line)


# name -> (help line, options, handler), in the order of the help listing
COMMANDS = {
    "gen-fixture": ("write the walkthrough sequence",
                    (_out("output file (default stdout)"),), cmd_gen_fixture),
    "infer": ("infer a machine from a sequence file", (
        ("--method", "method", "cssr", METHODS, None, None),
        *_INPUT,
        ("--format", "format", "json", ("json", "dot"), None,
         "machine output format (default json)"),
        _out("machine output file (default stdout)"),
        ("--lp", "lp", None, None, "FILE", "also write the integer program as LP text"),
    ), cmd_infer),
    "graph": ("dump the compatibility graph edge list",
              (*_INPUT, _out("output file (default stdout)")), cmd_graph),
    "bench": ("run the benchmark grid", (
        ("--config", "config", None, None, "FILE", "key = value configuration file"),
        _out("CSV output (default stdout)"),
    ), cmd_bench),
}


def build_parser():
    """The argparse parser of the whole tree, rendered from ``COMMANDS``."""
    import argparse

    def checked(convert):
        def parse(text):
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc))
        return parse

    parser = argparse.ArgumentParser(
        prog="minpfsa",
        description="Minimum-state probabilistic finite-state automaton inference.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, options, handler) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_line)
        for flag, dest, default, parse, metavar, text in options:
            if default is False:
                sub.add_argument(flag, dest=dest, action="store_true", help=text)
                continue
            kind = dict(choices=parse) if isinstance(parse, tuple) else dict(
                type=checked(parse) if parse else None)
            sub.add_argument(flag, dest=dest, required=default is _REQUIRED,
                             default=None if default is _REQUIRED else default,
                             metavar=metavar, help=text, **kind)
        sub.set_defaults(func=handler)
    return parser


def _read_table(argv):
    """The arguments of a plain well-formed call, read from ``COMMANDS``,
    or None for any other argv.

    Plain means a subcommand, then only full option names, each flag alone
    and each other option followed by its value, which must not start with
    - unless it is -, must be one of the choices and must convert; every
    required option present. A later value of an option wins, as in
    argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, options, handler = COMMANDS[argv[0]]
    by_flag = {opt[0]: opt for opt in options}
    values = {opt[1]: opt[2] for opt in options}
    words = iter(argv[1:])
    for word in words:
        if word not in by_flag:
            return None
        _, dest, default, parse, _, _ = by_flag[word]
        if default is False:
            values[dest] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-") and value != "-":
            return None
        if isinstance(parse, tuple):
            if value not in parse:
                return None
        elif parse is not None:
            try:
                value = parse(value)
            except ValueError:
                return None
        values[dest] = value
    if any(value is _REQUIRED for value in values.values()):
        return None
    return types.SimpleNamespace(command=argv[0], **values, func=handler)


def _parse(argv):
    """The parsed arguments of argv, with the attributes that
    build_parser().parse_args(argv) gives. A plain well-formed call is read
    from the option table; every other argv (help, none, an unknown or
    abbreviated option, --opt=value, a bad value, extras, --) goes to the
    full parser, which prints its help, usage or error and exits.
    """
    args = _read_table(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (MinpfsaError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
