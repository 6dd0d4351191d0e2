"""Command-line interface: Grundy evaluation, Grundy tables, optimal moves,
verification sweeps, and a line-oriented interactive play mode.

Exit codes: 0 ok, 1 verification mismatch, 2 usage/parse error, 3 closed
form and engine disagree, 4 resource budget exceeded or out of memory, 130
interactive session aborted, 141 (128 + SIGPIPE) stdout closed by its reader
before the output was written.  Output is deterministic: identical invocations produce
byte-identical output, except for the elapsed times in verify's reports.

``table`` streams: it evaluates the closed-form ``*_array`` functions once
on each x-row and writes each row as it goes, and builds no grid.  Rows are
gathered from a table of finished cell texts, built once, one per column
and per value up to ``bound.bit_length()``, which no value exceeds; so it
holds O(bound log bound) memory.  That largest value has no more digits
than ``bound``, so the text columns are as wide as ``bound``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import re
import sys

import numpy as np

from . import closed_forms, engine, verification
from .errors import BudgetExceededError, DomainError, ParseError
from .rulesets import (
    RULESETS, TWO_HEAP_MOVES, echo_head, echo_number, echo_position, format_position,
    parse_position,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DISAGREE = 3
EXIT_BUDGET = 4
EXIT_ABORTED = 130
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by it

# Caps the units of every job, charged before any work (``engine.charge``):
# a check's, the (bound + 1)**2 cells of a table or two-heap query (8191 is
# the largest bound inside), a Nim query's heaps per position below it.
DEFAULT_BUDGET = 1 << 26

# The largest --budget: within it every job's arrays can be indexed (a
# two-heap bound stays below 2**31, the sum's masks below 2**50 bytes), so
# an admitted job can fail for want of memory alone.
MAX_BUDGET = 1 << 62

# The single-bound checks, in CHECK_NAMES order; each has a --bound-<name>
# flag.  bouton takes --heaps/--size instead.
SINGLE_BOUND_CHECKS = [name for name in verification.CHECK_NAMES if name != "bouton"]


def _closed_form_value(game: str, pos) -> int:
    if game == "delete-nim":
        return closed_forms.delete_nim_grundy(*pos)
    if game == "vdn":
        return closed_forms.vdn_grundy(*pos)
    return closed_forms.nim_sum(pos)


def cmd_grundy(args) -> int:
    """The closed form's value of the position against the engine's, the mex
    of ``engine.option_values``; exit 3 if they differ."""
    rules = RULESETS[args.game]
    pos = parse_position(rules, args.position)
    formula = _closed_form_value(args.game, pos)
    eng = engine.mex(engine.option_values(rules, pos, args.budget).values())
    print(f"closed-form: {formula}")
    print(f"engine: {eng}")
    print(f"outcome: {'P' if eng == 0 else 'N'}")
    if formula != eng:
        print("error: closed form and engine disagree", file=sys.stderr)
        return EXIT_DISAGREE
    return EXIT_OK


def _write_table(out, game: str, lo: int, bound: int, fmt: str) -> None:
    """Render the table one x-row, and one ``write``, at a time.  The csv and
    json bytes are those of ``csv.writer`` and of ``json.dumps`` on the list
    of ``{"x", "y", "grundy"}`` records.  A row is its lead, its cells joined
    by its joiner, and its end; ``cells[g, i]`` holds the finished text of a
    value-``g`` cell in column ``i``, so a row is one gather and one join.
    No value of either game exceeds ``bound.bit_length()``, so the cell
    table is built once, with that many rows plus one: O(bound log bound)
    memory.  A text cell is its value padded
    to the width of ``bound``, which no value exceeds; it does not depend
    on its column, so text keeps one column of cells."""
    if game == "delete-nim":
        grundy_array = closed_forms.delete_nim_grundy_array
    else:
        grundy_array = closed_forms.vdn_grundy_array
    ys = range(lo, bound + 1)
    if fmt == "text":
        width = len(str(bound))
        label = max(3, width)
        head = " " * label + "".join(f" {y:>{width}}" for y in ys) + "\n"
        lead, joiner, cell = f"{{x:>{label}}}", "", f" {{g:>{width}}}"
        end, between, foot = "\n", "", ""
        ys = range(1)  # a text cell does not depend on y: one column serves all
    elif fmt == "csv":
        head, lead, joiner, cell = "x,y,grundy\n", "{x},", "\n{x},", "{y},{g}"
        end, between, foot = "\n", "", ""
    else:
        head, lead, joiner, cell = "[", '{{"x": {x}', '}}, {{"x": {x}', ', "y": {y}, "grundy": {g}'
        end, between, foot = "}", ", ", "]\n"
    cols = np.arange(len(ys))
    top = bound.bit_length()
    cells = np.array([[cell.format(y=y, g=g) for y in ys] for g in range(top + 1)], dtype=object)
    heaps = np.arange(lo, bound + 1, dtype=np.int64)
    sep = head  # bound >= lo, so there is a first row to carry the header
    for x in range(lo, bound + 1):
        row = joiner.format(x=x).join(cells[grundy_array(x, heaps), cols].tolist())
        out.write(sep + lead.format(x=x) + row + end)
        sep = between
    out.write(foot)


def cmd_table(args) -> int:
    game, bound = args.game, args.bound
    lo, _ = TWO_HEAP_MOVES[game]
    units = engine.grid_cells(lo, bound)
    engine.charge(lambda: f"table to bound {echo_number(bound)}", units, DEFAULT_BUDGET)
    if not args.output and sys.stdout is None:  # started with stdout closed: nothing to write
        return EXIT_OK
    try:
        out = open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout)
        with out as fh:
            _write_table(fh, game, lo, bound, args.format)
    except OSError as exc:
        if not args.output:
            raise  # stdout's, which main reports
        raise ParseError(f"cannot write {args.output}: {exc.strerror}") from exc
    return EXIT_OK


def cmd_best_move(args) -> int:
    """Answer from the ``engine.option_values`` map alone; empty is terminal."""
    rules = RULESETS[args.game]
    pos = parse_position(rules, args.position)
    values = engine.option_values(rules, pos, args.budget)
    move = engine.winning_move(values)
    if move is not None:
        print(format_position(rules, move))
    else:
        print("P-position" if values else "P-position (terminal)")
    return EXIT_OK


def _verify_bounds(args) -> dict:
    """Merge bound sources: builtin < --bound < per-check flag."""
    bounds = dict(verification.DEFAULT_BOUNDS)
    for name in SINGLE_BOUND_CHECKS:
        for value in (args.bound, getattr(args, "bound_" + name.replace("-", "_"))):
            if value is not None:
                bounds[name] = value
    heaps, size = bounds["bouton"]
    bounds["bouton"] = (
        args.heaps if args.heaps is not None else heaps,
        args.size if args.size is not None else size,
    )
    return bounds


def cmd_verify(args) -> int:
    bounds = _verify_bounds(args)
    if args.check and not args.all:
        names = args.check
    else:
        names = list(verification.CHECK_NAMES)
    reports = []
    error = None
    for name in names:
        try:
            report = verification.run_check(name, bounds[name], budget=args.budget)
        except (DomainError, BudgetExceededError, MemoryError) as exc:
            error = exc  # report the checks that finished, then fail with it
            break
        reports.append(report)
        if args.format == "text":
            print(report.text_line())
    if args.format == "json":
        print(verification.reports_to_json(reports))
    else:
        passed = sum(1 for r in reports if r.passed)
        print(f"{passed}/{len(reports)} checks passed")
    if error is not None:
        raise error
    return EXIT_OK if all(r.passed for r in reports) else EXIT_MISMATCH


def cmd_play(args) -> int:
    rules = RULESETS[args.game]
    pos = parse_position(rules, args.position)
    # refused before any output, as a query on the start would be; later
    # positions only shrink, so the charge of each engine move passes
    engine.check_query(rules, pos, args.budget)
    mover = args.first
    while True:
        print(f"position: {format_position(rules, pos)}")
        if mover == "engine":
            values = engine.option_values(rules, pos, args.budget)  # keyed by the options
            if not values:  # the human moved last
                print("you win")
                return EXIT_OK
            move = engine.winning_move(values)
            if move is None:  # losing position: play the smallest canonical option
                move = min(values)
            print(f"engine plays {format_position(rules, move)}")
        else:
            opts = rules.options(pos)
            if not opts:  # the engine moved last
                print("engine wins")
                return EXIT_OK
            try:
                line = input("your move> ")
            except EOFError:
                return EXIT_ABORTED
            try:
                move = parse_position(rules, line)
            except (ParseError, DomainError):
                print("illegal move: cannot parse (enter a position like 2,0)")
                continue
            if move not in opts:
                print(
                    f"illegal move: {format_position(rules, move)} is not an option "
                    f"of {format_position(rules, pos)}"
                )
                continue
        pos = move
        mover = "human" if mover == "engine" else "engine"


# an argument of more than 60 characters in a usage error, quoted or bare
_LONG_ARGUMENT = re.compile(r"'([^'\n]{61,})'|([^\s']{61,})")


def _echo_argument(match: re.Match) -> str:
    """A long argument as a usage error echoes it: a number through
    ``echo_number``, anything else through ``echo_position``."""
    quoted, bare = match.groups()
    if quoted is not None:
        return echo_position(quoted, repr)
    if re.fullmatch(r"-?[0-9]+", bare):
        try:
            return echo_number(int(bare))
        except ValueError:  # more digits than int() converts
            pass
    return echo_position(bare)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors echo each long argument in
    bounded form, as the package's own messages do, and are cut past 240
    bytes, then ``...``, however many arguments they echo.  Its subparsers
    are of this class too."""

    def error(self, message: str):
        message = _LONG_ARGUMENT.sub(_echo_argument, message)
        head = echo_head(message, 240, 240)
        super().error(message if head == message else head + "...")

    def _print_message(self, message: str, file=None) -> None:
        # argparse drops a failed write; one to stdout (--help) propagates,
        # for ``main`` to report as every command's is.  With descriptor 1
        # closed at start-up stdout is None, and the message is dropped, as
        # a command's output is, rather than sent to stderr
        if file is not sys.stdout:
            super()._print_message(message, file)
        elif message and file is not None:
            file.write(message)


def _budget(text: str) -> int:
    """A ``--budget``: an int of at most ``MAX_BUDGET`` units."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if budget > MAX_BUDGET:
        raise argparse.ArgumentTypeError(f"{budget} exceeds the largest budget, {MAX_BUDGET}")
    return budget


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call."""
    parser = _Parser(
        prog="impartial",
        description="Grundy values, optimal moves and exhaustive verification "
        "for Delete Nim, VDN and Nim.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, games):
        p.add_argument("--game", required=True, choices=games)
        p.add_argument("--position", required=True, help="position text, e.g. 3,2")
        p.add_argument("--budget", type=_budget)

    p = sub.add_parser("grundy", help="closed-form and engine Grundy value of a position")
    add_common(p, sorted(RULESETS))

    p = sub.add_parser("table", help="Grundy grid for a two-heap game")
    p.add_argument("--game", required=True, choices=list(TWO_HEAP_MOVES))
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--output", help="write to a file instead of stdout")

    p = sub.add_parser("best-move", help="a winning move, or P-position")
    add_common(p, sorted(RULESETS))

    p = sub.add_parser("verify", help="exhaustive verification sweeps")
    p.add_argument("--all", action="store_true", help="run every check (the default)")
    p.add_argument("--check", action="append", choices=verification.CHECK_NAMES)
    p.add_argument("--bound", type=int, help="bound for every selected single-bound check")
    for name in SINGLE_BOUND_CHECKS:
        p.add_argument(f"--bound-{name}", type=int)
    p.add_argument("--heaps", type=int, help="max heap count for the bouton check")
    p.add_argument("--size", type=int, help="max heap size for the bouton check")
    p.add_argument("--budget", type=_budget)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("play", help="interactive game against the engine")
    add_common(p, sorted(RULESETS))
    p.add_argument("--first", choices=["human", "engine"], default="human")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        if sys.stdout is not None:  # None when started with its descriptor closed
            sys.stdout.flush()  # so that a failed write to stdout fails here, not at exit
        return code
    except BrokenPipeError:
        _silence_stdout()
        return EXIT_BROKEN_PIPE
    except OSError as exc:  # a command's own file reports its errors: this is stdout's
        _silence_stdout()
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


def _run(argv: list[str] | None) -> int:
    """Parse ``argv`` and run its command: its exit code, with each error
    the command contract names reported on stderr."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help (0) and usage errors (2)
        return 0 if exc.code in (0, None) else EXIT_USAGE
    if getattr(args, "budget", 0) is None:  # no --budget: the default as it is now
        args.budget = DEFAULT_BUDGET
    # looked up per call, so a cmd_* replaced on the module takes effect
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:  # an admitted job whose arrays do not fit
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except KeyboardInterrupt:
        return EXIT_ABORTED


def _silence_stdout() -> None:
    """Point the stdout file descriptor at os.devnull, so that flushing what
    is still buffered, at exit, for a reader that is gone or a write that
    failed, cannot raise again.  An in-memory stdout has no descriptor and
    is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)
