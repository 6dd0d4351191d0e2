import argparse
import contextlib
import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
import time
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impartial import cli, engine, verification
from impartial.closed_forms import delete_nim_grundy
from impartial.rulesets import RULESETS
from reference import (
    ref_delete_grundy,
    ref_delete_options,
    ref_nim_grundy,
    ref_nim_options,
    ref_nim_units,
    ref_v2,
    ref_vdn_grundy,
    ref_vdn_options,
)


def run_cli(*args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "impartial", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_cli_peak_rss(*args, timeout=300):
    """Run the CLI from an intermediate interpreter, so that RUSAGE_CHILDREN
    sees only it, not children earlier tests started.  Returns (exit code,
    peak RSS in KiB, stdout); stdin is closed."""
    probe = (
        "import resource, subprocess, sys\n"
        f"r = subprocess.run([sys.executable, '-m', 'impartial', *{list(args)!r}],"
        f" stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout={timeout})\n"
        "rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(r.returncode, rss // 1024 if sys.platform == 'darwin' else rss)\n"
        "sys.stdout.write(r.stdout)\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=timeout + 60
    )
    head, _, out = r.stdout.partition("\n")
    code, rss_kib = (int(v) for v in head.split())
    return code, rss_kib, out


class TestGrundyCommand:
    def test_delete_nim_example(self):
        r = run_cli("grundy", "--game", "delete-nim", "--position", "3,2")
        assert r.returncode == 0
        assert r.stdout == "closed-form: 2\nengine: 2\noutcome: N\n"

    def test_nim_p_position(self):
        r = run_cli("grundy", "--game", "nim", "--position", "2,5,7")
        assert r.returncode == 0
        assert r.stdout == "closed-form: 0\nengine: 0\noutcome: P\n"

    def test_large_nim_heap_answers_in_seconds(self):
        code, rss_kib, out = run_cli_peak_rss(
            "grundy", "--game", "nim", "--position", "20000", timeout=10
        )
        assert (code, out) == (0, "closed-form: 20000\nengine: 20000\noutcome: N\n")
        assert rss_kib < 60 * 1024

    def test_vdn_domain_error(self):
        r = run_cli("grundy", "--game", "vdn", "--position", "0,3")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "error" in r.stderr

    def test_malformed_position(self):
        r = run_cli("grundy", "--game", "delete-nim", "--position", "3;2")
        assert r.returncode == 2

    # int() reads all three, as 10,2 and 3,2 and 3,2
    @pytest.mark.parametrize("text", ["1_0,2", "\uff13,\uff12", "+3,2"])
    def test_only_ascii_digits_parse(self, text, capsys):
        assert cli.main(["grundy", "--game", "delete-nim", "--position", text]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: malformed position {text!r}\n"

    def test_whitespace_around_commas(self, capsys):
        assert cli.main(["grundy", "--game", "delete-nim", "--position", " 3 , 2 "]) == 0
        assert capsys.readouterr().out == "closed-form: 2\nengine: 2\noutcome: N\n"

    def test_disagreement_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.closed_forms, "delete_nim_grundy", lambda x, y: 99)
        code = cli.main(["grundy", "--game", "delete-nim", "--position", "3,2"])
        assert code == 3
        out = capsys.readouterr()
        assert "closed-form: 99" in out.out
        assert "engine: 2" in out.out
        assert "disagree" in out.err


def _reference_table(game: str, bound: int, fmt: str, xs=None, ref=None) -> str:
    """The table as first specified: reference values, rendered with the
    stdlib csv writer, json.dumps of a list of dicts, or a padded grid.
    With ``xs``, only those x-rows are rendered."""
    lo = 0 if game == "delete-nim" else 1
    if ref is None:
        ref = ref_delete_grundy if game == "delete-nim" else ref_vdn_grundy
    heaps = range(lo, bound + 1)
    xs = heaps if xs is None else xs
    rows = [(x, y, ref(x, y)) for x in xs for y in heaps]
    out = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["x", "y", "grundy"])
        writer.writerows(rows)
    elif fmt == "json":
        out.write(json.dumps([{"x": x, "y": y, "grundy": g} for x, y, g in rows]) + "\n")
    else:
        width = max([len(str(bound))] + [len(str(g)) for _, _, g in rows])
        label = max(3, len(str(bound)))
        out.write(" " * label + "".join(f" {y:>{width}}" for y in heaps) + "\n")
        cells = iter(rows)
        for x in xs:
            line = "".join(f" {next(cells)[2]:>{width}}" for _ in heaps)
            out.write(f"{x:>{label}}{line}\n")
    return out.getvalue()


def _paper_value(game: str):
    """The paper's closed forms on the reference's own 2-adic valuation: the
    reference recursion would take minutes to reach a bound of 1023."""
    if game == "delete-nim":
        return lambda x, y: ref_v2((x | y) + 1)
    return lambda x, y: ref_v2(((x - 1) | (y - 1)) + 1)


def _table_rows(table: str, fmt: str, lo: int, per_row: int) -> list:
    """A rendered table cut into its header and its x-rows: ``per_row``
    lines each in csv or text, the records of one x in json."""
    if fmt == "json":
        assert table[:1] == "[" and table[-2:] == "]\n"
        return ["["] + re.split(rf', (?={{"x": \d+, "y": {lo},)', table[1:-2])
    lines = table.splitlines(keepends=True)
    return lines[:1] + ["".join(lines[i:i + per_row]) for i in range(1, len(lines), per_row)]


class TestTableCommand:
    def test_csv_bound_1(self):
        r = run_cli("table", "--game", "delete-nim", "--bound", "1", "--format", "csv")
        assert r.returncode == 0
        assert r.stdout == "x,y,grundy\n0,0,0\n0,1,1\n1,0,1\n1,1,1\n"

    def test_csv_bound_0(self):
        r = run_cli("table", "--game", "delete-nim", "--bound", "0", "--format", "csv")
        assert r.stdout == "x,y,grundy\n0,0,0\n"

    def test_vdn_bound_2(self):
        r = run_cli("table", "--game", "vdn", "--bound", "2", "--format", "csv")
        assert r.stdout == "x,y,grundy\n1,1,0\n1,2,1\n2,1,1\n2,2,1\n"

    def test_csv_round_trips(self):
        r = run_cli("table", "--game", "delete-nim", "--bound", "9", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(r.stdout)))
        assert len(rows) == 100
        for row in rows:
            assert int(row["grundy"]) == delete_nim_grundy(int(row["x"]), int(row["y"]))

    def test_json_round_trips(self):
        r = run_cli("table", "--game", "vdn", "--bound", "6", "--format", "json")
        records = json.loads(r.stdout)
        assert len(records) == 36
        assert records[0] == {"x": 1, "y": 1, "grundy": 0}
        # x-major ascending order
        keys = [(rec["x"], rec["y"]) for rec in records]
        assert keys == sorted(keys)

    def test_output_file_matches_stdout(self, tmp_path):
        out = tmp_path / "table.csv"
        r1 = run_cli("table", "--game", "delete-nim", "--bound", "5", "--format", "csv")
        r2 = run_cli(
            "table", "--game", "delete-nim", "--bound", "5", "--format", "csv",
            "--output", str(out),
        )
        assert r2.returncode == 0
        assert r2.stdout == ""
        assert out.read_text() == r1.stdout

    def test_text_format_is_a_grid(self):
        r = run_cli("table", "--game", "delete-nim", "--bound", "2")
        lines = r.stdout.splitlines()
        assert len(lines) == 4  # header + 3 rows
        assert lines[1].split() == ["0", "0", "1", "0"]

    def test_nim_rejected(self):
        r = run_cli("table", "--game", "nim", "--bound", "4")
        assert r.returncode == 2

    def test_budget_caps_cells(self, monkeypatch, capsys):
        # the table is charged (bound+1)**2 cells before anything is built
        monkeypatch.setattr(cli, "DEFAULT_BUDGET", 4)
        argv = ["table", "--game", "delete-nim", "--format", "csv", "--bound"]
        assert cli.main(argv + ["1"]) == 0
        assert cli.main(argv + ["2"]) == 4
        assert capsys.readouterr().err == "error: table to bound 2 exceeds the budget of 4 units\n"

    def test_huge_bound_exits_4(self, capsys):
        start = time.perf_counter()
        assert cli.main(["table", "--game", "vdn", "--bound", "200000"]) == 4
        assert time.perf_counter() - start < 5.0  # refused before any grid is built
        assert capsys.readouterr().err == (
            "error: table to bound 200000 exceeds the budget of 67108864 units\n"
        )

    @pytest.mark.parametrize("game", ["delete-nim", "vdn"])
    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_bytes_match_independent_renderer(self, game, fmt, capsys, tmp_path):
        # compared row by row, so a mismatch in a one-line json table of
        # 0.8 MB reports one row rather than diffing the whole line; 100 is
        # the first bound with three-digit text columns
        lo = 0 if game == "delete-nim" else 1
        bounds = list(range(lo, 21)) + ([150] if fmt != "text" else [99, 100])
        for bound in bounds:
            per_row = 1 if fmt == "text" else bound + 1 - lo
            want = _table_rows(_reference_table(game, bound, fmt), fmt, lo, per_row)
            argv = ["table", "--game", game, "--bound", str(bound), "--format", fmt]
            path = tmp_path / f"{game}-{bound}.{fmt}"
            assert cli.main(argv) == 0
            assert cli.main(argv + ["--output", str(path)]) == 0
            for table in (capsys.readouterr().out, path.read_text()):
                assert _table_rows(table, fmt, lo, per_row) == want, (game, fmt, bound)

    @pytest.mark.parametrize(
        "game,bound,fmt",
        [(game, bound, fmt) for game, bound in (("delete-nim", 1023), ("vdn", 1024))
         for fmt in ("csv", "json")] + [("delete-nim", 1023, "text")],
    )
    def test_two_digit_values_match_independent_renderer(self, game, bound, fmt, capsys, tmp_path):
        # the last row, and the last cell of every row, has value 10: (1023, y)
        # and (x, 1023) in Delete Nim, (1024, y) and (x, 1024) in VDN
        lo = 0 if game == "delete-nim" else 1
        xs = [lo, lo + 1, bound // 2, bound - 1, bound]
        value = _paper_value(game)
        assert {value(x, bound) for x in xs} == {value(bound, y) for y in xs} == {10}
        per_row = 1 if fmt == "text" else bound + 1 - lo
        want = _table_rows(_reference_table(game, bound, fmt, xs, value), fmt, lo, per_row)
        argv = ["table", "--game", game, "--bound", str(bound), "--format", fmt]
        path = tmp_path / f"table.{fmt}"
        assert cli.main(argv) == 0
        assert cli.main(argv + ["--output", str(path)]) == 0
        for table in (capsys.readouterr().out, path.read_text()):
            rows = _table_rows(table, fmt, lo, per_row)
            assert len(rows) == 1 + bound + 1 - lo
            assert rows[:1] + [rows[1 + x - lo] for x in xs] == want

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        assert cli.main(["table", "--game", "vdn", "--bound", "3", "--output", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: cannot write {path}: No such file or directory\n"

    def test_refused_table_writes_no_file(self, monkeypatch, tmp_path, capsys):
        # both checks run before the output file is opened
        monkeypatch.setattr(cli, "DEFAULT_BUDGET", 4)
        path = tmp_path / "x.csv"
        argv = ["table", "--format", "csv", "--output", str(path), "--game"]
        assert cli.main(argv + ["delete-nim", "--bound", "2"]) == 4
        assert cli.main(argv + ["vdn", "--bound", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: table to bound 2 exceeds the budget of 4 units\n"
            "error: bound must be >= 1, got 0\n"
        )
        assert not path.exists()

    def test_table_memory_is_linear_in_bound(self):
        # 1.4 million records: a grid, a row list and a record list of them
        # peak above 500 MB
        code, rss_kib, _ = run_cli_peak_rss(
            "table", "--game", "delete-nim", "--bound", "1200", "--format", "json",
            "--output", os.devnull,
        )
        assert code == 0
        assert rss_kib < 100 * 1024

    def test_byte_identical_across_runs(self):
        a = run_cli("table", "--game", "vdn", "--bound", "12", "--format", "json")
        b = run_cli("table", "--game", "vdn", "--bound", "12", "--format", "json")
        assert a.stdout == b.stdout


class TestBestMoveCommand:
    @pytest.mark.parametrize(
        "position,expected",
        [("3,2", "2,0\n"), ("2,2", "P-position\n"), ("0,0", "P-position (terminal)\n")],
    )
    def test_examples(self, position, expected):
        r = run_cli("best-move", "--game", "delete-nim", "--position", position)
        assert r.returncode == 0
        assert r.stdout == expected

    def test_refusal_lists_no_options(self):
        # a million options of 1000000,1 peak near 105 MB; the budget refuses
        # the query before they are listed
        code, rss_kib, out = run_cli_peak_rss(
            "best-move", "--game", "delete-nim", "--position", "1000000,1", timeout=60
        )
        assert code == 4
        assert out == ""
        assert rss_kib < 60 * 1024

    def test_large_nim_down_set_refused_in_seconds(self):
        # 26,982,005 positions of 3 heaps, 80,946,015 units, over the default
        # budget, which is decided from a count
        code, rss_kib, out = run_cli_peak_rss(
            "best-move", "--game", "nim", "--position", "3000,2999,5", timeout=10
        )
        assert (code, out) == (4, "")
        assert rss_kib < 60 * 1024

    def test_nim_ties_break_to_the_smallest_option(self, capsys):
        # several options can restore a zero nim-sum, (7,6,5) -> 6,5,3 or
        # 7,5,2 or 7,6,1; the answer is the smallest canonical one
        for start in combinations_with_replacement(range(8), 3):
            pos = tuple(sorted((h for h in start if h), reverse=True))
            assert cli.main(["best-move", "--game", "nim", "--position", _position_text(pos)]) == 0
            opts = ref_nim_options(pos)
            winning = sorted(q for q in opts if ref_nim_grundy(q) == 0)
            if not opts:
                expected = "P-position (terminal)"
            else:
                expected = _position_text(winning[0]) if winning else "P-position"
            assert capsys.readouterr().out == expected + "\n", pos

    def test_nim(self):
        r = run_cli("best-move", "--game", "nim", "--position", "4,5,6")
        move = tuple(int(t) for t in r.stdout.strip().split(","))
        assert len(move) == 3
        assert move[0] ^ move[1] ^ move[2] == 0


@pytest.mark.parametrize(
    "game,lo,ref_grundy,ref_options",
    [
        ("delete-nim", 0, ref_delete_grundy, ref_delete_options),
        ("vdn", 1, ref_vdn_grundy, ref_vdn_options),
    ],
)
def test_two_heap_queries_match_reference(game, lo, ref_grundy, ref_options, capsys):
    # every position with both heaps <= 40 (the parser puts the larger heap
    # first); the range holds the terminals (0,0) and (1,1) and (1,0)
    for x in range(lo, 41):
        for y in range(lo, x + 1):
            value = ref_grundy(x, y)
            assert cli.main(["grundy", "--game", game, "--position", f"{x},{y}"]) == 0
            assert capsys.readouterr().out.splitlines()[1] == f"engine: {value}"
            assert cli.main(["best-move", "--game", game, "--position", f"{x},{y}"]) == 0
            answer = capsys.readouterr().out.strip()
            opts = ref_options(x, y)
            if value == 0:
                assert answer == ("P-position" if opts else "P-position (terminal)"), (x, y)
                continue
            # ties break to the smallest canonical winning option
            winning = sorted(q for q in opts if ref_grundy(*q) == 0)
            assert answer == _position_text(winning[0]), (x, y, answer)


# a win in each game, the empty Nim position as the winning move, a
# P-position and a terminal position
_ROUTE_CASES = [
    ("delete-nim", "30,7"), ("vdn", "30,7"), ("nim", "7,5,4"), ("nim", "5"),
    ("delete-nim", "2,2"), ("vdn", "1,1"),
]


def _unreachable(*args, **kwargs):
    raise AssertionError("engine.best_move called")


@pytest.mark.parametrize("game,text", _ROUTE_CASES)
def test_best_move_reads_option_values_alone(game, text, monkeypatch, capsys):
    # best-move answers from the engine.option_values map: it calls no
    # engine.best_move and lists no options beyond those option_values
    # lists itself, which for a two-heap game is none
    rules = RULESETS[game]
    options = rules.options
    listed = []

    def counted(p):
        listed.append(p)
        return options(p)

    monkeypatch.setattr(engine, "best_move", _unreachable)
    object.__setattr__(rules, "options", counted)  # Ruleset is frozen
    try:
        engine.option_values(rules, _parse_position(text))
        own = len(listed)
        listed.clear()
        assert cli.main(["best-move", "--game", game, "--position", text]) == 0
    finally:
        object.__setattr__(rules, "options", options)
    assert len(listed) == own
    if game != "nim":
        assert own == 0
    ref_options, ref_value = _REFERENCE_GAMES[game]
    opts = ref_options(_parse_position(text))
    winning = sorted(q for q in opts if ref_value(q) == 0)
    if winning:  # () is a winning move too, so no truth test on the move
        expected = _position_text(winning[0])
    else:
        expected = "P-position" if opts else "P-position (terminal)"
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("game,text", _ROUTE_CASES)
def test_play_engine_moves_read_option_values_alone(game, text, monkeypatch, capsys):
    # an engine turn plays the smallest winning option of the map, or the
    # smallest option from a P-position, with no call to engine.best_move
    def closed(prompt):
        raise EOFError

    monkeypatch.setattr(engine, "best_move", _unreachable)
    monkeypatch.setattr("builtins.input", closed)
    code = cli.main(["play", "--game", game, "--position", text, "--first", "engine"])
    out = capsys.readouterr().out
    ref_options, ref_value = _REFERENCE_GAMES[game]
    opts = ref_options(_parse_position(text))
    if not opts:
        assert (code, out) == (0, f"position: {text}\nyou win\n")
        return
    move = min([q for q in opts if ref_value(q) == 0] or opts)
    shown = _position_text(move)
    played = f"position: {text}\nengine plays {shown}\nposition: {shown}\n"
    if ref_options(move):
        assert (code, out) == (130, played)
    else:
        assert (code, out) == (0, played + "engine wins\n")


# each game from both sides, P-position starts and terminal starts
_PLAY_ROUTE_CASES = [
    ("delete-nim", "9,5", "human"), ("delete-nim", "9,5", "engine"),
    ("vdn", "9,5", "human"), ("vdn", "9,5", "engine"),
    ("nim", "5,3,2", "human"), ("nim", "5,3,2", "engine"),
    ("delete-nim", "2,2", "engine"), ("nim", "3,2,1", "engine"),
    ("delete-nim", "0,0", "engine"), ("vdn", "1,1", "human"), ("nim", "0", "human"),
]


@pytest.mark.parametrize("game,text,first", _PLAY_ROUTE_CASES)
def test_play_lists_options_on_human_turns_only(game, text, first, monkeypatch, capsys):
    # an engine turn answers from the option_values map alone; a human turn
    # lists the options once per prompt, to check the reply, or once to see
    # that the engine moved last.  What option_values lists itself (the Nim
    # kernel pass names the options) is not counted.
    rules = RULESETS[game]
    options, query = rules.options, engine.option_values
    listed, asked, inside = [], [], []

    def counted(p):
        if not inside:
            listed.append(p)
        return options(p)

    def answered(rules, pos, budget=None):
        asked.append(pos)
        inside.append(pos)
        try:
            return query(rules, pos, budget)
        finally:
            inside.pop()

    ref_options, _ = _REFERENCE_GAMES[game]
    transcript: list[str] = []

    def human(prompt):  # one unparsable reply, then the largest option
        transcript.append(capsys.readouterr().out)
        if len(transcript) == 1:
            return "x"
        return _position_text(max(ref_options(_last_position(transcript[-1]))))

    monkeypatch.setattr(engine, "option_values", answered)
    monkeypatch.setattr("builtins.input", human)
    object.__setattr__(rules, "options", counted)  # Ruleset is frozen
    try:
        code = cli.main(["play", "--game", game, "--position", text, "--first", first])
    finally:
        object.__setattr__(rules, "options", options)
    transcript.append(capsys.readouterr().out)
    lines = "".join(transcript).splitlines()
    assert code == 0
    # a position line is the engine's turn when it plays or loses next
    turns = [(_parse_position(line.removeprefix("position: ")),
              after.startswith(("engine plays ", "you win")))
             for line, after in zip(lines, lines[1:] + [""]) if line.startswith("position: ")]
    assert asked == [pos for pos, engine_turn in turns if engine_turn]
    assert listed == [pos for pos, engine_turn in turns if not engine_turn]


def test_queries_answer_the_same_warm_and_cold(monkeypatch, capsys):
    # the engine keeps its two-heap and Nim tables for the whole process;
    # what earlier calls built changes no output, exit code or refusal
    nim_units = ref_nim_units((24, 20, 13))
    calls = [
        (["grundy", "--game", "delete-nim", "--position", "300,17"], []),
        (["best-move", "--game", "vdn", "--position", "41,40"], []),
        (["grundy", "--game", "delete-nim", "--position", "3,9", "--budget", "99"], []),
        (["best-move", "--game", "delete-nim", "--position", "9,3", "--budget", "100"], []),
        (["grundy", "--game", "vdn", "--position", "0,3"], []),
        (["best-move", "--game", "delete-nim", "--position", "255,0"], []),
        (["play", "--game", "vdn", "--position", "60,9", "--first", "engine"], []),
        (["grundy", "--game", "vdn", "--position", "513,2"], []),
        (["best-move", "--game", "vdn", "--position", "7,7"], []),
        (["grundy", "--game", "delete-nim", "--position", "0,0", "--budget", "0"], []),
        (["best-move", "--game", "delete-nim", "--position", "640,639"], []),
        (["grundy", "--game", "nim", "--position", "24,20,13", "--budget", str(nim_units - 1)], []),
        (["grundy", "--game", "nim", "--position", "24,20,13", "--budget", str(nim_units)], []),
        (["best-move", "--game", "nim", "--position", "13,20,24", "--budget", str(nim_units - 1)],
         []),
        (["best-move", "--game", "nim", "--position", "13,20,24", "--budget", str(nim_units)], []),
        (["grundy", "--game", "nim", "--position", "0", "--budget", "0"], []),
        (["best-move", "--game", "nim", "--position", "0"], []),
        (["best-move", "--game", "nim", "--position", "7,7"], []),
        (["grundy", "--game", "nim", "--position", "9,9,9,9"], []),
        (["play", "--game", "nim", "--position", "24,20,13", "--first", "engine"], ["24,20,9"]),
        (["grundy", "--game", "nim", "--position", "30,2"], []),
        (["best-move", "--game", "nim", "--position", "28,28,28"], []),
    ]
    replies: list = []

    def scripted(prompt):
        print(prompt, end="")
        if not replies:
            raise EOFError
        return replies.pop(0)

    monkeypatch.setattr("builtins.input", scripted)

    def answer(argv, script=()):
        replies[:] = script
        code = cli.main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    cold = []
    for argv, script in calls:
        monkeypatch.setattr(engine, "_TABLES", engine._new_tables())
        cold.append(answer(argv, script))
    monkeypatch.setattr(engine, "_TABLES", engine._new_tables())
    answer(["grundy", "--game", "vdn", "--position", "700,1"])
    for _ in range(2):  # the first pays for the second, which grows the 3-heap table
        answer(["grundy", "--game", "nim", "--position", "24,24,24"])
    assert engine._TABLES["nim"].known[3][1] == 25
    assert [answer(argv, script) for argv, script in calls] == cold
    two_heap = [0, 0, 4, 0, 2, 0, 130, 0, 0, 4, 0]
    assert [code for code, _, _ in cold] == two_heap + [4, 0, 4, 0, 0, 0, 0, 0, 130, 0, 0]
    assert engine._TABLES["nim"].known[3][1] == 29  # grown again, from where it stopped
    assert cold[-3][1].endswith("engine plays 24,17,9\nposition: 24,17,9\nyour move> ")


@pytest.mark.parametrize("game", ["delete-nim", "vdn"])
@pytest.mark.parametrize("command", ["grundy", "best-move"])
def test_two_heap_query_budget_is_the_full_grid(command, game, capsys):
    # a two-heap query is charged (max + 1)**2 cells before any work: 51**2
    # here, and (terminal + 1)**2 at the terminal position
    argv = [command, "--game", game, "--position", "50,3", "--budget"]
    assert cli.main(argv + ["2600"]) == 4
    assert capsys.readouterr() == (
        "", f"error: {game} position 50,3 exceeds the budget of 2600 units\n"
    )
    assert cli.main(argv + ["2601"]) == 0
    capsys.readouterr()
    terminal = 0 if game == "delete-nim" else 1
    cells = (terminal + 1) ** 2
    argv = [command, "--game", game, "--position", f"{terminal},{terminal}", "--budget"]
    assert cli.main(argv + [str(cells - 1)]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        f"error: {game} position {terminal},{terminal} exceeds the budget of {cells - 1} units\n"
    )


@pytest.mark.parametrize("text", ["5", "4,4", "6,3,1"])
@pytest.mark.parametrize("command", ["grundy", "best-move"])
def test_nim_query_budget_is_the_down_set(command, text, capsys):
    # a Nim query is charged its heap count per position below it, before
    # any work
    pos = tuple(int(h) for h in text.split(","))
    n = ref_nim_units(pos)
    argv = [command, "--game", "nim", "--position", text, "--budget"]
    assert cli.main(argv + [str(n - 1)]) == 4
    assert capsys.readouterr() == (
        "", f"error: nim position {text} exceeds the budget of {n - 1} units\n"
    )
    assert cli.main(argv + [str(n)]) == 0
    out = capsys.readouterr()
    value = ref_nim_grundy(pos)
    if command == "grundy":
        outcome = "N" if value else "P"
        assert out.out == f"closed-form: {value}\nengine: {value}\noutcome: {outcome}\n"
    elif value:
        move = tuple(int(h) for h in out.out.split(",")) if out.out != "0\n" else ()
        assert move in ref_nim_options(pos) and ref_nim_grundy(move) == 0
    else:
        assert out.out == "P-position\n"
    assert out.err == ""


# Every job, its argv, the text its refusal names it by, its units worked
# out here (a two-heap grid's (bound + 1)**2 cells, sum's T + T**2, a Nim
# query's heaps per position below it) and its exit code when admitted;
# table has no --budget and is charged against DEFAULT_BUDGET.
_QUERIES = {
    "delete-nim": ("7,3", 8 * 8), "vdn": ("7,3", 8 * 8), "nim": ("4,2,1", ref_nim_units((4, 2, 1))),
}
_JOBS = {
    **{f"verify-{name}": (["verify", "--check", name, "--bound", "6"],
                          f"{name} to bound 6", 7 * 7, 0)
       for name in ("delete-nim", "vdn", "proof-steps", "iso")},
    "verify-sum": (["verify", "--check", "sum", "--bound", "3"], "sum to bound 3", 10 + 10 * 10, 0),
    "verify-bouton": (["verify", "--check", "bouton", "--heaps", "2", "--size", "3"],
                      "bouton to bound 2x3", 2 * comb(3 + 2, 2), 0),
    "table": (["table", "--game", "vdn", "--bound", "5"], "table to bound 5", 6 * 6, 0),
    **{f"{command}-{game}": ([command, "--game", game, "--position", pos],
                             f"{game} position {pos}", units, 0)
       for command in ("grundy", "best-move") for game, (pos, units) in _QUERIES.items()},
    **{f"play-{game}": (["play", "--game", game, "--position", pos, "--first", "engine"],
                        f"{game} position {pos}", units, 130)
       for game, (pos, units) in _QUERIES.items()},
}


@pytest.mark.parametrize("argv, job, n, code", _JOBS.values(), ids=_JOBS.keys())
def test_every_job_is_refused_one_unit_below_its_charge(argv, job, n, code, monkeypatch, capsys):
    # one template for every refusal, and every job admitted at exactly its
    # units; play's human never gets a turn (closed stdin)
    def closed(prompt):
        raise EOFError

    monkeypatch.setattr("builtins.input", closed)

    def run(budget: int) -> int:
        if argv[0] == "table":
            monkeypatch.setattr(cli, "DEFAULT_BUDGET", budget)
            return cli.main(argv)
        return cli.main(argv + ["--budget", str(budget)])

    assert run(n - 1) == 4
    assert capsys.readouterr().err == f"error: {job} exceeds the budget of {n - 1} units\n"
    assert run(n) == code
    assert capsys.readouterr().err == ""


_ONES = ",".join(["1"] * 70_000)


@pytest.mark.parametrize(
    "game, text, code, head, tail",
    [
        ("nim", _ONES, 4, "nim position 1,", "... (70000 heaps, largest 1) exceeds the budget"),
        ("delete-nim", _ONES, 2, "delete-nim positions are pairs x,y, got '1,", "... (70000 heaps, largest 1)"),
        ("nim", _ONES[:-1] + "x", 2, "malformed position '1,1,", "'... (70000 heaps)"),
        ("nim", _ONES[:-1] + "-1", 2, "Nim heaps must be >= 0, got (1, 1,", "... (70000 heaps)"),
    ],
    ids=["nim-budget", "pairs", "malformed", "negative"],
)
def test_error_messages_echo_a_bounded_position(game, text, code, head, tail, capsys):
    # a message echoes a prefix of a long position, its heap count and its
    # largest heap, not the whole 140 kB of text
    assert cli.main(["best-move", "--game", game, "--position", text]) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.encode()) < 300
    assert out.err.startswith("error: " + head) and tail in out.err


_HUGE = "9" * 4000


_BOUND = f" to bound {'9' * 60}... (4000 digits)"


@pytest.mark.parametrize(
    "argv, job",
    [
        (["verify", "--check", "proof-steps", "--bound", _HUGE], "proof-steps" + _BOUND),
        (["verify", "--check", "iso", "--bound", _HUGE], "iso" + _BOUND),
        (["verify", "--check", "delete-nim", "--bound", _HUGE], "delete-nim" + _BOUND),
        (["table", "--game", "vdn", "--bound", _HUGE], "table" + _BOUND),
        (["grundy", "--game", "delete-nim", "--position", _HUGE + ",1"],
         f"delete-nim position {'9' * 60}... (2 heaps)"),
    ],
    ids=["proof-steps", "iso", "delete-nim", "table", "grundy"],
)
def test_a_huge_bound_is_refused_in_a_bounded_message(argv, job, capsys):
    # the charge, (bound + 1)**2 cells, has 8001 digits, more than str()
    # converts: the message echoes a prefix and the digit count of the bound,
    # or a prefix and the heap count of the position
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert len(err.encode()) < 300
    assert err == f"error: {job} exceeds the budget of 67108864 units\n"


_NEGATIVE = "-" + _HUGE


@pytest.mark.parametrize(
    "argv, code",
    [
        (["grundy", "--game", "delete-nim", f"--position={_NEGATIVE},1"], 2),
        (["grundy", "--game", "vdn", f"--position=1,{_NEGATIVE}"], 2),
        (["verify", "--check", "delete-nim", "--bound", _NEGATIVE], 2),
        (["verify", "--check", "vdn", "--bound", _NEGATIVE], 2),
        (["verify", "--check", "proof-steps", "--bound", _NEGATIVE], 2),
        (["verify", "--check", "sum", "--bound-sum", _NEGATIVE], 2),
        (["verify", "--check", "iso", "--bound", _NEGATIVE], 2),
        (["verify", "--check", "bouton", "--heaps", _NEGATIVE], 2),
        (["verify", "--check", "bouton", "--heaps", _HUGE], 4),
        (["grundy", "--game", "nim", "--position", _HUGE], 4),
        (["grundy", "--game", "nim", "--position", "3", "--budget", _NEGATIVE], 4),
        (["verify", "--check", "sum", "--bound-sum", "3", "--budget", _NEGATIVE], 4),
    ],
    ids=[
        "delete-nim-position", "vdn-position", "delete-nim", "vdn", "proof-steps", "sum", "iso",
        "bouton-heaps", "bouton-budget", "nim-heap-limit", "nim-budget", "sum-budget",
    ],
)
def test_a_huge_number_is_echoed_in_a_bounded_message(argv, code, capsys):
    # every message that echoes a number gives at most 60 of its digits
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert len(err.encode()) < 300
    assert f"{'9' * 60}... (4000 digits)" in err


@pytest.mark.parametrize(
    "argv, tail",
    [
        # table takes no --budget: argparse names the leftover arguments
        (["table", "--game", "vdn", "--bound", "3", "--budget", _NEGATIVE],
         f"error: unrecognized arguments: --budget -{'9' * 60}... (4000 digits)\n"),
        (["table", "--game", "vdn", "--bound", "x" + _HUGE],
         f"error: argument --bound: invalid int value: 'x{'9' * 59}'... (1 heaps)\n"),
        # past the digits int() converts, a number is shortened as text
        (["table", "--game", "vdn", "--bound", "3", "9" * 5000],
         f"error: unrecognized arguments: {'9' * 60}... (1 heaps)\n"),
    ],
    ids=["unrecognized", "invalid-int", "past-int-digits"],
)
def test_a_long_argument_is_echoed_in_a_bounded_usage_error(argv, tail, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 300
    assert err.endswith(tail)


# Budgets above cli.MAX_BUDGET = 2**62, each with a job whose arrays numpy
# could not allocate, or could not even index, were it admitted.
_OVER_MAX = {
    "grundy-delete-nim": (["grundy", "--game", "delete-nim", "--position", "1000000000000000,1"],
                          10**40),
    "verify-delete-nim": (["verify", "--check", "delete-nim", "--bound", str(10**11)], 10**30),
    "verify-sum": (["verify", "--check", "sum", "--bound-sum", "100000"], 10**30),
    **{f"verify-{name}-1e20": (["verify", "--check", name, "--bound", str(10**20)], 10**23)
       for name in ("proof-steps", "iso", "delete-nim")},
    **{f"{command}-vdn": ([command, "--game", "vdn", "--position", f"{10**20},3"], 10**23)
       for command in ("best-move", "play")},
    "one-past": (["grundy", "--game", "nim", "--position", "3,2"], 2**62 + 1),
}


@pytest.mark.parametrize("argv, budget", _OVER_MAX.values(), ids=_OVER_MAX.keys())
def test_a_budget_over_the_max_is_a_usage_error(argv, budget, capsys):
    start = time.perf_counter()
    assert cli.main(argv + ["--budget", str(budget)]) == 2
    assert time.perf_counter() - start < 1
    out = capsys.readouterr()
    assert out.out == ""
    lines = [line for line in out.err.splitlines() if "error:" in line]
    assert len(lines) == 1 and len(lines[0].encode()) < 300
    assert lines[0].endswith(f": error: argument --budget: {budget} exceeds the largest budget, "
                             f"{cli.MAX_BUDGET}")


def test_the_max_budget_is_admitted(capsys):
    assert cli.MAX_BUDGET == 2**62
    budget = ["--budget", str(cli.MAX_BUDGET)]
    assert cli.main(["grundy", "--game", "nim", "--position", "3,2", *budget]) == 0
    assert capsys.readouterr().out == "closed-form: 1\nengine: 1\noutcome: N\n"
    # (10**15 + 1)**2 cells are over it: refused from the count, before any work
    assert cli.main(["grundy", "--game", "delete-nim", "--position", "1000000000000000,1",
                     *budget]) == 4
    assert capsys.readouterr().err == (
        f"error: delete-nim position 1000000000000000,1 exceeds the budget of {2**62} units\n"
    )


def test_out_of_memory_exits_4(monkeypatch, capsys):
    # a job the budget admits can still want more memory than there is:
    # one line, exit 4, and verify reports the checks that finished first
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 7.11 PiB for an array with shape (10,)")

    monkeypatch.setattr(engine, "_fill", out_of_memory)
    assert cli.main(["grundy", "--game", "delete-nim", "--position", "3,2"]) == 4
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: out of memory\n")
    argv = ["verify", "--check", "bouton", "--check", "delete-nim", "--bound", "3"]
    assert cli.main(argv) == 4
    out = capsys.readouterr()
    assert out.out.startswith("[PASS] bouton: ") and out.out.endswith("\n1/1 checks passed\n")
    assert out.err == "error: out of memory\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--game", "vdn", "--bound", "3", "--budget", "-5"],
        ["table", "--game", "vdn", "--bound", "x"],
        ["table", "--game", "nim", "--bound", "3"],
        ["verify", "--check", "bogus"],
        ["grundy", "--game", "vdn"],
        ["frobnicate", "x" * 60],
    ],
)
def test_a_short_usage_error_is_argparse_own(argv, monkeypatch, capsys):
    # arguments of at most 60 characters are echoed whole, byte for byte
    assert cli.main(argv) == 2
    ours = capsys.readouterr()
    monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ours
    assert "error: " in ours.err


def test_commands_run_no_generic_engine(monkeypatch, capsys):
    # every command answers from the kernels; the generic engine is the
    # reference the tests pin them against, and no command calls it
    def unreachable(*args, **kwargs):
        raise AssertionError("a command ran the generic engine")

    monkeypatch.setattr(engine, "grundy", unreachable)
    monkeypatch.setattr(engine, "_TABLES", engine._new_tables())
    runs = [
        ["verify", "--all", "--bound", "24", "--heaps", "3", "--size", "6", "--bound-sum", "8"],
        ["verify", "--all", "--bound", "24", "--format", "json"],
    ]
    for game, position in (("delete-nim", "9,4"), ("vdn", "9,4"), ("nim", "7,5,3")):
        runs.append(["grundy", "--game", game, "--position", position])
        runs.append(["best-move", "--game", game, "--position", position])
    for game in ("delete-nim", "vdn"):
        for fmt in ("text", "csv", "json"):
            runs.append(["table", "--game", game, "--bound", "12", "--format", fmt])
    for argv in runs:
        assert cli.main(argv) == 0, argv
    assert capsys.readouterr().err == ""


class TestVerifyCommand:
    def test_single_check_text(self):
        r = run_cli("verify", "--check", "iso", "--bound", "16")
        assert r.returncode == 0
        assert r.stdout.startswith("[PASS] iso: bound=16 checked=136 mismatches=0")
        assert r.stdout.rstrip().endswith("1/1 checks passed")

    def test_bouton_flags(self):
        r = run_cli("verify", "--check", "bouton", "--heaps", "3", "--size", "8")
        assert r.returncode == 0
        assert "bound=3x8" in r.stdout

    def test_all_small_bounds_json(self):
        r = run_cli(
            "verify", "--all", "--bound", "16", "--heaps", "2", "--size", "5",
            "--bound-sum", "4", "--format", "json",
        )
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert [rec["name"] for rec in data] == verification.CHECK_NAMES
        assert all(rec["passed"] for rec in data)
        assert data[0]["bound"] == 16
        assert data[3]["bound"] == 4  # sum kept its dedicated flag

    def test_bound_precedence(self):
        r = run_cli(
            "verify", "--check", "vdn", "--check", "iso", "--bound", "24", "--bound-iso", "8",
        )
        assert "vdn: bound=24" in r.stdout  # --bound beats the default
        assert "iso: bound=8" in r.stdout  # per-check flag beats --bound

    def test_budget_exhaustion_exits_4(self):
        r = run_cli("verify", "--check", "delete-nim", "--budget", "100")
        assert r.returncode == 4
        r = run_cli(
            "verify", "--check", "proof-steps", "--bound-proof-steps", "60", "--budget", "100"
        )
        assert r.returncode == 4

    def test_unknown_check_rejected(self):
        r = run_cli("verify", "--check", "bogus")
        assert r.returncode == 2

    def test_workers_flag_rejected(self, capsys):
        assert cli.main(["verify", "--check", "vdn", "--workers", "2"]) == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_config_flag_rejected(self, capsys):
        # every bound has its own flag; there is no bound file
        assert cli.main(["verify", "--check", "vdn", "--config", "cfg.json"]) == 2
        assert "unrecognized arguments: --config cfg.json" in capsys.readouterr().err

    def test_domain_error_keeps_finished_reports(self, capsys):
        # vdn refuses bound 0 after delete-nim at 0 has run and passed
        argv = ["verify", "--all", "--bound", "0"]
        assert cli.main(argv + ["--format", "json"]) == 2
        out = capsys.readouterr()
        [record] = json.loads(out.out)
        assert (record["name"], record["checked"], record["passed"]) == ("delete-nim", 1, True)
        assert out.err == "error: bound must be >= 1, got 0\n"
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        lines = out.out.splitlines()
        assert lines[0].startswith("[PASS] delete-nim: bound=0 checked=1 mismatches=0 ")
        assert lines[1:] == ["1/1 checks passed"]
        assert out.err == "error: bound must be >= 1, got 0\n"

    def test_budget_error_keeps_finished_reports(self, capsys):
        # sum exceeds the budget after three checks have passed
        argv = ["verify", "--all", "--bound", "17", "--heaps", "2", "--size", "5",
                "--budget", "324"]
        error = "error: sum to bound 17 exceeds the budget of 324 units\n"
        assert cli.main(argv + ["--format", "json"]) == 4
        out = capsys.readouterr()
        records = json.loads(out.out)
        assert [rec["name"] for rec in records] == ["delete-nim", "vdn", "bouton"]
        assert all(rec["passed"] for rec in records)
        assert out.err == error
        assert cli.main(argv) == 4
        out = capsys.readouterr()
        lines = out.out.splitlines()
        assert [line.split(":")[0] for line in lines[:3]] == [
            "[PASS] delete-nim", "[PASS] vdn", "[PASS] bouton"
        ]
        assert lines[3:] == ["3/3 checks passed"]
        assert out.err == error

    def test_stretch_sweep_memory_is_linear_in_bound(self):
        # A full (bound+1)^2 grid pair at this bound peaks above 2 GB.
        code, rss_kib, report = run_cli_peak_rss(
            "verify", "--check", "delete-nim", "--bound-delete-nim", "8191", "--format", "json"
        )
        assert code == 0
        assert rss_kib < 150 * 1024
        [record] = json.loads(report)
        assert record["passed"]
        assert record["checked"] == 8192 * 8193 // 2

    def test_certificate_sweeps_memory_is_linear_in_bound(self):
        # Keeping every heap's option set in both sweeps peaks near 360 MB at
        # this bound, and one option set per position takes minutes.
        code, rss_kib, report = run_cli_peak_rss(
            "verify", "--check", "proof-steps", "--check", "iso", "--bound", "2048",
            "--format", "json",
        )
        assert code == 0
        assert rss_kib < 150 * 1024
        records = json.loads(report)
        assert [(rec["name"], rec["checked"], rec["passed"]) for rec in records] == [
            ("proof-steps", 2049 * 2050 // 2, True),
            ("iso", 2048 * 2049 // 2, True),
        ]

    @pytest.mark.parametrize("check", ["proof-steps", "iso"])
    def test_certificate_sweeps_at_the_largest_default_bound(self, check):
        # 8191, the largest bound the default budget admits: 33.6 million
        # positions and 16.8 million heap options, whose layouts come in
        # bands of heaps, so that doubling the bound from 4096 adds less
        # than 2 MB of peak RSS; iso's layouts and images of every heap
        # option at once peaked at 350 MB here
        peaks = []
        for bound in (4096, 8191):
            code, rss_kib, report = run_cli_peak_rss(
                "verify", "--check", check, "--bound", str(bound), "--format", "json", timeout=60
            )
            assert code == 0
            [record] = json.loads(report)
            side = bound + (check == "proof-steps")
            assert (record["checked"], record["passed"]) == (side * (side + 1) // 2, True)
            peaks.append(rss_kib)
        assert peaks[1] - peaks[0] < 2 * 1024
        assert peaks[1] < 60 * 1024

    def test_sum_budget_threshold(self, capsys):
        # sum is charged its T components and its T**2 sums, so the sweep is
        # over budget exactly below T + T**2
        for bound in range(13):
            t = (bound + 1) * (bound + 2) // 2
            argv = ["verify", "--check", "sum", "--bound-sum", str(bound), "--budget"]
            for budget in (0, t - 1, t + t * t - 1):
                assert cli.main(argv + [str(budget)]) == 4
                out = capsys.readouterr()
                assert out.out == "0/0 checks passed\n"
                assert out.err == (
                    f"error: sum to bound {bound} exceeds the budget of {budget} units\n"
                )
            assert cli.main(argv + [str(t + t * t)]) == 0
            out = capsys.readouterr()
            assert out.out.startswith(
                f"[PASS] sum: bound={bound} checked={t * t} mismatches=0 "
            )
            assert out.err == ""

    def test_sum_sweep_memory(self):
        # 741 k sums.  The generic engine memoizes every one: at bound 32
        # (315 k sums) it took 18 s and peaked at 116 MB.  The sum kernel
        # keeps one table of (bound + 1) * T masks, T the 861 positions:
        # 0.28 MB here.
        code, rss_kib, report = run_cli_peak_rss(
            "verify", "--check", "sum", "--bound-sum", "40", "--format", "json", timeout=60
        )
        assert code == 0
        assert rss_kib < 60 * 1024
        [record] = json.loads(report)
        assert (record["checked"], record["passed"]) == ((41 * 42 // 2) ** 2, True)

    def test_sum_sweep_memory_at_the_stretch_bound(self):
        # 66 M sums over T = 8128 positions: one table of 127 * T masks is
        # 8.3 MB, and the peak sat 15.6 MB above bound 1's here; a second
        # table, one mask per (heap size, position) of the left board, put
        # it 23.6 MB above
        peaks = []
        for bound in (1, 126):
            code, rss_kib, report = run_cli_peak_rss(
                "verify", "--check", "sum", "--bound-sum", str(bound), "--format", "json",
                timeout=120,
            )
            assert code == 0
            [record] = json.loads(report)
            t = (bound + 1) * (bound + 2) // 2
            assert (record["checked"], record["passed"]) == (t * t, True)
            peaks.append(rss_kib)
        assert peaks[1] - peaks[0] < 20 * 1024

    @pytest.mark.parametrize(
        "args",
        [
            # 12 M positions: listing them ran past 90 s and 1.1 GB
            ["--check", "bouton", "--heaps", "4", "--size", "128", "--budget", "1000000"],
            # 9,003,000 units: charged its 3,001 positions, the kernel ran (2.5 s, 105 MB)
            ["--check", "bouton", "--heaps", "3000", "--size", "1", "--budget", "1000000"],
            # 4.5 M components: listing them peaked at 454 MB
            ["--check", "sum", "--bound-sum", "3000"],
        ],
    )
    def test_refusal_builds_nothing(self, args):
        code, rss_kib, out = run_cli_peak_rss("verify", *args, timeout=30)
        assert code == 4
        assert out == "0/0 checks passed\n"
        assert rss_kib < 60 * 1024

    def test_bouton_reports_at_the_budget_edge(self, capsys):
        # heaps 1-4 x sizes 0-12: refused one unit below the charge of a Nim
        # query on size,...,size (heaps units per position, 0 for size 0),
        # then the report, which all but its elapsed time pins
        for heaps in range(1, 5):
            for size in range(13):
                count = comb(size + heaps, heaps)
                n = heaps * count if size else 0
                argv = ["verify", "--check", "bouton", "--heaps", str(heaps),
                        "--size", str(size), "--budget"]
                assert cli.main(argv + [str(n - 1)]) == 4
                assert capsys.readouterr() == (
                    "0/0 checks passed\n",
                    f"error: bouton to bound {heaps}x{size} exceeds the budget of {n - 1} units\n",
                )
                assert cli.main(argv + [str(n)]) == 0
                out = re.sub(r"elapsed=[0-9]+\.[0-9]ms", "elapsed=Xms", capsys.readouterr().out)
                assert out == (
                    f"[PASS] bouton: bound={heaps}x{size} checked={count} mismatches=0 "
                    "elapsed=Xms\n1/1 checks passed\n"
                )
                assert cli.main(argv + [str(n), "--format", "json"]) == 0
                (record,) = json.loads(capsys.readouterr().out)
                assert list(record) == [
                    "name", "bound", "checked", "mismatches", "elapsed-milliseconds", "passed"
                ]
                del record["elapsed-milliseconds"]
                assert record == {
                    "name": "bouton", "bound": [heaps, size], "checked": count,
                    "mismatches": [], "passed": True,
                }

    def test_mismatch_exits_1(self, monkeypatch, capsys):
        failing = verification.VerificationReport("vdn", 4, 10, [("2,1", 1, 9)], 0.0)
        monkeypatch.setattr(
            verification, "run_check", lambda name, bound, budget: failing
        )
        code = cli.main(["verify", "--check", "vdn"])
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "0/1 checks passed" in out


class TestPlayCommand:
    def test_forced_win_for_human(self):
        r = run_cli(
            "play", "--game", "delete-nim", "--position", "1,0", stdin="0,0\n"
        )
        assert r.returncode == 0
        assert "you win" in r.stdout

    def test_engine_opening_move(self):
        r = run_cli(
            "play", "--game", "delete-nim", "--position", "3,2", "--first", "engine",
            stdin="",
        )
        assert r.returncode == 130
        assert "engine plays 2,0" in r.stdout

    def test_engine_wins_from_p_position_start(self):
        # (2,2) is a P-position: whatever the human does, the engine wins
        r = run_cli(
            "play", "--game", "delete-nim", "--position", "2,2", stdin="1,0\n"
        )
        # human to (1,0); engine must play 0,0 and win
        assert r.returncode == 0
        assert "engine plays 0,0" in r.stdout
        assert "engine wins" in r.stdout

    def test_illegal_input_reprompts(self):
        r = run_cli(
            "play", "--game", "delete-nim", "--position", "1,0",
            stdin="9,9\nnonsense\n0,0\n",
        )
        assert r.returncode == 0
        assert r.stdout.count("illegal move") == 2
        assert "you win" in r.stdout

    def test_non_ascii_digit_moves_reprompt(self, monkeypatch, capsys):
        # 1,0 reaches only 0,0; each of these would have parsed as some position
        moves = iter(["0_0,0", "\uff10,\uff10", "+0,0", " 0 , 0 "])
        monkeypatch.setattr("builtins.input", lambda prompt: next(moves))
        assert cli.main(["play", "--game", "delete-nim", "--position", "1,0"]) == 0
        out = capsys.readouterr().out
        assert out.count("illegal move: cannot parse") == 3
        assert out.endswith("position: 0,0\nyou win\n")

    def test_eof_aborts_130(self):
        r = run_cli("play", "--game", "delete-nim", "--position", "5,5", stdin="")
        assert r.returncode == 130

    @pytest.mark.parametrize("game", ["delete-nim", "vdn", "nim"])
    def test_engine_moves_match_reference(self, game, monkeypatch, capsys):
        # every start with heaps <= 12 (Nim: 2-3 heaps <= 5), engine first;
        # the human answers with the largest option
        options, value = _REFERENCE_GAMES[game]
        if game == "nim":
            starts = [c for k in (2, 3) for c in combinations_with_replacement(range(1, 6), k)]
        else:
            lo = 0 if game == "delete-nim" else 1
            starts = [(x, y) for x in range(lo, 13) for y in range(lo, x + 1)]
        transcript: list[str] = []

        def human(prompt):
            transcript.append(capsys.readouterr().out)
            return _position_text(max(options(_last_position(transcript[-1]))))

        monkeypatch.setattr("builtins.input", human)
        engine_moves = 0
        for start in starts:
            transcript.clear()
            argv = ["play", "--game", game, "--position", _position_text(start)]
            assert cli.main(argv + ["--first", "engine"]) == 0
            transcript.append(capsys.readouterr().out)
            lines = "".join(transcript).splitlines()
            for before, line in zip(lines, lines[1:]):
                if not line.startswith("engine plays "):
                    continue
                pos = _parse_position(before.removeprefix("position: "))
                move = _parse_position(line.removeprefix("engine plays "))
                opts = options(pos)
                winning = sorted(q for q in opts if value(q) == 0)
                assert move in (winning or [min(opts)]), (start, pos, move)
                engine_moves += 1
        assert engine_moves > len(starts)

    @pytest.mark.parametrize("game", ["delete-nim", "vdn"])
    def test_budget_is_the_full_grid_of_the_start(self, game, monkeypatch, capsys):
        # refused before the first output line; later positions only shrink
        argv = ["play", "--game", game, "--position", "50,3", "--first", "engine", "--budget"]
        assert cli.main(argv + ["2600"]) == 4
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {game} position 50,3 exceeds the budget of 2600 units\n"

        def closed(prompt):
            raise EOFError

        monkeypatch.setattr("builtins.input", closed)
        assert cli.main(argv + ["2601"]) == 130
        out = capsys.readouterr()
        assert out.out.startswith("position: 50,3\nengine plays ")
        assert out.err == ""

    def test_nim_budget_is_the_down_set_of_the_start(self, monkeypatch, capsys):
        n = ref_nim_units((6, 3, 1))
        argv = ["play", "--game", "nim", "--position", "6,3,1", "--first", "engine", "--budget"]
        assert cli.main(argv + [str(n - 1)]) == 4
        assert capsys.readouterr() == (
            "", f"error: nim position 6,3,1 exceeds the budget of {n - 1} units\n"
        )

        def closed(prompt):
            raise EOFError

        monkeypatch.setattr("builtins.input", closed)
        assert cli.main(argv + [str(n)]) == 130
        out = capsys.readouterr()
        assert out.out.startswith("position: 6,3,1\nengine plays ")
        assert out.err == ""

    def test_play_memory_is_linear_in_heap(self):
        # a full grid to 8000 peaks near 280 MB; the kernel up to the
        # engine's options needs O(heap) memory
        code, rss_kib, transcript = run_cli_peak_rss(
            "play", "--game", "delete-nim", "--position", "8000,7", "--first", "engine"
        )
        assert code == 130
        assert rss_kib < 100 * 1024
        assert transcript.startswith("position: 8000,7\nengine plays ")


_REFERENCE_GAMES = {
    "delete-nim": (lambda p: ref_delete_options(*p), lambda p: ref_delete_grundy(*p)),
    "vdn": (lambda p: ref_vdn_options(*p), lambda p: ref_vdn_grundy(*p)),
    "nim": (ref_nim_options, ref_nim_grundy),
}


def _position_text(pos) -> str:
    return ",".join(map(str, pos)) or "0"


def _parse_position(text: str) -> tuple:
    # "0" is the empty Nim position; no two-heap position prints as one number
    return () if text == "0" else tuple(int(v) for v in text.split(","))


def _last_position(out: str) -> tuple:
    last = [line for line in out.splitlines() if line.startswith("position: ")][-1]
    return _parse_position(last.removeprefix("position: "))


class TestUsage:
    def test_no_arguments(self):
        r = run_cli()
        assert r.returncode == 2

    def test_help_exits_0(self):
        r = run_cli("--help")
        assert r.returncode == 0
        assert "verify" in r.stdout

    def test_unknown_subcommand(self):
        r = run_cli("frobnicate")
        assert r.returncode == 2

    def test_main_returns_usage_code_in_process(self, capsys):
        assert cli.main([]) == 2
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    def test_dispatch_finds_a_replaced_command(self, monkeypatch, capsys):
        # the parser is built once, but each call looks its cmd_* up afresh
        argv = ["best-move", "--game", "delete-nim", "--position", "3,2"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "2,0\n"

        def patched(args):
            print("patched")
            return 7

        monkeypatch.setattr(cli, "cmd_best_move", patched)
        assert cli.main(argv) == 7
        assert capsys.readouterr().out == "patched\n"

    def test_reader_closing_early_exits_141(self):
        # 4 million csv rows: far more than a pipe buffers, so the writer is
        # still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "impartial", "table", "--game", "delete-nim",
             "--bound", "2000", "--format", "csv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            assert proc.stdout.readline() == "x,y,grundy\n"
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert code == cli.EXIT_BROKEN_PIPE == 141
        assert err == ""

    def test_broken_pipe_with_in_memory_stdout(self, monkeypatch, capsys):
        # stdout without a file descriptor, as when main is called in-process
        def closed(args):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "cmd_table", closed)
        assert cli.main(["table", "--game", "vdn", "--bound", "3"]) == 141
        assert capsys.readouterr().err == ""

        # the help's own write too, which argparse would drop
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", Closed())
        assert cli.main(["--help"]) == 141
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["grundy", "--game", "nim", "--position", "3,2"],
        ["best-move", "--game", "delete-nim", "--position", "3,2"],
        ["verify", "--check", "vdn", "--bound", "10"],
        ["verify", "--check", "vdn", "--bound", "10", "--format", "json"],
        ["table", "--game", "delete-nim", "--bound", "3"],
        ["--help"],
        ["verify", "--help"],
    ], ids=["grundy", "best-move", "verify-text", "verify-json", "table", "help", "verify-help"])
    def test_a_failed_write_to_stdout_exits_2(self, argv, monkeypatch):
        # a full disk, in memory: every write raises, and no descriptor is left to silence
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", Full())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(argv) == 2
        assert err.getvalue() == "error: cannot write stdout: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("bound", ["3", "300"], ids=["on-close", "on-write"])
    def test_a_failed_write_to_output_exits_2(self, bound, capsys):
        # 3 fails as the file is closed, 300 while rows are written; either
        # way the file is closed and the message is that of an unopenable path
        argv = ["table", "--game", "delete-nim", "--bound", bound, "--output", "/dev/full"]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: cannot write /dev/full: No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv, line", [
        (["grundy", "--game", "nim", "--position", "3,2"],
         "error: cannot write stdout: No space left on device\n"),
        (["table", "--game", "delete-nim", "--bound", "300", "--output", "/dev/full"],
         "error: cannot write /dev/full: No space left on device\n"),
        (["--help"], "error: cannot write stdout: No space left on device\n"),
    ], ids=["stdout", "output", "help"])
    def test_a_full_device_exits_2_in_one_line(self, argv, line):
        # stdout is silenced, so the exit flush adds no "Exception ignored" line
        with open("/dev/full", "w") as full:
            r = subprocess.run([sys.executable, "-m", "impartial", *argv], stdout=full,
                               stderr=subprocess.PIPE, text=True, timeout=60)
        assert (r.returncode, r.stderr) == (2, line)

    @pytest.mark.parametrize("argv", [
        ["grundy", "--game", "nim", "--position", "3,2"],
        ["table", "--game", "vdn", "--bound", "3"],
        ["--help"],
    ], ids=["grundy", "table", "help"])
    def test_a_closed_stdout_is_not_a_failed_write(self, argv):
        # started with descriptor 1 closed, Python has no sys.stdout and
        # the command writes nothing, the help no more on stderr than a
        # command's output: it still answers 0
        r = subprocess.run([sys.executable, "-m", "impartial", *argv], stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True, timeout=60,
                           preexec_fn=lambda: os.close(1))
        assert (r.returncode, r.stderr) == (0, "")

    def test_the_budget_default_is_read_when_a_command_runs(self, monkeypatch, capsys):
        # the parser is built once, but a command without --budget is
        # charged against DEFAULT_BUDGET as it is when the command runs
        argv = ["best-move", "--game", "delete-nim", "--position", "3,2"]
        assert cli.main(argv) == 0
        monkeypatch.setattr(cli, "DEFAULT_BUDGET", 15)
        assert cli.main(argv) == 4
        assert capsys.readouterr().err == (
            "error: delete-nim position 3,2 exceeds the budget of 15 units\n"
        )
        assert cli.main(argv + ["--budget", "16"]) == 0
        monkeypatch.setattr(cli, "DEFAULT_BUDGET", 16)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "2,0\n2,0\n"


# The command contract under drawn argv: every input answers or fails fast
# with a documented code.  play is left out, as it reads stdin, and so is
# table's --output, as it writes a file.  Budgets and bounds stay small, so
# each example takes milliseconds.
# lone surrogates too: Python decodes argv bytes that are not UTF-8 to them
_CHARS = st.characters() | st.sampled_from("\udc80\udcff")
_PARTS = st.one_of(
    st.sampled_from(["0", "1", "3", "12", "40", "-3", "+2", " 7 ", "", "1_0", "\uff13",
                     "\u0663", "\udcff", "9" * 70, str(1 << 64)]),
    st.text(_CHARS, max_size=4),
)
_POSITIONS = st.one_of(
    st.tuples(st.integers(0, 40), st.integers(0, 40)).map(lambda p: f"{p[0]},{p[1]}"),
    st.lists(st.integers(0, 40).map(str), min_size=1, max_size=3).map(",".join),
    st.lists(_PARTS, max_size=5).map(",".join),
    st.lists(st.sampled_from(["1", "2", "60000"]), min_size=6, max_size=40).map(",".join),
    st.text(_CHARS, min_size=61, max_size=90),
)
# an unknown game or format is drawn about once in ten
_GAMES = st.sampled_from(["delete-nim", "vdn", "nim"] * 3 + ["chess"])
_FORMATS = st.sampled_from(["text", "csv", "json"] * 3 + ["xml"])
_NUMBERS = st.integers(-3, 40).map(str)
# two budgets over cli.MAX_BUDGET, about one drawn budget in eight (draws
# lean to 0): 2**62 + 1 and 40 digits (2**62 itself admits slow jobs)
_OVER_MAX_BUDGETS = [str(2**62 + 1), str(10**39)]
_BUDGETS = st.tuples(st.integers(-3, 1000), st.integers(0, 49)).map(
    lambda d: _OVER_MAX_BUDGETS[d[1]] if d[1] < 2 else str(d[0])
)


@st.composite
def _argv(draw) -> list:
    command = draw(st.sampled_from(["grundy", "best-move", "table", "verify"]))
    if command in ("grundy", "best-move"):
        argv = [command, "--game", draw(_GAMES), "--position", draw(_POSITIONS)]
    elif command == "table":
        argv = [command, "--game", draw(_GAMES), "--bound", draw(_NUMBERS)]
        argv += ["--format", draw(_FORMATS)]
    else:
        checks = draw(st.lists(st.sampled_from([*verification.CHECK_NAMES, "all"]), max_size=3))
        argv = [command, *(f"--{c}" if c == "all" else f"--check={c}" for c in checks)]
        for flag in draw(st.lists(st.sampled_from(
            ["--bound", "--bound-sum", "--bound-proof-steps", "--heaps", "--size"]
        ), max_size=3, unique=True)):
            argv += [flag, draw(_NUMBERS)]
        argv += ["--format", draw(_FORMATS)]
    if command != "table" or draw(st.integers(0, 9)) == 0:
        argv += ["--budget", draw(_BUDGETS)]  # table takes none: a usage error
    if draw(st.integers(0, 4)) == 0:
        argv.append(draw(st.text(_CHARS, min_size=61, max_size=90)))  # a stray argument
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_drawn_argv_keeps_the_command_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in {0, 1, 2, 3, 4}
    if "--budget" in argv and argv[argv.index("--budget") + 1] in _OVER_MAX_BUDGETS:
        assert code == 2
    assert "Traceback" not in err.getvalue()
    # argparse's usage banner is long, so only the error line is bounded
    for line in err.getvalue().splitlines():
        if "error:" in line:
            assert len(line.encode("utf-8", "backslashreplace")) < 300


def test_a_stray_argument_with_a_lone_surrogate_is_echoed():
    # a byte that is not UTF-8 reaches argv as a lone surrogate; stderr
    # writes it as its 6-byte escape, which the echo counts
    for stray, shown in [("\udcff" + "a" * 60, "\udcff" + "a" * 59),
                         ("\udcff" * 61, "\udcff" * 30)]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["grundy", "--game", "nim", "--position", "1", stray]) == 2
        assert err.getvalue().endswith(f"error: unrecognized arguments: {shown}... (1 heaps)\n")
        assert len(err.getvalue().splitlines()[-1].encode("utf-8", "backslashreplace")) < 300


@pytest.mark.parametrize("extra, tail", [
    (["x" * 70] * 6, "x" * 60 + "... (1 h..."),
    (["\udcff" * 60] * 3, "\udcff" * 36 + "..."),
], ids=["six-long", "short-surrogates"])
def test_a_usage_error_is_cut_past_240_bytes(extra, tail):
    # however many arguments argparse names, and however short each is,
    # the error line stays under 300 bytes as stderr writes it
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["grundy", "--game", "nim", "--position", "1", *extra]) == 2
    line = err.getvalue().splitlines()[-1]
    assert line.startswith("impartial: error: unrecognized arguments: ") and line.endswith(tail)
    assert len(line.encode("utf-8", "backslashreplace")) == 261
