"""The four benchmark workloads: the CLI calls each pass makes, and the
checks that every answer is right.

Expected answers come from formulas written here, never from
``impartial``: the benchmark must catch a program that computes the wrong
value quickly.  A pass is the fixed unit of work one fresh interpreter
runs; ``passes`` returns its calls and ``check`` says why a call's answer
is wrong, if it is.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from math import gcd

# Sizes per workload.  "full" is what the benchmark measures; "toy" is the
# same shape, small enough for the self-test.
SIZES = {
    "full": {
        # Passes of about a second, so a run holds enough of them for a
        # steady median; a dense pass peaks near 0.35 GB RSS.
        "sweep-dense": {"delete-nim": 3072, "vdn": 1536},
        "sweep-enum": {"proof-steps": 160, "iso": 128, "sum": 12, "bouton": (4, 12)},
        "table-export": {"delete-nim": 600, "vdn": 400},
        "play-queries": {"queries": 100, "two_heap_max": 512, "nim_max": 24},
    },
    "toy": {
        "sweep-dense": {"delete-nim": 64, "vdn": 48},
        "sweep-enum": {"proof-steps": 16, "iso": 12, "sum": 3, "bouton": (2, 4)},
        "table-export": {"delete-nim": 20, "vdn": 10},
        "play-queries": {"queries": 24, "two_heap_max": 40, "nim_max": 6},
    },
}

WORKLOADS = list(SIZES["full"])
RUN_PASSES = 16  # play-queries passes planned per run; more than fit in one
TABLE_SAMPLES = 200


# --- independent reference values -------------------------------------------


def _trailing_zeros(m: int) -> int:
    v = 0
    while m % 2 == 0:
        m //= 2
        v += 1
    return v


def delete_nim_value(x: int, y: int) -> int:
    return _trailing_zeros((x | y) + 1)


def vdn_value(x: int, y: int) -> int:
    return _trailing_zeros(((x - 1) | (y - 1)) + 1)


def nim_value(heaps) -> int:
    v = 0
    for h in heaps:
        v ^= h
    return v


def value(game: str, pos) -> int:
    if game == "delete-nim":
        return delete_nim_value(*pos)
    if game == "vdn":
        return vdn_value(*pos)
    return nim_value(pos)


def is_option(game: str, pos, move) -> bool:
    """Whether ``move`` is reachable from ``pos`` in one move."""
    if game == "nim":
        before = Counter(h for h in pos if h)
        after = Counter(h for h in move if h)
        removed = list((before - after).elements())
        added = list((after - before).elements())
        return len(removed) == 1 and (not added or (len(added) == 1 and added[0] < removed[0]))
    if len(move) != 2:
        return False
    a, b = move
    if game == "delete-nim":
        return a >= 0 and b >= 0 and any(s >= 1 and a + b == s - 1 for s in pos)
    return a >= 1 and b >= 1 and any(a + b == s for s in pos)


def positions_checked(check: str, bound) -> int:
    """Positions a verify sweep must report as checked at ``bound``."""
    if check in ("delete-nim", "proof-steps"):
        return (bound + 1) * (bound + 2) // 2
    if check in ("vdn", "iso"):
        return bound * (bound + 1) // 2
    if check == "sum":
        comps = (bound + 1) * (bound + 2) // 2
        return comps * comps
    heaps, size = bound  # bouton: multisets of 1..heaps heaps of 1..size stones, plus ()
    total, multisets = 1, 1
    for k in range(1, heaps + 1):
        multisets = multisets * (size + k - 1) // k
        total += multisets
    return total


# --- passes ------------------------------------------------------------------


def _stratified(rng: random.Random, n: int, lo: int, hi: int) -> list[list[int]]:
    """RUN_PASSES ascending lists of n integers uniform on [lo, hi].  The
    range is cut into n * RUN_PASSES equal strata; each list takes one
    stratum out of every RUN_PASSES consecutive ones, so each pass covers
    the range evenly and so does the run."""
    width = (hi - lo + 1) / (n * RUN_PASSES)
    lists: list[list[int]] = [[] for _ in range(RUN_PASSES)]
    for block in range(n):
        owners = list(range(RUN_PASSES))
        rng.shuffle(owners)
        for k, owner in enumerate(owners):
            lists[owner].append(lo + int((block * RUN_PASSES + k + rng.random()) * width))
    return lists


def _points(rng: random.Random, n: int, dims: int, lo: int, hi: int) -> list[list[tuple]]:
    """RUN_PASSES sets of n points in [lo, hi]^dims.  Each coordinate is
    stratified, and the coordinates are paired by a rank-1 lattice (point i
    takes rank i * a**j mod n in coordinate j), so every pass has nearly the
    same spread of heap products, hence of cost, whatever the seed."""
    a = next((m for m in range(round(0.618 * n), n) if gcd(m, n) == 1), 1)
    ranks = [[i * pow(a, j, n) % n for j in range(dims)] for i in range(n)]
    cols = [_stratified(rng, n, lo, hi) for _ in range(dims)]
    return [[tuple(cols[j][p][r[j]] for j in range(dims)) for r in ranks]
            for p in range(RUN_PASSES)]


def queries(seed: int, size: dict) -> list[list[tuple[str, str, tuple]]]:
    """The queries of each of a run's RUN_PASSES passes, as (command, game,
    position) triples: a quarter each of grundy and best-move on a two-heap
    game and on 2- or 3-heap Nim, in random order."""
    rng = random.Random(seed)
    quarter = size["queries"] // 4
    runs: list[list] = [[] for _ in range(RUN_PASSES)]
    for cmd in ("grundy", "best-move"):
        pairs = _points(rng, quarter, 2, 0, size["two_heap_max"] - 1)
        for p, out in enumerate(runs):
            for i, (x, y) in enumerate(pairs[p]):
                game = ("delete-nim", "vdn")[i % 2]
                shift = 0 if game == "delete-nim" else 1
                out.append((cmd, game, (x + shift, y + shift)))
        for heaps, count in ((2, quarter // 2), (3, quarter - quarter // 2)):
            for p, points in enumerate(_points(rng, count, heaps, 0, size["nim_max"])):
                runs[p].extend((cmd, "nim", point) for point in points)
    for out in runs:
        rng.shuffle(out)
    return runs


def passes(workload: str, seed: int, index: int, scale: str, out_dir: str) -> list[dict]:
    """The calls of pass ``index``: dicts with the argv and what to check."""
    size = SIZES[scale][workload]
    if workload in ("sweep-dense", "sweep-enum"):
        argv = ["verify"]
        for check, bound in size.items():
            if check == "bouton":
                argv += ["--check", "bouton", "--heaps", str(bound[0]), "--size", str(bound[1])]
            else:
                argv += ["--check", check, f"--bound-{check}", str(bound)]
        return [{"argv": argv + ["--format", "json"], "expect": {"sweep": size}}]
    if workload == "table-export":
        calls = []
        for game, bound in size.items():
            fmt = "csv" if game == "delete-nim" else "json"
            path = f"{out_dir}/table-{game}.{fmt}"
            argv = ["table", "--game", game, "--bound", str(bound), "--format", fmt, "--output", path]
            calls.append({"argv": argv, "output": path,
                          "expect": {"table": [game, bound, fmt, seed * 1_000_003 + index]}})
        return calls
    calls = []
    for cmd, game, pos in queries(seed, size)[index % RUN_PASSES]:
        text = ",".join(map(str, pos))
        calls.append({"argv": [cmd, "--game", game, "--position", text],
                      "expect": {"query": [cmd, game, list(pos)]}})
    return calls


def requests(workload: str, call_seconds: list[float]) -> list[float]:
    """Latencies of the requests a user makes in one pass: each query of
    play-queries, but the whole pass of a batch workload, whose calls are
    one job."""
    return call_seconds if workload == "play-queries" else [sum(call_seconds)]


def items(call: dict) -> int:
    """Work units a call completes: positions checked, rows written, or 1 query."""
    expect = call["expect"]
    if "sweep" in expect:
        return sum(positions_checked(c, b) for c, b in expect["sweep"].items())
    if "table" in expect:
        game, bound = expect["table"][:2]
        return (bound + 1) ** 2 if game == "delete-nim" else bound ** 2
    return 1


# --- checks ------------------------------------------------------------------


def check_sweep(size: dict, stdout: str) -> str | None:
    reports = json.loads(stdout)
    if [r["name"] for r in reports] != list(size):
        return f"unexpected checks {[r['name'] for r in reports]}"
    for r in reports:
        bound = size[r["name"]]
        want_bound = list(bound) if isinstance(bound, tuple) else bound
        if r["bound"] != want_bound:
            return f"{r['name']}: bound {r['bound']} != {want_bound}"
        if not r["passed"] or r["mismatches"]:
            return f"{r['name']}: did not pass"
        if r["checked"] != positions_checked(r["name"], bound):
            return f"{r['name']}: checked {r['checked']} != {positions_checked(r['name'], bound)}"
    return None


def check_query(cmd: str, game: str, pos, stdout: str) -> str | None:
    expected = value(game, pos)
    if cmd == "grundy":
        want = f"closed-form: {expected}\nengine: {expected}\noutcome: {'P' if expected == 0 else 'N'}\n"
        return None if stdout == want else f"grundy {game} {pos}: got {stdout!r}"
    answer = stdout.strip()
    if answer in ("P-position", "P-position (terminal)"):
        return None if expected == 0 else f"best-move {game} {pos}: P-position but value {expected}"
    if expected == 0:
        return f"best-move {game} {pos}: moved to {answer} from a P-position"
    try:
        move = tuple(int(v) for v in answer.split(","))
    except ValueError:
        return f"best-move {game} {pos}: unparsable {answer!r}"
    if not is_option(game, pos, move):
        return f"best-move {game} {pos}: {answer} is not an option"
    if value(game, move) != 0:
        return f"best-move {game} {pos}: {answer} has value {value(game, move)}"
    return None


def check_table(game: str, bound: int, fmt: str, sample_seed: int, path: str) -> str | None:
    lo = 0 if game == "delete-nim" else 1
    width = bound + 1 - lo
    n_rows = width * width
    sample = set(random.Random(sample_seed).sample(range(n_rows), min(TABLE_SAMPLES, n_rows)))
    sample |= {0, n_rows - 1}

    def row_ok(i: int, x: int, y: int, g: int) -> bool:
        want_x, want_y = lo + i // width, lo + i % width
        return (x, y, g) == (want_x, want_y, value(game, (want_x, want_y)))

    if fmt == "csv":
        with open(path) as fh:
            if fh.readline() != "x,y,grundy\n":
                return f"{path}: wrong header"
            count = 0
            for i, line in enumerate(fh):
                count += 1
                if i in sample and not row_ok(i, *map(int, line.split(","))):
                    return f"{path}: wrong row {i}: {line.strip()}"
    else:
        with open(path) as fh:
            records = json.load(fh)
        count = len(records)
        for i in sample:
            if i < count and (list(records[i]) != ["x", "y", "grundy"]
                              or not row_ok(i, *records[i].values())):
                return f"{path}: wrong record {i}: {records[i]}"
    return None if count == n_rows else f"{path}: {count} rows, expected {n_rows}"


def check(call: dict, returncode: int, stdout: str) -> str | None:
    """None if the call's answer is right, else why it is wrong."""
    if returncode != 0:
        return f"{' '.join(call['argv'])}: exit code {returncode}"
    expect = call["expect"]
    try:
        if "sweep" in expect:
            return check_sweep(expect["sweep"], stdout)
        if "table" in expect:
            return check_table(*expect["table"], call["output"])
        cmd, game, pos = expect["query"]
        return check_query(cmd, game, tuple(pos), stdout)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{' '.join(call['argv'])}: unreadable output ({exc})"
