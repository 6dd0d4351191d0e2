import json
from math import comb

import numpy as np
import pytest

from impartial import closed_forms as cf
from impartial import isomorphism, rulesets
from impartial import verification as vf
from impartial.errors import BudgetExceededError
from reference import ref_delete_grundy, ref_vdn_grundy


def triangle(bound):
    """Canonical pairs 0 <= y <= x <= bound."""
    return (bound + 1) * (bound + 2) // 2


class TestSweeps:
    def test_delete_nim(self):
        rep = vf.verify_delete_nim_formula(96)
        assert rep.passed
        assert rep.mismatches == []
        assert rep.positions_checked == triangle(96)
        assert rep.name == "delete-nim"

    def test_vdn(self):
        rep = vf.verify_vdn_formula(96)
        assert rep.passed
        assert rep.positions_checked == 96 * 97 // 2

    def test_bouton(self):
        rep = vf.verify_bouton(3, 8)
        assert rep.passed
        # multisets of heap sizes 1..8 with at most 3 heaps, empty included
        assert rep.positions_checked == sum(comb(8 + k - 1, k) for k in range(4))
        assert rep.bound == (3, 8)

    def test_sum(self):
        rep = vf.verify_sum_theorem(8)
        assert rep.passed
        assert rep.positions_checked == triangle(8) ** 2

    def test_proof_steps(self):
        rep = vf.verify_proof_steps(80)
        assert rep.passed
        assert rep.positions_checked == triangle(80)

    def test_iso(self):
        rep = vf.verify_isomorphism(48)
        assert rep.passed
        assert rep.positions_checked == 48 * 49 // 2

    def test_proof_step_failures_empty_everywhere(self):
        for x in range(40):
            for y in range(x + 1):
                assert vf.proof_step_failures(x, y) == []

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceededError):
            vf.verify_delete_nim_formula(2048, budget=100)
        with pytest.raises(BudgetExceededError):
            vf.verify_proof_steps(60, budget=100)
        assert vf.verify_proof_steps(60, budget=61 * 61).passed


class TestFaultInjection:
    # Each pair of cells is listed in the order the sweep streams them (by
    # anti-diagonal), which is not row-major order, so the report's sort
    # is pinned too.
    @pytest.mark.parametrize(
        "verify, formula, reference, cells",
        [
            (vf.verify_delete_nim_formula, "delete_nim_grundy_array", ref_delete_grundy,
             [(40, 7), (30, 29)]),
            (vf.verify_vdn_formula, "vdn_grundy_array", ref_vdn_grundy,
             [(45, 3), (33, 30)]),
        ],
    )
    def test_wrong_formula_is_reported(self, monkeypatch, verify, formula, reference, cells):
        right = getattr(cf, formula)

        def wrong(xs, ys):
            values = right(xs, ys).astype(np.int64)
            for x, y in cells:
                values[(xs == x) & (ys == y)] += 5
            return values

        monkeypatch.setattr(cf, formula, wrong)
        rep = verify(48)
        assert not rep.passed
        assert rep.mismatches == [
            (f"{x},{y}", reference(x, y), reference(x, y) + 5) for x, y in sorted(cells)
        ]


def _patched(right, cells):
    """``right`` except at the argument tuples ``cells`` maps to a result."""

    def wrong(*args):
        return cells[args] if args in cells else right(*args)

    return wrong


def _dropping(right, heap, option):
    """``right`` with ``option`` missing whenever a heap has ``heap`` stones."""

    def wrong(p):
        opts = right(p)
        if heap in p:
            opts.discard(option)
        return opts

    return wrong


def _adding(right, position, extra):
    """``right`` with the ``extra`` options added at ``position`` only."""

    def wrong(p):
        opts = right(p)
        if tuple(p) == position:
            opts |= extra
        return opts

    return wrong


class TestCertificateFaultInjection:
    # Each list is pinned literally: it is the report a faulty scalar or
    # ruleset gives with every option checked by its own call, so the
    # certificate sweeps must report exactly the same whatever shortcuts
    # they take.

    def test_proof_steps_wrong_scalar(self, monkeypatch):
        monkeypatch.setattr(
            cf, "delete_nim_grundy",
            _patched(cf.delete_nim_grundy, {(9, 4): 3, (6, 5): 0}),  # right: 1 and 3
        )
        rep = vf.verify_proof_steps(14)
        assert rep.positions_checked == triangle(14)
        assert rep.mismatches == [
            ("6,5", "no option with value 0", "option 2,2 has value 0"),
            ("9,4", "no option with value 3", "option 5,3 has value 3"),
            ("9,4", "a heap with bit 1 set", "neither heap has it"),
        ] + [
            (f"{x},{y}", "no option with value 0", "option 6,5 has value 0")
            for x, y in [(12, 0), (12, 2), (12, 4), (12, 6), (12, 8), (12, 10), (12, 12), (14, 12)]
        ]

    def test_proof_steps_dropped_option(self, monkeypatch):
        monkeypatch.setattr(
            rulesets, "delete_nim_options", _dropping(rulesets.delete_nim_options, 8, (7, 0))
        )
        rep = vf.verify_proof_steps(20)
        assert rep.mismatches == [
            ("8,7", "constructed option 7,0 to be legal", "not an option")
        ]

    def test_proof_steps_option_outside_the_table(self, monkeypatch):
        # (10, 3) and (14, 0) sum past bound - 1, so no option of a legal
        # position can be either: they are checked one call at a time.
        monkeypatch.setattr(
            rulesets, "delete_nim_options",
            _adding(rulesets.delete_nim_options, (10, 3), {(10, 3), (14, 0)}),
        )
        rep = vf.verify_proof_steps(12)
        assert rep.mismatches == [
            ("10,3", "no option with value 2", "option 10,3 has value 2")
        ]

    def test_iso_wrong_map(self, monkeypatch):
        monkeypatch.setattr(
            isomorphism, "vdn_to_delete",
            _patched(isomorphism.vdn_to_delete, {((6, 2),): (4, 2), ((5, 5),): (5, 3)}),
        )
        rep = vf.verify_isomorphism(8)
        assert rep.positions_checked == 8 * 9 // 2
        assert rep.mismatches == [
            ("5,5", "equal option sets",
             "extra=[(2, 1), (3, 0)] missing=[(1, 1), (2, 0), (2, 2), (3, 1), (4, 0)]"),
            ("6,2", "equal option sets",
             "extra=[(0, 0), (2, 2), (3, 1), (4, 0)] missing=[(1, 0), (2, 1), (3, 0)]"),
        ] + [
            (f"8,{y}", "equal option sets", "extra=[] missing=[(5, 1)]") for y in range(1, 9)
        ]

    def test_iso_dropped_option(self, monkeypatch):
        monkeypatch.setattr(
            isomorphism, "vdn_options", _dropping(isomorphism.vdn_options, 9, (6, 3))
        )
        rep = vf.verify_isomorphism(10)
        assert rep.mismatches == [
            (f"{x},{y}", "equal option sets", "extra=[] missing=[(5, 2)]")
            for x, y in [(9, 1), (9, 2), (9, 3), (9, 4), (9, 5), (9, 6), (9, 7), (9, 8),
                         (9, 9), (10, 9)]
        ]

    def test_iso_option_outside_the_table(self, monkeypatch):
        # (9, 5) sums past the bound, so no legal option maps through the
        # table to it
        monkeypatch.setattr(
            isomorphism, "vdn_options", _adding(isomorphism.vdn_options, (7, 4), {(9, 5)})
        )
        rep = vf.verify_isomorphism(10)
        assert rep.mismatches == [("7,4", "equal option sets", "extra=[(8, 4)] missing=[]")]


class TestReportShape:
    def test_record_schema(self):
        rep = vf.verify_vdn_formula(16)
        record = rep.to_record()
        assert set(record) == {
            "name",
            "bound",
            "checked",
            "mismatches",
            "elapsed-milliseconds",
            "passed",
        }
        assert record["passed"] is True
        assert record["checked"] == rep.positions_checked

    def test_failing_report(self):
        rep = vf.VerificationReport("demo", 4, 10, [("3,2", 2, 7)], 0.001)
        assert not rep.passed
        assert "[FAIL]" in rep.text_line()
        assert "mismatches=1" in rep.text_line()
        record = rep.to_record()
        assert record["mismatches"] == [{"position": "3,2", "expected": 2, "actual": 7}]
        assert record["passed"] is False

    def test_tuple_bound_rendering(self):
        rep = vf.verify_bouton(2, 5)
        assert "bound=2x5" in rep.text_line()
        assert rep.to_record()["bound"] == [2, 5]

    def test_json_serialization(self):
        reports = [vf.verify_vdn_formula(8), vf.verify_isomorphism(8)]
        data = json.loads(vf.reports_to_json(reports))
        assert [r["name"] for r in data] == ["vdn", "iso"]
        assert all(r["passed"] for r in data)


class TestRunners:
    def test_run_check_by_name(self):
        rep = vf.run_check("vdn", 12)
        assert rep.name == "vdn"
        assert rep.bound == 12

    def test_run_check_default_bound(self):
        rep = vf.run_check("iso")
        assert rep.bound == vf.DEFAULT_BOUNDS["iso"]

    def test_run_check_unknown_name(self):
        with pytest.raises(ValueError):
            vf.run_check("not-a-check")

    def test_run_all_with_custom_bounds(self):
        bounds = {
            "delete-nim": 32,
            "vdn": 32,
            "bouton": (2, 6),
            "sum": 5,
            "proof-steps": 32,
            "iso": 16,
        }
        reports = vf.run_all(bounds)
        assert [r.name for r in reports] == vf.CHECK_NAMES
        assert all(r.passed for r in reports)

    def test_check_names_cover_default_bounds(self):
        assert set(vf.CHECK_NAMES) == set(vf.DEFAULT_BOUNDS)
