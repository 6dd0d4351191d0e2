"""Exhaustive verification: the formulas against brute force.

Each sweep walks every position inside its bound, computes the value two
independent ways, and reports any cell where they differ.  The claims are
identities, so the interesting output is the checked counts: these are
not samples.
"""

import sys

from impartial import run_all, run_check
from impartial.verification import reports_to_json

print("=== one check in detail ===")
rep = run_check("delete-nim", bound=512)
print(f"  {rep.text_line()}")
print(f"  that covered every pair 0 <= y <= x <= {rep.bound}")
print()

print("=== the full battery at demo bounds ===")
bounds = {
    "delete-nim": 1024,
    "vdn": 128,
    "bouton": (3, 12),
    "sum": 10,
    "proof-steps": 96,
    "iso": 48,
}
reports = run_all(bounds)
for rep in reports:
    print(f"  {rep.text_line()}")
print()

failed = [r.name for r in reports if not r.passed]
print("all passed" if not failed else f"FAILED: {failed}")
print()

print("=== machine-readable form (what --format json emits) ===")
print(reports_to_json(reports[:1]))

# exit nonzero so that callers such as CI see a failed check
sys.exit(1 if failed else 0)
