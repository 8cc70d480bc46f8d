"""Self-test of the benchmark's checkers: right reports pass, wrong ones fail.

Run with ``python3 bench/selftest.py`` (exit code 0 when every case holds),
or collect it with ``pytest bench/selftest.py``.  Reports are written by
hand in the CLI's JSON form, so the package is not needed.
"""

from __future__ import annotations

import copy
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads  # noqa: E402


def _rejects(kind: str, code: int, report: dict, expect: dict) -> bool:
    return checks.check(kind, code, json.dumps(report), expect) is not None


def _accepts(kind: str, code: int, report: dict, expect: dict) -> bool:
    return checks.check(kind, code, json.dumps(report), expect) is None


def _mutants(report: dict, edits):
    for path, value in edits:
        bad = copy.deepcopy(report)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        yield path, bad


STRICT_EXPECT = {
    "m": 5, "n": 6, "rank": 4, "horizontal": [2], "vertical": [],
    "jordan": {"1,0,1": [1], "-1/2,1": [2, 1], "inf": [1]},
    "degrees": {"1,0,1": 2, "-1/2,1": 1, "inf": 1},
}
STRICT_REPORT = {
    "command": "pencil", "skew": False, "pencil": {"m": 5, "n": 6},
    "invariants": {
        "rank": 4, "horizontal": [2], "vertical": [],
        "jordan": [
            {"class": "t-1/2", "rootCount": 1, "sizes": [2, 1]},
            {"class": "t^2+1", "rootCount": 2, "sizes": [1]},
            {"class": "inf", "rootCount": 1, "sizes": [1]},
        ],
    },
}


def test_strict_checker():
    assert _accepts("strict", 0, STRICT_REPORT, STRICT_EXPECT)
    edits = [
        (("invariants", "rank"), 5),
        (("invariants", "horizontal"), [1]),
        (("invariants", "vertical"), [1]),
        (("invariants", "jordan", 0, "class"), "t+1/2"),
        (("invariants", "jordan", 0, "sizes"), [3]),
        (("invariants", "jordan", 1, "rootCount"), 1),
        (("invariants", "jordan"), STRICT_REPORT["invariants"]["jordan"][:2]),
    ]
    for path, bad in _mutants(STRICT_REPORT, edits):
        assert _rejects("strict", 0, bad, STRICT_EXPECT), path
    assert _rejects("strict", 1, STRICT_REPORT, STRICT_EXPECT)


SKEW_EXPECT = {"dim": 7, "kronecker": [2, 1], "jordan": {"-2,0,1": [2]}, "degrees": {"-2,0,1": 2}}
SKEW_REPORT = {
    "command": "pencil", "skew": True, "pencil": {"m": 7, "n": 7},
    "invariants": {
        "dim": 7, "kronecker": [2, 1],
        "jordan": [{"class": "t^2-2", "rootCount": 2, "sizes": [2]}],
    },
    "coreDimension": 3, "mantleDimension": 7,
}


def test_skew_checker():
    assert _accepts("skew", 0, SKEW_REPORT, SKEW_EXPECT)
    edits = [
        (("invariants", "kronecker"), [3]),
        (("invariants", "jordan", 0, "class"), "t^2+2"),
        (("coreDimension",), 4),
        (("mantleDimension",), 6),
    ]
    for path, bad in _mutants(SKEW_REPORT, edits):
        assert _rejects("skew", 0, bad, SKEW_EXPECT), path


TABLE = {
    "rep": {"rank": 8, "horizontal": [], "vertical": [3], "slots": [[1, 1], [1, 1], [1, 1]]},
    "lie": {"kronecker": [3], "slots": [[2, 2], [2, 2], [2, 2]]},
}
VERIFY_REPORT = {
    "command": "semidirect", "dim": 17, "genericityStatus": "empirical", "samplesUsed": 2,
    "invariants": {"dim": 17, "kronecker": [3],
                   "jordan": [{"class": "t^3-3*t+1", "rootCount": 3, "sizes": [2, 2]}]},
    "dual": {
        "verdict": "match",
        "dualInvariants": {"rank": 8, "horizontal": [], "vertical": [3],
                           "jordan": [{"class": "t^3-3*t+1", "rootCount": 3, "sizes": [1, 1]}]},
    },
}


def test_lie_catalog_checkers():
    assert _accepts("verify-dual", 0, VERIFY_REPORT, TABLE)
    edits = [
        (("dual", "verdict"), "mismatch"),
        (("invariants", "kronecker"), [2, 1]),
        (("invariants", "jordan", 0, "rootCount"), 1),
        (("dual", "dualInvariants", "vertical"), [2, 1]),
    ]
    for path, bad in _mutants(VERIFY_REPORT, edits):
        assert _rejects("verify-dual", 0, bad, TABLE), path
    assert _rejects("verify-dual", 3, VERIFY_REPORT, TABLE)

    rep = {"command": "rep", "invariants": VERIFY_REPORT["dual"]["dualInvariants"]}
    assert _accepts("rep", 0, rep, TABLE)
    for path, bad in _mutants(rep, [(("invariants", "rank"), 7)]):
        assert _rejects("rep", 0, bad, TABLE), path

    tables = {
        "command": "tables",
        "rep": {"sampled": dict(TABLE["rep"], m=9, n=8), "match": True},
        "lie": {"known": True, "sampled": dict(TABLE["lie"], dim=17), "match": True},
    }
    assert _accepts("tables", 0, tables, TABLE)
    edits = [(("lie", "sampled", "kronecker"), [2]), (("rep", "sampled", "slots"), [])]
    for path, bad in _mutants(tables, edits):
        assert _rejects("tables", 0, bad, TABLE), path
    assert _rejects("tables", 6, tables, TABLE)


def test_lie_checker_rejects_the_e2_certificate():
    # e(2) at --seed 657 --samples 1 --bound 2: certified, but not generic
    wrong = {"command": "lie", "dim": 3, "genericityStatus": "certified", "indexUsed": 3,
             "invariants": {"dim": 3, "kronecker": [1, 1, 1], "jordan": []}}
    right = {"command": "lie", "dim": 3, "genericityStatus": "certified", "indexUsed": 1,
             "invariants": {"dim": 3, "kronecker": [2], "jordan": []}}
    expect = {"kronecker": [2], "slots": []}
    assert _rejects("lie", 0, wrong, expect)
    assert _accepts("lie", 0, right, expect)


def _closure_report(lower, upper, contains):
    return {"command": "bundle-leq", "lower": lower, "upper": upper, "contains": contains}


def test_closure_rules():
    sig = workloads.make_sig
    zero = workloads.zero_sig(3, 4)
    generic = workloads.generic_sig(3, 4)
    assert generic["horizontal"] == [4]
    cases = [
        (zero, sig(3, 4, 2, [2, 1], [1], []), True),
        (sig(3, 4, 2, [3, 1], [1], []), generic, True),
        (sig(4, 4, 4, [], [], [[2, 1, 1]]), sig(4, 4, 4, [], [], [[2, 2]]), True),
        (sig(4, 4, 4, [], [], [[2, 2]]), sig(4, 4, 4, [], [], [[3, 1]]), True),
        (sig(4, 4, 4, [], [], [[3, 1]]), sig(4, 4, 4, [], [], [[2, 2]]), False),
        (workloads.generic_sig(4, 4), sig(4, 4, 4, [], [], [[1, 1], [1], [1]]), False),
    ]
    for lower, upper, want in cases:
        assert checks.closure_answer(lower, upper) is want, (lower, upper)
        expect = {"lower": lower, "upper": upper}
        right = _closure_report(lower, upper, want)
        assert _accepts("deep", 0 if want else 3, right, expect)
        assert _rejects("deep", 3 if want else 0, right, expect)
        assert _rejects("deep", 0 if want else 3, _closure_report(lower, upper, not want), expect)


def test_codimension_formula():
    # generic strata have codimension 0, the zero m x n pencil 2mn
    for m, n in ((3, 3), (3, 5), (6, 4)):
        assert workloads.bundle_codimension(workloads.generic_sig(m, n)) == 0
        assert workloads.bundle_codimension(workloads.zero_sig(m, n)) == 2 * m * n
    # one 2 x 2 Jordan block at a free eigenvalue: orbit 2, bundle 1
    assert workloads.bundle_codimension(workloads.make_sig(2, 2, 2, [], [], [[2]])) == 1


def test_generated_answers_are_decided():
    # every generated pair falls under a rule, and every generated pencil
    # keeps the bookkeeping of its invariants
    source = workloads.ClosureSource(7)
    with tempfile.TemporaryDirectory() as folder:
        requests = source.round(0, folder) + source.round(1, folder)
    for request in requests:
        exp = request["expect"]
        assert checks.closure_answer(exp["lower"], exp["upper"]) is not None, request["kind"]
    rng = random.Random(7)
    for _ in range(50):
        obj, exp = workloads.strict_case(rng, rng)
        assert len(obj["A"]) == exp["m"] and all(len(r) == exp["n"] for r in obj["A"])
        obj, exp = workloads.skew_case(rng, rng)
        for mat in (obj["A"], obj["B"]):
            entries = [[Fraction(str(x)) for x in row] for row in mat]
            assert all(entries[i][j] == -entries[j][i] for i in range(exp["dim"]) for j in range(exp["dim"]))


def main() -> int:
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
