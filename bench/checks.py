"""Independent correctness checks of CLI reports.

Each checker takes the exit code, the parsed stdout report and the
request's ``expect`` record, and returns ``None`` when the report is right
or a one-line reason when it is wrong.  None of them imports the package:
pencil answers are compared with the invariants chosen before the pencil
was built, Lie answers with closed-form tables written beforehand, and
closure answers are decided by rules from the theory of pencil strata.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import bundle_codimension, generic_sig


def parse_class(text: str) -> str:
    """Reported class text ("inf" or a polynomial in t) as a coefficient key."""
    if text == "inf":
        return "inf"
    coeffs: dict[int, Fraction] = {}
    body = text.replace(" ", "").replace("-", "+-")
    for term in filter(None, body.split("+")):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if "t" in term:
            head, _, tail = term.partition("t")
            coeff = Fraction(head.rstrip("*")) if head else Fraction(1)
            deg = int(tail[1:]) if tail else 1
        else:
            coeff, deg = Fraction(term), 0
        coeffs[deg] = coeffs.get(deg, Fraction(0)) + sign * coeff
    top = max(coeffs)
    return ",".join(str(coeffs.get(d, Fraction(0))) for d in range(top + 1))


def _jordan_of(items: list[dict]) -> tuple[dict, dict]:
    sizes, degrees = {}, {}
    for item in items:
        key = parse_class(item["class"])
        sizes[key] = list(item["sizes"])
        degrees[key] = item["rootCount"]
    return sizes, degrees


def check_strict(code: int, report: dict, expect: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    inv = report["invariants"]
    for key in ("rank", "horizontal", "vertical"):
        if inv[key] != expect[key]:
            return f"{key} {inv[key]} != {expect[key]}"
    sizes, degrees = _jordan_of(inv["jordan"])
    if sizes != expect["jordan"]:
        return f"jordan {sizes} != {expect['jordan']}"
    if degrees != expect["degrees"]:
        return f"root counts {degrees} != {expect['degrees']}"
    return None


def check_skew(code: int, report: dict, expect: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    inv = report["invariants"]
    if inv["dim"] != expect["dim"] or inv["kronecker"] != expect["kronecker"]:
        return f"kronecker {inv['kronecker']} != {expect['kronecker']}"
    sizes, degrees = _jordan_of(inv["jordan"])
    if sizes != expect["jordan"] or degrees != expect["degrees"]:
        return f"jordan {sizes} != {expect['jordan']}"
    jordan_dim = sum(degrees[k] * sum(s) for k, s in sizes.items())
    if report["coreDimension"] != sum(expect["kronecker"]):
        return f"core {report['coreDimension']} != sum of kronecker indices"
    if report["mantleDimension"] - report["coreDimension"] != jordan_dim:
        return "mantle minus core is not the Jordan dimension"
    return None


# ---------------------------------------------------------------------------
# lie-catalog


def _slots(jordan: list[dict]) -> list[list[int]]:
    out = []
    for item in jordan:
        out.extend([sorted(item["sizes"], reverse=True)] * item["rootCount"])
    return sorted(out, reverse=True)


def _skew_sig(inv: dict) -> dict:
    return {"kronecker": sorted(inv["kronecker"], reverse=True), "slots": _slots(inv["jordan"])}


def _rep_sig(inv: dict) -> dict:
    return {
        "rank": inv["rank"],
        "horizontal": inv["horizontal"],
        "vertical": inv["vertical"],
        "slots": _slots(inv["jordan"]),
    }


def check_verify_dual(code: int, report: dict, expect: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if report["dual"]["verdict"] != "match":
        return f"dual verdict {report['dual']['verdict']}"
    if _skew_sig(report["invariants"]) != expect["lie"]:
        return f"semi-direct invariants {_skew_sig(report['invariants'])} != {expect['lie']}"
    if _rep_sig(report["dual"]["dualInvariants"]) != expect["rep"]:
        return "dual representation invariants differ from the table"
    return None


def check_rep(code: int, report: dict, expect: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if _rep_sig(report["invariants"]) != expect["rep"]:
        return f"representation invariants {_rep_sig(report['invariants'])} != {expect['rep']}"
    return None


def check_tables(code: int, report: dict, expect: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    rep, lie = report["rep"], report["lie"]
    if {k: rep["sampled"][k] for k in expect["rep"]} != expect["rep"]:
        return "sampled representation signature differs from the table"
    if {k: lie["sampled"][k] for k in expect["lie"]} != expect["lie"]:
        return "sampled semi-direct signature differs from the table"
    if not (rep["match"] and lie["match"]):
        return "tables reports a mismatch"
    return None


def check_lie(code: int, report: dict, expect: dict) -> str | None:
    """The report must carry the true generic invariants, certified or not."""
    if code != 0:
        return f"exit code {code}"
    sig = _skew_sig(report["invariants"])
    if sig != expect:
        return f"{report['genericityStatus']} invariants {sig} != true {expect}"
    return None


# ---------------------------------------------------------------------------
# closure-order


def dominates(lam: list[int], mu: list[int]) -> bool:
    """mu <= lam in dominance order: every partial sum of lam is at least mu's."""
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def closure_answer(lower: dict, upper: dict) -> bool | None:
    """Containment decided by a rule, or None when no rule applies.

    * the zero stratum lies in every closure;
    * the generic stratum of a shape is dense, so it contains every stratum;
    * a regular pencil with one eigenvalue: Gerstenhaber-Hesselink dominance;
    * a bundle closure holds only strata of larger codimension
      (Demmel-Edelman), so lower != upper with cod(lower) <= cod(upper) is false.
    """
    if lower == upper:
        return True
    if lower["rank"] == 0:
        return True
    if upper == generic_sig(upper["m"], upper["n"]):
        return True
    square = lower["m"] == lower["n"] == lower["rank"] == upper["rank"]
    if square and len(lower["slots"]) == len(upper["slots"]) == 1:
        return dominates(upper["slots"][0], lower["slots"][0])
    if bundle_codimension(lower) <= bundle_codimension(upper):
        return False
    return None


def check_closure(code: int, report: dict, expect: dict) -> str | None:
    want = closure_answer(expect["lower"], expect["upper"])
    if want is None:
        return "no rule decides this pair"
    if code != (0 if want else 3):
        return f"exit code {code} for expected {want}"
    if report["contains"] is not want:
        return f"contains {report['contains']} != {want}"
    return None


CHECKERS = {
    "strict": check_strict,
    "skew": check_skew,
    "verify-dual": check_verify_dual,
    "rep": check_rep,
    "tables": check_tables,
    "lie": check_lie,
}


def check(kind: str, code: int, stdout: str, expect: dict) -> str | None:
    """Parse the report and run the checker for the request kind."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"exit code {code} with no JSON report"
    try:
        return CHECKERS.get(kind, check_closure)(code, report, expect)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"
