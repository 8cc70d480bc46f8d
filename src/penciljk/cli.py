"""Command-line front end.

Subcommands read JSON files, run the exact computations, and print one
canonical report to stdout.  Exit codes are part of the contract:

  0  success (including a dual verdict of not-applicable)
  1  the computation failed (an internal error; never bad input)
  2  malformed input or bad flags
  3  a comparison failed (mismatch, or a false containment)
  4  a precondition failed (--skew on a pencil that is not skew)
  5  the input is not a Lie algebra or not a representation
  6  no closed-form expectation is known for the requested cell
  7  refused: the input exceeds a fixed work limit (a factorization over Z
     whose recombination tries too many subsets of modular factors, or a
     bundle closure that tries too many set partitions of eigenvalue slots)
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

from .catalog import build_classical, expected_lie_jk, expected_rep_jk, parse_family
from .errors import (
    ClosureSearchLimitError,
    FactorizationLimitError,
    HomomorphismError,
    InputFormatError,
    JacobiError,
    PencilJKError,
)
from .jsonio import (
    emit,
    invariants_to_json,
    lie_from_json,
    load_json,
    pencil_from_json,
    rep_from_json,
    sig_from_json,
    sig_to_json,
    skew_sig_to_json,
    skew_to_json,
)
from .lie import (
    Sampler,
    check_homomorphism,
    check_jacobi,
    jk_invariants_of_lie,
    jk_invariants_of_rep,
)
from .pencils import strict_invariants
from .semidirect import (
    MISMATCH,
    check_dual_theorem,
    direct_sum,
    semidirect,
)
from .skewjk import core_subspace, mantle_subspace, skew_jk_invariants
from .strata import bundle_closure_contains

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_MISMATCH = 3
EXIT_PRECONDITION = 4
EXIT_BAD_ALGEBRA = 5
EXIT_UNKNOWN = 6
EXIT_REFUSED = 7


@dataclass(frozen=True)
class RunConfig:
    seed: int
    samples: int = 25
    bound: int = 101
    fmt: str = "json"

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise InputFormatError("--seed must be non-negative")
        if self.samples < 1:
            raise InputFormatError("--samples must be at least 1")
        if self.bound < 2:
            raise InputFormatError("--bound must be at least 2")

    def sampler(self) -> Sampler:
        return Sampler(self.seed, height=self.bound)


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _values_line(values) -> str:
    return " ".join(_scalar(v) for v in values) if values else "-"


def _jordan_lines(jordan_json) -> list[str]:
    out = []
    for item in jordan_json:
        out.append(
            f"class {item['class']} rootCount {item['rootCount']}"
            f" sizes {_values_line(item['sizes'])}"
        )
    return out if out else ["none"]


def _print_report(report: dict, cfg_fmt: str) -> None:
    if cfg_fmt == "json":
        sys.stdout.write(emit(report))
        return
    lines = [f"command: {report['command']}"]
    for key in sorted(report):
        if key == "command":
            continue
        value = report[key]
        if isinstance(value, dict):
            lines.append(f"{key}:")
            for sub in sorted(value):
                sv = value[sub]
                if isinstance(sv, list) and sub == "jordan":
                    lines.append(f"  {sub}:")
                    lines.extend("    " + ln for ln in _jordan_lines(sv))
                elif isinstance(sv, list):
                    lines.append(f"  {sub}: {_values_line(sv)}")
                else:
                    lines.append(f"  {sub}: {_scalar(sv)}")
        elif isinstance(value, list):
            lines.append(f"{key}: {_values_line(value)}")
        else:
            lines.append(f"{key}: {_scalar(value)}")
    sys.stdout.write("\n".join(lines) + "\n")


# Inputs are validated once, here, when they are loaded (and by
# build_classical for the catalog); the package functions that take a
# validated algebra or representation check nothing again.


class _InvalidValues(PencilJKError):
    """A Lie algebra or representation constructor refused its values."""


def _require_jacobi(g) -> None:
    bad = check_jacobi(g)
    if bad:
        raise JacobiError(f"jacobi identity fails at basis triples {bad[:3]!r}")


def _construct(build, *args):
    """Run ``lie_from_json`` or ``rep_from_json``.  The constructors they
    call raise ValueError for values that describe no algebra or
    representation, such as an out-of-range bracket index; a ValueError
    raised anywhere else is an internal failure."""
    try:
        return build(*args)
    except ValueError as exc:
        raise _InvalidValues(str(exc)) from None


def _load_algebra(path: str):
    g = _construct(lie_from_json, load_json(path))
    _require_jacobi(g)
    return g


def _load_representation(path: str):
    rho = _construct(rep_from_json, load_json(path), os.path.dirname(path) or ".")
    _require_jacobi(rho.algebra)
    bad = check_homomorphism(rho)
    if bad:
        raise HomomorphismError(f"operators fail the bracket at pairs {bad[:3]!r}")
    return rho


def cmd_pencil(args, cfg: RunConfig) -> int:
    p = pencil_from_json(load_json(args.input))
    if args.skew:
        if not p.is_skew:
            sys.stderr.write("pencil is not a pair of skew matrices\n")
            return EXIT_PRECONDITION
        jk = skew_jk_invariants(p)
        report = {
            "command": "pencil",
            "skew": True,
            "pencil": {"m": p.m, "n": p.n},
            "invariants": skew_to_json(jk),
            "coreDimension": len(core_subspace(p)),
            "mantleDimension": len(mantle_subspace(p)),
        }
    else:
        inv = strict_invariants(p)
        report = {
            "command": "pencil",
            "skew": False,
            "pencil": {"m": p.m, "n": p.n},
            "invariants": invariants_to_json(inv),
        }
    _print_report(report, cfg.fmt)
    return EXIT_OK


def cmd_lie(args, cfg: RunConfig) -> int:
    g = _load_algebra(args.input)
    jk = jk_invariants_of_lie(g, cfg.sampler(), samples=cfg.samples)
    report = {
        "command": "lie",
        "dim": g.dim,
        "invariants": skew_to_json(jk.invariants),
        "genericityStatus": jk.genericity_status,
        "samplesUsed": jk.samples_used,
        "indexUsed": jk.index_used,
    }
    _print_report(report, cfg.fmt)
    return EXIT_OK


def cmd_rep(args, cfg: RunConfig) -> int:
    rho = _load_representation(args.input)
    jk = jk_invariants_of_rep(rho, cfg.sampler(), samples=cfg.samples)
    report = {
        "command": "rep",
        "dimV": rho.dim_v,
        "dimAlgebra": rho.algebra.dim,
        "invariants": invariants_to_json(jk.invariants),
        "genericityStatus": jk.genericity_status,
        "samplesUsed": jk.samples_used,
    }
    _print_report(report, cfg.fmt)
    return EXIT_OK


def cmd_semidirect(args, cfg: RunConfig) -> int:
    rho = _load_representation(args.rep)
    g = rho.algebra
    if args.lie is not None:
        lie = _construct(lie_from_json, load_json(args.lie))
        if lie.ad != g.ad:
            # brackets other than the ones already checked: a broken algebra
            # is reported as such before the disagreement
            _require_jacobi(lie)
            raise InputFormatError(
                "--lie brackets disagree with the representation's algebra"
            )
    code = EXIT_OK
    if args.verify_dual:
        verdict = check_dual_theorem(rho, cfg.sampler(), samples=cfg.samples)
        report = {
            "command": "semidirect",
            "dim": g.dim + rho.dim_v,
            "invariants": skew_to_json(verdict.lie.invariants),
            "genericityStatus": verdict.lie.genericity_status,
            "samplesUsed": verdict.lie.samples_used,
            "dual": {
                "verdict": verdict.verdict,
                "predictedKronecker": _opt_list(verdict.predicted_kronecker),
                "computedKronecker": list(verdict.computed_kronecker),
                "predictedJordanTotals": _opt_list(verdict.jordan_totals_predicted),
                "computedJordanTotals": list(verdict.jordan_totals_computed),
                "dualInvariants": invariants_to_json(verdict.dual.invariants),
            },
        }
        if verdict.verdict == MISMATCH:
            code = EXIT_MISMATCH
    else:
        q = semidirect(rho)
        jk = jk_invariants_of_lie(q, cfg.sampler(), samples=cfg.samples)
        report = {
            "command": "semidirect",
            "dim": q.dim,
            "invariants": skew_to_json(jk.invariants),
            "genericityStatus": jk.genericity_status,
            "samplesUsed": jk.samples_used,
        }
    _print_report(report, cfg.fmt)
    return code


def _opt_list(values):
    return None if values is None else list(values)


def cmd_bundle_leq(args, cfg: RunConfig) -> int:
    lower = sig_from_json(load_json(args.lower))
    upper = sig_from_json(load_json(args.upper))
    if (lower.m, lower.n) != (upper.m, upper.n):
        raise InputFormatError("signatures must share the pencil shape")
    contains = bundle_closure_contains(upper, lower)
    report = {
        "command": "bundle-leq",
        "lower": sig_to_json(lower),
        "upper": sig_to_json(upper),
        "contains": contains,
    }
    _print_report(report, cfg.fmt)
    return EXIT_OK if contains else EXIT_MISMATCH


def cmd_tables(args, cfg: RunConfig) -> int:
    try:
        fam = parse_family(f"{args.family}:{args.n}")
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None
    if args.m < 1:
        raise InputFormatError("--m must be at least 1")
    _, rho = build_classical(fam)
    stacked = direct_sum(rho, args.m)

    rep_expected = expected_rep_jk(fam, args.m)
    rep_jk = jk_invariants_of_rep(stacked, cfg.sampler(), samples=cfg.samples)
    rep_sampled = rep_jk.invariants.signature
    rep_match = rep_sampled == rep_expected

    lie_expected = expected_lie_jk(fam, args.m)
    lie_block: dict = {"known": lie_expected is not None}
    lie_match = True
    if lie_expected is not None:
        # build_classical checked the algebra and rho, and a direct sum of
        # copies of a representation is one
        q = semidirect(stacked)
        lie_jk = jk_invariants_of_lie(q, cfg.sampler(), samples=cfg.samples)
        lie_sampled = lie_jk.invariants.signature
        lie_match = lie_sampled == lie_expected
        lie_block.update(
            expected=skew_sig_to_json(lie_expected),
            sampled=skew_sig_to_json(lie_sampled),
            match=lie_match,
        )
    report = {
        "command": "tables",
        "family": fam.name,
        "n": fam.n,
        "m": args.m,
        "rep": {
            "expected": sig_to_json(rep_expected),
            "sampled": sig_to_json(rep_sampled),
            "match": rep_match,
        },
        "lie": lie_block,
    }
    _print_report(report, cfg.fmt)
    if not (rep_match and lie_match):
        return EXIT_MISMATCH
    if lie_expected is None:
        return EXIT_UNKNOWN
    return EXIT_OK


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process; parse_args returns a fresh Namespace per call
    top = argparse.ArgumentParser(
        prog="penciljk",
        description="Exact pencil and Lie algebra invariants",
    )
    top.add_argument("--seed", type=int, default=0, help="sampling seed")
    top.add_argument("--samples", type=int, default=25, help="sample count")
    top.add_argument("--bound", type=int, default=101, help="coordinate height")
    top.add_argument("--format", choices=("json", "text"), default="json")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pencil", help="invariants of one pencil")
    p.add_argument("input", help="pencil JSON path")
    p.add_argument("--skew", action="store_true", help="fold as a skew pencil")
    p.set_defaults(func=cmd_pencil)

    p = sub.add_parser("lie", help="sampled invariants of a Lie algebra")
    p.add_argument("input", help="algebra JSON path")
    p.set_defaults(func=cmd_lie)

    p = sub.add_parser("rep", help="sampled invariants of a representation")
    p.add_argument("input", help="representation JSON path")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("semidirect", help="invariants of a semi-direct sum")
    p.add_argument("--lie", help="algebra JSON path (optional)")
    p.add_argument("--rep", required=True, help="representation JSON path")
    p.add_argument(
        "--verify-dual",
        action="store_true",
        help="compare with the dual-representation prediction",
    )
    p.set_defaults(func=cmd_semidirect)

    p = sub.add_parser("bundle-leq", help="closure containment of signatures")
    p.add_argument("--lower", required=True, help="candidate degenerate signature")
    p.add_argument("--upper", required=True, help="candidate containing signature")
    p.set_defaults(func=cmd_bundle_leq)

    p = sub.add_parser("tables", help="verify one catalog cell")
    p.add_argument("--family", required=True, help="gl, sl, so or sp")
    p.add_argument("--n", type=int, required=True, help="matrix size")
    p.add_argument("--m", type=int, required=True, help="number of copies")
    p.set_defaults(func=cmd_tables)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            seed=args.seed, samples=args.samples, bound=args.bound, fmt=args.format
        )
        return args.func(args, cfg)
    except InputFormatError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (JacobiError, HomomorphismError) as exc:
        sys.stderr.write(f"invalid algebra: {exc}\n")
        return EXIT_BAD_ALGEBRA
    except _InvalidValues as exc:
        sys.stderr.write(f"invalid input values: {exc}\n")
        return EXIT_BAD_ALGEBRA
    except (FactorizationLimitError, ClosureSearchLimitError) as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return EXIT_REFUSED
    except (PencilJKError, ValueError) as exc:
        sys.stderr.write(f"computation failed: {exc}\n")
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
