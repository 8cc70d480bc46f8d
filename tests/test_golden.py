"""Byte-for-byte replay of recorded CLI reports.

``data/golden_cli.json`` holds the input files of 81 fast requests
(``pencil``, ``pencil --skew``, ``lie``, ``rep``, small ``semidirect``
cells with and without ``--verify-dual``, ``bundle-leq`` pairs up to
7 x 8, small ``tables`` cells including one without a known Lie table,
a few malformed inputs, and one ``lie`` and one ``rep`` request whose
samples draw two distinct signatures, so that selection by dominance
runs) with the stdout and exit code each one produced when it was
recorded.  A change of any report, however small, fails here.  A
change that is meant to alter reports re-records them with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import os
import sys
from math import gcd

import pytest

import penciljk.pencils as pencils
from penciljk import cli
from penciljk.pencils import EigClass

from oracles import patch_dense_checks, pivot_complement

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_cli.json")


def _load() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def _write_inputs(folder: str, files: dict) -> None:
    for name, text in files.items():
        with open(os.path.join(folder, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _run(argv: list[str], err: io.StringIO | None = None) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI request; stderr goes to
    ``err`` when one is given."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO() if err is None else err):
        code = cli.main(argv)
    return code, out.getvalue()


GOLDEN_DATA = _load()


@pytest.mark.parametrize(
    "request_",
    GOLDEN_DATA["requests"],
    ids=[" ".join(r["argv"]) for r in GOLDEN_DATA["requests"]],
)
def test_golden_report(request_, tmp_path, monkeypatch):
    _write_inputs(str(tmp_path), GOLDEN_DATA["files"])
    monkeypatch.chdir(tmp_path)
    assert _run(request_["argv"]) == (request_["code"], request_["stdout"])


def test_golden_classes_are_primitive_integer_tuples(tmp_path, monkeypatch):
    # every finite class the replay builds, reported or not, is stored as a
    # tuple of ints with content 1 and a positive leading coefficient
    seen = []
    real = EigClass.__post_init__

    def recorded(self):
        real(self)
        seen.append(self.poly)

    monkeypatch.setattr(EigClass, "__post_init__", recorded)
    _write_inputs(str(tmp_path), GOLDEN_DATA["files"])
    monkeypatch.chdir(tmp_path)
    for request in GOLDEN_DATA["requests"]:
        assert _run(request["argv"]) == (request["code"], request["stdout"])
    finite = [p for p in seen if p is not None]
    for p in finite:
        assert type(p) is tuple and all(type(c) is int for c in p), p
        assert len(p) > 1 and p[-1] > 0 and gcd(*p) == 1, p
    # t + 1/2 of strict15.json is stored as 2t + 1
    assert (1, 2) in finite
    assert len(finite) > 50


def test_golden_complements_match_the_pivot_oracle(tmp_path, monkeypatch):
    # every complement the replay takes, for every pencil it classifies,
    # keeps the vectors that the pivot columns of [inside | basis] keep
    calls = []
    real = pencils._complement

    def checked(inside, basis):
        kept = real(inside, basis)
        assert kept == pivot_complement(inside, basis, basis.n)
        calls.append(len(kept))
        return kept

    monkeypatch.setattr(pencils, "_complement", checked)
    _write_inputs(str(tmp_path), GOLDEN_DATA["files"])
    monkeypatch.chdir(tmp_path)
    for request in GOLDEN_DATA["requests"]:
        assert _run(request["argv"]) == (request["code"], request["stdout"])
    assert len(calls) >= 70


def test_golden_functionals_and_restrictions_match_the_dense_oracles(tmp_path, monkeypatch):
    # every chain limit's functionals the replay takes, for every pencil it
    # classifies, have the count and vectors of the eager ``kernel_basis``
    # route, and every regular part the rows of the dense product
    calls = patch_dense_checks(monkeypatch, pencils)
    _write_inputs(str(tmp_path), GOLDEN_DATA["files"])
    monkeypatch.chdir(tmp_path)
    for request in GOLDEN_DATA["requests"]:
        assert _run(request["argv"]) == (request["code"], request["stdout"])
    assert calls["deficiency"] >= 200 and calls["restricted"] >= 90


def _record() -> None:
    import tempfile

    data = _load()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as folder:
        _write_inputs(folder, data["files"])
        os.chdir(folder)
        try:
            for request in data["requests"]:
                request["code"], request["stdout"] = _run(request["argv"])
        finally:
            os.chdir(here)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
