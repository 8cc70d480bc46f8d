"""JSON serialization: exact rationals, pencils, algebras, signatures."""

import json
import random
from fractions import Fraction

import pytest

import penciljk.jsonio as jsonio
from penciljk.cli import main
from penciljk.errors import InputFormatError
from penciljk.exactla import Mat
from penciljk.jsonio import (
    class_to_str,
    emit,
    invariants_to_json,
    lie_from_json,
    lie_to_json,
    load_json,
    pencil_from_json,
    rat_to_str,
    rep_from_json,
    rep_to_json,
    sig_from_json,
    sig_to_json,
    skew_sig_to_json,
    skew_to_json,
    str_to_rat,
)
from penciljk.pencils import EigClass, strict_invariants
from penciljk.skewjk import SkewJK
from penciljk.strata import BundleSig, SkewBundleSig

from helpers import SEED, _sl2, pencil_from_lists, pencil_to_json
from oracles import per_entry_matrix


def test_rational_conversions():
    assert rat_to_str(Fraction(3)) == "3"
    assert rat_to_str(Fraction(-3, 4)) == "-3/4"
    assert str_to_rat("3") == 3
    assert str_to_rat(" -3/4 ") == Fraction(-3, 4)
    assert str_to_rat(5) == 5
    assert str_to_rat(5.0) == 5
    for bad in (True, 5.5, "3/0", "x", None, []):
        with pytest.raises(InputFormatError):
            str_to_rat(bad)


def test_pencil_roundtrip():
    p = pencil_from_lists([[1, 0], [0, Fraction(1, 2)]], [[0, 1], [1, 0]])
    obj = pencil_to_json(p)
    assert obj["m"] == 2 and obj["n"] == 2
    assert obj["A"][1][1] == "1/2"
    assert pencil_from_json(json.loads(json.dumps(obj))) == p


def test_pencil_from_json_rejects_malformed():
    good = pencil_to_json(pencil_from_lists([[1]], [[2]]))
    for mutate in (
        lambda o: o.pop("A"),
        lambda o: o.update(m="1"),
        lambda o: o.update(A=[["1", "2"]]),
        lambda o: o.update(B=[[True]]),
    ):
        obj = json.loads(json.dumps(good))
        mutate(obj)
        with pytest.raises(InputFormatError):
            pencil_from_json(obj)


def _fraction_rat(value):
    """``str_to_rat`` with every string read by the Fraction parser."""
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise InputFormatError(f"bad rational {value!r}") from None
    return str_to_rat(value)


def _fraction_path(rows, m, n, where):
    """The loader that reads every entry through ``_fraction_rat``."""
    if not isinstance(rows, list) or len(rows) != m:
        raise InputFormatError(f"{where} must be a list of {m} rows")
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise InputFormatError(f"each row of {where} must have {n} entries")
        out.append([_fraction_rat(x) for x in row])
    return Mat(out, n=n)


MATRIX_CASES = [
    [[1, -2], [0, 30]],
    [[1, "1/2"], [3, "-4/6"]],
    [[1, 2], ["1/3", 4]],
    [[1, 2], [0, True]],
    [[False, 1], [0, 1]],
    [[2.0, 1], [0, -3.0]],
    [[1, 2], [2.5, 0]],
    [[1, 2], [3]],
    [["x", 1], [3]],
    [[1, 2], "row"],
    [[1, 2], [3, None]],
    [["5", " -3 "], ["+5", "1_0"]],
    [["٣", "1e3"], ["3/4", "1.0"]],
    [["", 1], [0, 1]],
    [[1, "5"], ["1e3", "1.0"]],
]


def _outcome(load, rows):
    try:
        return load(rows, 2, 2, "pencil.A")
    except InputFormatError as exc:
        return str(exc)


@pytest.mark.parametrize("rows", MATRIX_CASES)
def test_integer_rows_load_as_the_fraction_path(rows, tmp_path, capsys, monkeypatch):
    got, want = _outcome(jsonio._matrix_from_json, rows), _outcome(_fraction_path, rows)
    assert got == want
    if isinstance(got, Mat):
        assert all(type(x) is int for r in got.rows for x in r)
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "A": rows, "B": [[1, 0], [0, 1]]}))
    runs = []
    for load in (jsonio._matrix_from_json, _fraction_path):
        monkeypatch.setattr(jsonio, "_matrix_from_json", load)
        code = main(["pencil", str(path)])
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == (0 if isinstance(want, Mat) else 2)


def _integer_string(rng) -> str:
    digits = str(rng.randint(0, 10**rng.randint(1, 12)))
    if len(digits) > 2 and rng.random() < 0.3:
        digits = digits[0] + "_" + digits[1:]
    sign = rng.choice(("", "", "-", "+"))
    pad = lambda: rng.choice(("", "", " ", "\t"))
    return pad() + sign + digits + pad()


# entries that are not integer strings: rationals, floats, bools, other
# JSON values and strings that neither ``int`` nor ``Fraction`` reads
_OTHER_STRINGS = ("3/4", " -6/8 ", "1/0", "1e3", "1.5", "٣", "x", "", "1__0", "--1", "1 2")
_OTHER_VALUES = (2.0, -3.0, 2.5, True, False, None, [1])


def _random_row(rng, n: int) -> list:
    kind = rng.random()
    if kind < 0.5:
        row = [_integer_string(rng) for _ in range(n)]
    else:
        row = [
            rng.choice(
                (
                    lambda: rng.randint(-99, 99),
                    lambda: _integer_string(rng),
                    lambda: rng.choice(_OTHER_VALUES),
                )
            )()
            for _ in range(n)
        ]
    if kind < 0.8 and rng.random() < 0.3:
        row[rng.randrange(n)] = rng.choice(_OTHER_STRINGS)
    return row if rng.random() < 0.97 else row[:-1]


def test_string_rows_load_as_the_per_entry_route():
    # rows of integer strings are read in one pass, and any other row entry
    # by entry; the values, the choice of integer rows and every error and
    # its order are those of reading each entry by ``str_to_rat``
    rng = random.Random(SEED + 43)
    seen = {"loaded": 0, "refused": 0, "string rows": 0}
    for _ in range(2000):
        rows = [_random_row(rng, 3) for _ in range(3)]
        seen["string rows"] += sum(all(type(x) is str for x in r) for r in rows)
        outcomes = []
        for load in (jsonio._matrix_from_json, per_entry_matrix):
            try:
                outcomes.append(load(rows, 3, 3, "mats[0]"))
            except InputFormatError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], rows
        seen["loaded" if isinstance(outcomes[0], Mat) else "refused"] += 1
    assert min(seen.values()) >= 300, seen


def test_class_strings():
    assert class_to_str(EigClass.infinite()) == "inf"
    assert class_to_str(EigClass((-2, 0, 1))) == "t^2-2"
    assert class_to_str(EigClass((-1, 2))) == "t-1/2"


def test_invariants_serialization():
    p = pencil_from_lists(
        [[1, 0, 0], [0, 0, 0], [0, 0, 1]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    )
    obj = invariants_to_json(strict_invariants(p))
    assert set(obj) == {"rank", "horizontal", "vertical", "jordan"}
    assert obj["rank"] == 3
    classes = {entry["class"]: entry for entry in obj["jordan"]}
    assert classes["t"]["sizes"] == [1]
    assert classes["inf"]["rootCount"] == 1


def test_skew_serialization():
    jk = SkewJK(dim=7, kronecker=(2,), jordan=((EigClass((-2, 0, 1)), (2,)),))
    obj = skew_to_json(jk)
    assert obj["dim"] == 7
    assert obj["kronecker"] == [2]
    assert obj["jordan"][0]["rootCount"] == 2


def test_signature_roundtrip():
    sig = BundleSig.make(3, 3, 2, (2,), (2,), ())
    assert sig_from_json(json.loads(json.dumps(sig_to_json(sig)))) == sig
    rich = BundleSig.make(4, 4, 4, (), (), ((2, 1), (1,)))
    assert sig_from_json(sig_to_json(rich)) == rich
    folded = SkewBundleSig.make(5, (2,), ((2,),))
    obj = skew_sig_to_json(folded)
    assert obj["dim"] == 5 and obj["kronecker"] == [2]


def test_signature_rejects_inconsistent_data():
    obj = sig_to_json(BundleSig.make(3, 3, 2, (2,), (2,), ()))
    obj["rank"] = 1
    with pytest.raises(InputFormatError):
        sig_from_json(obj)
    with pytest.raises(InputFormatError):
        sig_from_json({"m": 3, "n": 3})


def test_lie_algebra_roundtrip():
    g = _sl2()
    obj = lie_to_json(g)
    assert obj["dim"] == 3
    back = lie_from_json(json.loads(json.dumps(obj)))
    assert back.ad == g.ad
    with pytest.raises(InputFormatError):
        lie_from_json({"dim": 2, "brackets": [{"i": 0, "j": 1, "k": 0}]})
    with pytest.raises(InputFormatError):
        lie_from_json({"dim": 2})
    # bad index ranges surface as algebra errors, not format errors
    with pytest.raises(ValueError):
        lie_from_json({"dim": 2, "brackets": [{"i": 1, "j": 1, "k": 0, "c": 1}]})


def test_representation_roundtrip_and_path(tmp_path):
    g = _sl2()
    mats = [
        [["0", "1"], ["0", "0"]],
        [["0", "0"], ["1", "0"]],
        [["1", "0"], ["0", "-1"]],
    ]
    inline = {"algebra": lie_to_json(g), "dimV": 2, "mats": mats}
    rho = rep_from_json(inline)
    assert rho.dim_v == 2 and rho.algebra.ad == g.ad
    assert rep_from_json(rep_to_json(rho)).mats == rho.mats

    alg_file = tmp_path / "alg.json"
    alg_file.write_text(json.dumps(lie_to_json(g)))
    by_path = {"algebra": "alg.json", "dimV": 2, "mats": mats}
    rho2 = rep_from_json(by_path, base_dir=str(tmp_path))
    assert rho2.mats == rho.mats

    with pytest.raises(InputFormatError):
        rep_from_json({"algebra": lie_to_json(g), "dimV": 2, "mats": mats[:2]})
    with pytest.raises(InputFormatError):
        rep_from_json({"algebra": "missing.json", "dimV": 2, "mats": mats},
                      base_dir=str(tmp_path))


def test_emit_is_canonical_and_idempotent():
    obj = {"b": [1, 2], "a": {"y": "2/3", "x": None}}
    text = emit(obj)
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert emit(json.loads(text)) == text


def test_load_json_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(InputFormatError):
        load_json(str(bad))
    with pytest.raises(InputFormatError):
        load_json(str(tmp_path / "absent.json"))
