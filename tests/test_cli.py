"""End-to-end command-line runs, exercised in process."""

import json
import signal

import pytest

import penciljk.strata as strata
from penciljk.catalog import Family, build_classical
from penciljk.cli import main
from penciljk.jsonio import lie_to_json, rep_to_json
from penciljk.semidirect import direct_sum

SL2 = {
    "dim": 3,
    "brackets": [
        {"i": 0, "j": 1, "k": 2, "c": 1},
        {"i": 0, "j": 2, "k": 0, "c": -2},
        {"i": 1, "j": 2, "k": 1, "c": 2},
    ],
}

SL2_STD = {
    "algebra": SL2,
    "dimV": 2,
    "mats": [
        [["0", "1"], ["0", "0"]],
        [["0", "0"], ["1", "0"]],
        [["1", "0"], ["0", "-1"]],
    ],
}

SL2_STD2 = {
    "algebra": SL2,
    "dimV": 4,
    "mats": [
        [["0", "1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "1"], ["0", "0", "0", "0"]],
        [["0", "0", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1", "0"]],
        [["1", "0", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "-1"]],
    ],
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_pencil_command_json(tmp_path, capsys):
    path = write(
        tmp_path,
        "p.json",
        {"m": 2, "n": 2, "A": [["1", "0"], ["0", "2"]], "B": [["1", "0"], ["0", "1"]]},
    )
    code, out = run(capsys, ["pencil", path])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "pencil"
    assert report["skew"] is False
    assert report["invariants"]["rank"] == 2
    classes = [j["class"] for j in report["invariants"]["jordan"]]
    assert classes == ["t+1", "t+2"]

    # byte determinism and canonical idempotence
    code2, out2 = run(capsys, ["pencil", path])
    assert out2 == out
    from penciljk.jsonio import emit

    assert emit(json.loads(out)) == out


def test_pencil_command_text(tmp_path, capsys):
    path = write(
        tmp_path,
        "p.json",
        {"m": 1, "n": 2, "A": [["1", "0"]], "B": [["0", "1"]]},
    )
    code, out = run(capsys, ["--format", "text", "pencil", path])
    assert code == 0
    assert out.startswith("command: pencil\n")
    assert "skew: false" in out
    assert "horizontal: 2" in out


def test_pencil_skew_flag(tmp_path, capsys):
    skew = write(
        tmp_path,
        "s.json",
        {"m": 2, "n": 2, "A": [["0", "1"], ["-1", "0"]], "B": [["0", "2"], ["-2", "0"]]},
    )
    code, out = run(capsys, ["pencil", "--skew", skew])
    assert code == 0
    report = json.loads(out)
    assert report["skew"] is True
    assert report["invariants"]["kronecker"] == []
    assert report["invariants"]["jordan"][0]["sizes"] == [2]
    assert report["coreDimension"] == 0
    assert report["mantleDimension"] == 2

    plain = write(
        tmp_path,
        "ns.json",
        {"m": 2, "n": 2, "A": [["1", "0"], ["0", "1"]], "B": [["0", "1"], ["1", "0"]]},
    )
    code, _ = run(capsys, ["pencil", "--skew", plain])
    assert code == 4


def test_malformed_inputs(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert main(["pencil", str(broken)]) == 2
    assert main(["pencil", str(tmp_path / "absent.json")]) == 2
    good = write(tmp_path, "g.json", {"m": 1, "n": 1, "A": [["1"]], "B": [["0"]]})
    assert main(["--samples", "0", "pencil", good]) == 2
    assert main(["--seed", "-1", "pencil", good]) == 2
    assert main(["--bound", "1", "pencil", good]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "content",
    [
        b"\xff",  # not UTF-8
        b"[" * 200_000 + b"]" * 200_000,  # nested past the recursion limit
        b'{"m": 1, "n": 1, "A": [[' + b"7" * 5000 + b']], "B": [[0]]}',  # past the digit limit
    ],
    ids=["not-utf8", "deep-nesting", "long-integer"],
)
def test_unreadable_input_file_is_an_input_error(tmp_path, capsys, content):
    path = tmp_path / "p.json"
    path.write_bytes(content)
    assert main(["pencil", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_lie_command(tmp_path, capsys):
    path = write(tmp_path, "sl2.json", SL2)
    code, out = run(capsys, ["--samples", "5", "lie", path])
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 3
    assert report["invariants"]["kronecker"] == [2]
    assert report["invariants"]["jordan"] == []
    assert report["genericityStatus"] == "certified"
    assert report["indexUsed"] == 1
    assert report["samplesUsed"] == 5


def test_bad_algebra_exit_codes(tmp_path, capsys):
    # [e0, e1] = e0 and [e0, e2] = e1 fail Jacobi
    broken = {
        "dim": 3,
        "brackets": [
            {"i": 0, "j": 1, "k": 0, "c": 1},
            {"i": 0, "j": 2, "k": 1, "c": 1},
        ],
    }
    bad = write(tmp_path, "bad.json", broken)
    assert main(["lie", bad]) == 5
    out_of_range = write(
        tmp_path,
        "oor.json",
        {"dim": 2, "brackets": [{"i": 1, "j": 1, "k": 0, "c": 1}]},
    )
    assert main(["lie", out_of_range]) == 5
    not_hom = dict(SL2_STD)
    not_hom["mats"] = [
        [["0", "1"], ["0", "1"]],
        [["0", "0"], ["1", "0"]],
        [["1", "0"], ["0", "-1"]],
    ]
    nh = write(tmp_path, "nh.json", not_hom)
    assert main(["rep", nh]) == 5
    assert main(["semidirect", "--rep", nh]) == 5
    # the zero action is a homomorphism of any bracket, so only the
    # Jacobi check can reject this input
    zero = {"algebra": broken, "dimV": 1, "mats": [[["0"]]] * 3}
    assert main(["semidirect", "--rep", write(tmp_path, "zero.json", zero)]) == 5
    capsys.readouterr()
    # the constructor's refusal of the out-of-range index is reported as such
    rep_oor = write(tmp_path, "rep_oor.json", {**SL2_STD, "algebra": "oor.json"})
    assert main(["semidirect", "--rep", rep_oor]) == 5
    assert "invalid input values" in capsys.readouterr().err


def test_invalid_algebra_names_the_first_three_failures(tmp_path, capsys):
    # realistic sizes: sl(3) with [e_0, e_2] = e_6 doubled, and two copies
    # of the defining action of sp(4) with entry (0, 1) of the first
    # operator set to 1.  These lines were read off the dense defect
    # checks that the sparse sums replaced, and must not move
    g, _ = build_classical(Family("sl", 3))
    lie = lie_to_json(g)
    assert lie["brackets"][0] == {"i": 0, "j": 2, "k": 6, "c": "1"}
    lie["brackets"][0]["c"] = "2"
    bad_lie = write(tmp_path, "sl3.json", lie)
    assert main(["lie", bad_lie]) == 5
    assert capsys.readouterr().err == (
        "invalid algebra: jacobi identity fails at basis triples [(0, 1, 2), (0, 2, 3), (0, 2, 4)]\n"
    )
    _, rho = build_classical(Family("sp", 4))
    rep = rep_to_json(direct_sum(rho, 2))
    assert rep["mats"][0][0][1] == "0"
    rep["mats"][0][0][1] = "1"
    bad_rep = write(tmp_path, "sp4_m2.json", rep)
    for argv in (["rep", bad_rep], ["semidirect", "--rep", bad_rep], ["semidirect", "--rep", bad_rep, "--verify-dual"]):
        assert main(argv) == 5, argv
        assert capsys.readouterr().err == (
            "invalid algebra: operators fail the bracket at pairs [(0, 2), (0, 3), (0, 5)]\n"
        ), argv


def test_internal_value_error_is_a_failed_computation(tmp_path, capsys, monkeypatch):
    # a ValueError outside the algebra and representation loaders is a bug,
    # not an invalid algebra
    import penciljk.cli as cli

    def broken(p):
        raise ValueError("raised inside the computation")

    monkeypatch.setattr(cli, "strict_invariants", broken)
    path = write(tmp_path, "p.json", {"m": 1, "n": 1, "A": [[1]], "B": [[0]]})
    assert main(["pencil", path]) == 1
    assert capsys.readouterr().err == "computation failed: raised inside the computation\n"


def test_rep_command(tmp_path, capsys):
    path = write(tmp_path, "rep.json", SL2_STD)
    code, out = run(capsys, ["--samples", "5", "rep", path])
    assert code == 0
    report = json.loads(out)
    assert report["dimV"] == 2
    assert report["dimAlgebra"] == 3
    assert report["genericityStatus"] == "certified"
    assert report["invariants"]["horizontal"] == [3]


def test_rep_algebra_by_path(tmp_path, capsys):
    write(tmp_path, "alg.json", SL2)
    rep = {"algebra": "alg.json", "dimV": 2, "mats": SL2_STD["mats"]}
    code, out = run(capsys, ["--samples", "5", "rep", write(tmp_path, "r.json", rep)])
    assert code == 0
    assert json.loads(out)["dimAlgebra"] == 3


def test_semidirect_command(tmp_path, capsys):
    rep = write(tmp_path, "rep2.json", SL2_STD2)
    code, out = run(capsys, ["--samples", "5", "semidirect", "--rep", rep])
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 7
    assert "dual" not in report

    code, out = run(
        capsys, ["--samples", "5", "semidirect", "--rep", rep, "--verify-dual"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["dual"]["verdict"] == "match"
    assert report["dual"]["predictedKronecker"] == report["dual"]["computedKronecker"]

    lie = write(tmp_path, "sl2.json", SL2)
    code, _ = run(
        capsys, ["--samples", "5", "semidirect", "--lie", lie, "--rep", rep]
    )
    assert code == 0
    # the same algebra written differently: a coefficient as "4/2", one
    # bracket split into two entries that sum to it, the brackets reordered
    e_h, f_h, e_f = SL2["brackets"][1], SL2["brackets"][2], SL2["brackets"][0]
    for name, brackets in (
        ("sl2_ratio.json", [e_f, e_h, dict(f_h, c="4/2")]),
        ("sl2_split.json", [e_f, dict(e_h, c=-3), dict(e_h, c=1), f_h]),
        ("sl2_reordered.json", [f_h, e_f, e_h]),
    ):
        same = write(tmp_path, name, {"dim": 3, "brackets": brackets})
        assert main(["--samples", "5", "semidirect", "--lie", same, "--rep", rep]) == 0, name
    wider = write(tmp_path, "sl2_dim4.json", dict(SL2, dim=4))
    assert main(["--samples", "5", "semidirect", "--lie", wider, "--rep", rep]) == 2
    heis = write(
        tmp_path, "heis.json", {"dim": 3, "brackets": [{"i": 0, "j": 1, "k": 2, "c": 1}]}
    )
    assert main(["--samples", "5", "semidirect", "--lie", heis, "--rep", rep]) == 2
    capsys.readouterr()


def test_semidirect_validates_each_input_once(tmp_path, capsys, monkeypatch):
    import penciljk.catalog as catalog
    import penciljk.cli as cli
    import penciljk.lie as lie
    import penciljk.semidirect as semidirect

    counts = {"check_jacobi": 0, "check_homomorphism": 0}
    for name in counts:
        real = getattr(lie, name)

        def counted(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        for mod in (catalog, cli, lie, semidirect):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)

    rep = write(tmp_path, "rep2.json", SL2_STD2)
    lie_path = write(tmp_path, "sl2.json", SL2)
    for argv in (
        ["--samples", "2", "semidirect", "--rep", rep, "--verify-dual"],
        ["--samples", "2", "semidirect", "--lie", lie_path, "--rep", rep, "--verify-dual"],
        ["--samples", "2", "semidirect", "--rep", rep],
        ["--samples", "2", "tables", "--family", "sl", "--n", "2", "--m", "2"],
    ):
        counts.update(check_jacobi=0, check_homomorphism=0)
        assert main(argv) == 0
        assert counts == {"check_jacobi": 1, "check_homomorphism": 1}, argv
    capsys.readouterr()
    # a broken --lie that disagrees with the representation is still
    # reported as a broken algebra
    broken = write(
        tmp_path,
        "broken.json",
        {"dim": 3, "brackets": [{"i": 0, "j": 1, "k": 0, "c": 1}, {"i": 0, "j": 2, "k": 1, "c": 1}]},
    )
    assert main(["semidirect", "--lie", broken, "--rep", rep]) == 5
    capsys.readouterr()


def test_bundle_leq_command(tmp_path, capsys):
    upper = write(
        tmp_path,
        "upper.json",
        {"m": 2, "n": 3, "rank": 2, "horizontal": [3], "vertical": [], "slots": []},
    )
    lower = write(
        tmp_path,
        "lower.json",
        {"m": 2, "n": 3, "rank": 1, "horizontal": [2, 1], "vertical": [1], "slots": []},
    )
    code, out = run(capsys, ["bundle-leq", "--lower", lower, "--upper", upper])
    assert code == 0
    assert json.loads(out)["contains"] is True

    code, out = run(capsys, ["bundle-leq", "--lower", upper, "--upper", lower])
    assert code == 3
    assert json.loads(out)["contains"] is False

    other = write(
        tmp_path,
        "tiny.json",
        {"m": 1, "n": 1, "rank": 1, "horizontal": [], "vertical": [], "slots": [[1]]},
    )
    assert main(["bundle-leq", "--lower", other, "--upper", upper]) == 2
    capsys.readouterr()


def _signature_pairs(size: int) -> list[tuple[dict, dict]]:
    """(upper, lower) signatures of two pairs scaled by ``size``: one
    horizontal block of width size against widths (size - 1, 1) and a
    height-1 block, and one Jordan block of size ``size`` against sizes
    (size - 1, 1) at one eigenvalue.  Both lower strata lie in the upper
    closures."""
    n = size
    return [
        (
            {"m": n - 1, "n": n, "rank": n - 1, "horizontal": [n], "vertical": [], "slots": []},
            {"m": n - 1, "n": n, "rank": n - 2, "horizontal": [n - 1, 1], "vertical": [1], "slots": []},
        ),
        (
            {"m": n, "n": n, "rank": n, "horizontal": [], "vertical": [], "slots": [[n]]},
            {"m": n, "n": n, "rank": n, "horizontal": [], "vertical": [], "slots": [[n - 1, 1]]},
        ),
    ]


def _within(seconds: float, argv: list[str]) -> int:
    """The exit code of ``main(argv)``, which must return within the given
    wall time; an alarm stops it otherwise."""

    def expired(signum, frame):
        raise TimeoutError(f"{argv} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _leq_argv(tmp_path, upper: dict, lower: dict) -> list[str]:
    lower_path = write(tmp_path, "lower.json", lower)
    return ["bundle-leq", "--lower", lower_path, "--upper", write(tmp_path, "upper.json", upper)]


def test_bundle_leq_on_huge_indices_and_sizes(tmp_path, capsys):
    # the Hom bounds and the slot fits are evaluated at their kinks, not
    # at every index up to the largest, so 10-digit indices and sizes
    # answer at once, with the exit codes of the pairs scaled down to 10
    for small, huge in zip(_signature_pairs(10), _signature_pairs(10**9)):
        for flip in (False, True):
            if flip:
                small, huge = small[::-1], huge[::-1]
            code = main(_leq_argv(tmp_path, *small))
            assert code == (3 if flip else 0)
            assert _within(1.0, _leq_argv(tmp_path, *huge)) == code
    capsys.readouterr()


def _bell(k: int) -> int:
    # the Bell triangle: each row starts with the last entry of the one above
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def test_bundle_leq_refuses_past_the_partition_budget(tmp_path, capsys, monkeypatch):
    # every pair of up to ten upper slots answers within the budget, and an
    # eleven-slot search could take all Bell(11) partitions.  With the
    # budget cut to 60 (Bell(5) = 52 < 60 < Bell(6) = 203), a false pair of
    # six upper slots is refused with exit code 7, and a true pair of six
    # that matches at its 14th partition still answers, since partitions
    # are counted, not slots
    assert [_bell(k) for k in (5, 6, 10, 11)] == [52, 203, 115_975, 678_570]
    assert _bell(10) <= strata.MAX_SLOT_PARTITIONS < _bell(11)
    monkeypatch.setattr(strata, "MAX_SLOT_PARTITIONS", 60)
    regular = lambda n, slots: {"m": n, "n": n, "rank": n, "horizontal": [], "vertical": [], "slots": slots}
    upper = regular(7, [[1, 1]] + [[1]] * 5)
    for lower, code in ((regular(7, [[1]] * 7), 7), (regular(7, [[4, 1], [1], [1]]), 0)):
        assert main(_leq_argv(tmp_path, upper, lower)) == code
        out, err = capsys.readouterr()
        if code == 7:
            assert out == ""
            assert err.startswith("refused: bundle closure tried 60 set partitions of the 6 upper")
        else:
            assert json.loads(out)["contains"] is True
    # five slots stay within the cut budget, and a false pair answers
    assert main(_leq_argv(tmp_path, regular(6, [[1, 1]] + [[1]] * 4), regular(6, [[1]] * 6))) == 3
    capsys.readouterr()


def test_tables_command(tmp_path, capsys):
    code, out = run(
        capsys,
        ["--samples", "5", "tables", "--family", "sl", "--n", "2", "--m", "2"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["rep"]["match"] is True
    assert report["lie"]["known"] is True
    assert report["lie"]["match"] is True

    code, out = run(
        capsys,
        ["--samples", "2", "tables", "--family", "gl", "--n", "5", "--m", "3"],
    )
    assert code == 6
    report = json.loads(out)
    assert report["rep"]["match"] is True
    assert report["lie"] == {"known": False}

    assert main(["tables", "--family", "zz", "--n", "2", "--m", "1"]) == 2
    assert main(["tables", "--family", "gl", "--n", "2", "--m", "0"]) == 2
    capsys.readouterr()
