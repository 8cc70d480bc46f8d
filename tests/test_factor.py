"""The pure-Python factorization over Z against sympy as an oracle, and
against standard-library oracles where sympy is not installed."""

import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import comb, gcd

import pytest

import penciljk.pencils as pencils
import penciljk.polys as polys
from penciljk.errors import FactorizationLimitError
from penciljk.polys import _zmul, integer_factors, poly_sort_key

from oracles import sympy_factors
from qpoly import monic
from test_golden import GOLDEN_DATA, _run, _write_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def swinnerton_dyer(k):
    """Minimal polynomial of sqrt(2) + sqrt(3) + ... over the first k
    primes: irreducible of degree 2**k, yet a product of factors of degree
    at most 2 mod every prime."""
    import sympy

    x = sympy.Symbol("x")
    expr = 1
    for signs in product((1, -1), repeat=k):
        expr *= x + sum(s * sympy.sqrt(q) for s, q in zip(signs, (2, 3, 5, 7)))
    return [int(c) for c in reversed(sympy.Poly(sympy.expand(expr), x).all_coeffs())]


def test_random_products_match_sympy():
    pytest.importorskip("sympy")
    rng = random.Random(2024)
    for _ in range(150):
        p = [rng.choice((1, -1, 2, -6, 15))]
        while True:
            q = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [rng.choice((1, -1, 2, 3, -4))]
            mult = rng.randint(1, 3)
            if len(p) - 1 + mult * (len(q) - 1) > 24:
                break
            for _ in range(mult):
                p = _zmul(p, q)
        assert integer_factors(p) == sympy_factors(p), p


def test_signs_contents_powers_of_t_and_constants():
    pytest.importorskip("sympy")
    cases = [
        [5], [-3], [0], [], [0, 0, 4], [0, 0, 0, -7],
        [-6, 0, 2, 0, 0, -2],  # negative leading coefficient and content 2
        [0, 0, 12, -12, -24],  # t**2 times content 12 times (1 - t - 2t**2)
        _zmul([0, 0, 0, 3], _zmul([1, 0, -2], [1, 0, -2])),
        _zmul([9, -3], [9, -3]),  # (9 - 3t)**2: a linear factor with content
        [-1, 0, 0, 0, -4],  # -(4t**4 + 1), which splits over Z
    ]
    for p in cases:
        assert integer_factors(p) == sympy_factors(p), p
    assert integer_factors([0, 0, 4]) == [((0, 1), 2)]
    # 4t^4 + 1 = (2t^2 - 2t + 1)(2t^2 + 2t + 1): monic t^2 -+ t + 1/2
    assert integer_factors([-1, 0, 0, 0, -4]) == [((1, -2, 2), 1), ((1, 2, 2), 1)]


@pytest.mark.parametrize("k", [3, 4])
def test_swinnerton_dyer_polynomials(k):
    pytest.importorskip("sympy")
    f = swinnerton_dyer(k)
    assert integer_factors(f) == sympy_factors(f) == [(tuple(f), 1)]
    # f(t) * f(t - 1) * f(t): recombination has to find two true factors
    shifted = [sum(c * (-1) ** (i - j) * comb(i, j) for i, c in enumerate(f) if i >= j) for j in range(len(f))]
    g = _zmul(_zmul(f, shifted), f)
    assert integer_factors(g) == sympy_factors(g) == sorted(
        [(tuple(f), 2), (tuple(shifted), 1)], key=lambda fm: monic(fm[0]).sort_key()
    )


def test_golden_replay_determinants_match_sympy(tmp_path, monkeypatch):
    pytest.importorskip("sympy")
    seen = []

    def checked(p):
        got = integer_factors(p)
        assert got == sympy_factors(p), p
        seen.append(len(p) - 1)
        return got

    monkeypatch.setattr(pencils, "integer_factors", checked)
    _write_inputs(str(tmp_path), GOLDEN_DATA["files"])
    monkeypatch.chdir(tmp_path)
    for request in GOLDEN_DATA["requests"]:
        assert _run(request["argv"]) == (request["code"], request["stdout"])
    assert len(seen) > 50 and max(seen) >= 6


def test_many_modular_factors_with_cheap_recombination():
    # t**60 - 1: 12 cyclotomic factors, at least 21 factors mod every prime
    pytest.importorskip("sympy")
    f = [-1] + [0] * 59 + [1]
    assert integer_factors(f) == sympy_factors(f)
    assert len(integer_factors(f)) == 12


def test_factorization_limit_is_refused(monkeypatch):
    # 8 quadratic factors mod the chosen prime: 162 subsets of size <= 4
    pytest.importorskip("sympy")
    f = swinnerton_dyer(4)
    monkeypatch.setattr(polys, "MAX_RECOMBINATION_SUBSETS", 100)
    with pytest.raises(FactorizationLimitError) as exc:
        integer_factors(f)
    message = str(exc.value)
    assert "degree-16" in message and "tried 100 subsets" in message
    r = int(re.search(r"of its (\d+) modular factors", message).group(1))
    assert r >= 8  # at most quadratic factors mod every prime


def test_refusal_exit_code(tmp_path, monkeypatch):
    # t*I - C for the companion matrix C of t**4 - 10 t**2 + 1, the minimal
    # polynomial of sqrt(2) + sqrt(3), which splits mod every prime
    n = 4
    a = [[0] * n for _ in range(n)]
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i + 1][i] = -1
    for i, c in enumerate([1, 0, -10, 0]):
        a[i][n - 1] = c
    path = tmp_path / "sd.json"
    path.write_text('{"m": %d, "n": %d, "A": %s, "B": %s}' % (n, n, a, b))
    err = io.StringIO()
    with monkeypatch.context() as patch:
        patch.setattr(polys, "MAX_RECOMBINATION_SUBSETS", 0)
        assert _run(["pencil", str(path)], err) == (7, "")
    assert err.getvalue().startswith("refused: factoring a degree-4 polynomial")
    code, out = _run(["pencil", str(path)])
    assert code == 0 and '"class": "t^4-10*t^2+1"' in out


def test_pencil_with_21_distinct_integer_eigenvalues(tmp_path):
    n = 21
    a = [[-(i + 1) if i == j else 0 for j in range(n)] for i in range(n)]
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    path = tmp_path / "diag21.json"
    path.write_text(json.dumps({"m": n, "n": n, "A": a, "B": b}))
    code, out = _run(["pencil", str(path)])
    assert code == 0
    jordan = json.loads(out)["invariants"]["jordan"]
    assert sorted(c["class"] for c in jordan) == sorted(f"t-{k}" for k in range(1, n + 1))
    assert all(c["sizes"] == [1] for c in jordan)


def test_fresh_cli_process_does_not_import_sympy(tmp_path):
    _write_inputs(str(tmp_path), {"strict2.json": GOLDEN_DATA["files"]["strict2.json"]})
    expected = next(r for r in GOLDEN_DATA["requests"] if r["argv"] == ["pencil", "strict2.json"])
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "penciljk.cli", "pencil", "strict2.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (expected["code"], expected["stdout"])
    assert '"rootCount": 2' in proc.stdout  # a finite class that is not linear
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "penciljk.polys" in imported
    assert not {m for m in imported if m.split(".")[0] == "sympy"}


def _divisors(k: int) -> list[int]:
    return [d for d in range(1, k + 1) if k % d == 0]


def _rational_roots(f) -> set[Fraction]:
    """Rational roots of c + b t + a t^2 with a > 0 and c != 0, by trying
    every +-p/q with p dividing c and q dividing a."""
    c, b, a = f
    return {
        Fraction(s * p, q)
        for p in _divisors(abs(c))
        for q in _divisors(a)
        for s in (1, -1)
        if a * p * p + s * b * p * q + c * q * q == 0
    }


def _irreducible_mod_some_prime(f) -> bool:
    """Whether c + b t + a t^2 has no root mod some odd prime p below 2,000
    that does not divide a: its discriminant is then a non-residue
    (Euler's criterion), and a quadratic irreducible mod p is irreducible
    over Q."""
    c, b, a = f
    disc = b * b - 4 * a * c
    for p in range(3, 2000, 2):
        if all(p % q for q in range(3, int(p**0.5) + 1, 2)) and a % p:
            if pow(disc % p, (p - 1) // 2, p) == p - 1:
                return True
    return False


def _primitive_quadratic(c: int, b: int, a: int):
    g = gcd(c, b, a) * (1 if a > 0 else -1)
    return [c // g, b // g, a // g]


def test_quadratic_parts_split_by_the_discriminant(monkeypatch):
    # 2,000 primitive squarefree quadratics with a nonzero constant term,
    # factored without distinct-degree factorization: small ones against a
    # divisor search for rational roots, 200-bit products of two linear
    # factors against those factors, and 200-bit random ones, of either
    # sign of discriminant, against a prime they are irreducible mod; and
    # against sympy where it is installed
    def unused(*args):
        raise AssertionError("a quadratic part went through the modular factorization")

    monkeypatch.setattr(polys, "_distinct_degree", unused)
    rng = random.Random(2026)
    cases = []
    while len(cases) < 2000:
        kind = len(cases) % 4
        if kind == 0:
            f = _primitive_quadratic(rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(1, 30))
            roots = _rational_roots(f) if f[0] else set()
            expected = sorted(((-r.numerator, r.denominator) for r in roots), key=poly_sort_key)
        elif kind == 1:
            u, v = (_primitive_quadratic(0, rng.randint(-(2**100), 2**100), rng.randint(1, 2**100))[1:] for _ in range(2))
            f = _zmul(u, v)
            expected = sorted({tuple(u), tuple(v)}, key=poly_sort_key)
        else:
            big = lambda: rng.randint(-(2**200), 2**200)  # noqa: E731
            a, c = big(), big()
            if kind == 3:
                # a and c of one sign and b small: a negative discriminant
                c = abs(c) if a > 0 else -abs(c)
            f = _primitive_quadratic(c, rng.randint(-(2**20), 2**20) if kind == 3 else big(), a)
            assert _irreducible_mod_some_prime(f), f
            expected = []
        if not (f[0] and f[2]) or f[1] ** 2 == 4 * f[0] * f[2]:
            continue
        if len(expected) == 1:  # a repeated root from the same factor twice
            continue
        cases.append((f, [(g, 1) for g in expected] or [(tuple(f), 1)]))
    split = 0
    for f, expected in cases:
        assert integer_factors(f) == expected, f
        split += len(expected) == 2
    assert split >= 500
    try:
        import sympy  # noqa: F401
    except ImportError:
        return
    for f, expected in cases[::7]:
        assert sympy_factors(f) == expected, f
