"""Integer polynomials and stored classes against the Fraction ring of
the tests, factor bases, and the Smith chain."""

import random
from fractions import Fraction
from math import gcd

import pytest

from penciljk.polys import (
    _zgcd,
    _zmul,
    _zprimitive,
    _zsquarefree,
    coprime_basis,
    format_poly,
    integer_factors,
    poly_gcd,
    poly_sort_key,
)

from helpers import class_at_root, divides, is_constant, poly_eval
from oracles import (
    cleared,
    smith_invariant_factors,
    squarefree_decomposition,
    squarefree_part,
    sympy_factors,
    valuation,
)
from qpoly import Poly, monic, monic_gcd, primitive


def P(*coeffs):
    return Poly(coeffs)


def test_poly_basic_structure():
    assert P().is_zero()
    assert P().degree() == -1
    assert P(0, 0).is_zero()
    assert is_constant(P(2))
    assert Poly.x() == P(0, 1)
    assert class_at_root(3).poly == (-3, 1)
    assert class_at_root(Fraction(-1, 2)).poly == (1, 2)
    assert P(1, 2, 1).leading() == 1


def test_poly_arithmetic():
    f = P(1, 1)
    g = P(-1, 1)
    assert f * g == P(-1, 0, 1)
    assert f + g == P(0, 2)
    assert f - f == P()
    assert f**3 == P(1, 3, 3, 1)
    assert (f * 2).coeffs == (2, 2)


def test_poly_eval_and_roots():
    f = P(-6, 1, 1)  # (t+3)(t-2)
    assert poly_eval(f, 2) == 0
    assert poly_eval(f, -3) == 0
    assert poly_eval(f, 0) == -6


def test_gcd_and_lcm():
    # the package's gcd is over Z[t]: primitive, positive leading coefficient
    f = [-1, 0, 1]  # (t - 1)(t + 1)
    g = [-2, 1, 1]  # (t - 1)(t + 2)
    assert poly_gcd(f, g) == [-1, 1]
    assert poly_gcd([], f) == f
    assert poly_gcd([2, -2], [0, 0]) == [-1, 1]
    assert poly_gcd(f, [3]) == [1]
    assert poly_gcd([6, 6], [-4, -4, 0]) == [1, 1]
    # the oracle's is over Q: monic
    f, g = P(-1, 1) * P(1, 1), P(-1, 1) * P(2, 1)
    assert monic_gcd(f, g) == P(-1, 1)
    assert monic_gcd(P(), f) == f.monic()
    assert is_constant(monic_gcd(f, P(3)))


def test_gcd_distributes_over_common_factor():
    rng = random.Random(11)
    for _ in range(20):
        f = Poly([rng.randint(-3, 3) for _ in range(3)] + [rng.choice((1, 2, -3))])
        g = Poly([rng.randint(-3, 3) for _ in range(2)] + [1])
        h = Poly([rng.randint(-3, 3) for _ in range(2)] + [1])
        left = monic_gcd(f * g, f * h)
        right = (f.monic() * monic_gcd(g, h)).monic()
        assert left == right
        assert Poly(poly_gcd(cleared(f * g), cleared(f * h))).monic() == left


def test_squarefree_decomposition():
    f = P(-1, 1) ** 3 * P(1, 1)
    parts = dict(squarefree_decomposition(f))
    assert parts == {P(1, 1): 1, P(-1, 1): 3}
    assert squarefree_part(f) == (P(-1, 1) * P(1, 1)).monic()
    # Yun over Z in the package against Yun over Q here
    rng = random.Random(5)
    for _ in range(30):
        g = P(rng.choice((1, -2, 3)))
        for _ in range(rng.randint(1, 4)):
            g = g * P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 3))], 1) ** rng.randint(1, 3)
        z = cleared(g)
        low = next(i for i, c in enumerate(z) if c)
        mine = [(Poly(part).monic(), mult) for part, mult in _zsquarefree(_zprimitive(z[low:]))]
        theirs = squarefree_decomposition(Poly(z[low:]))
        assert mine == theirs


def test_coprime_basis_splits_shared_factors():
    f = P(-1, 1) * P(1, 0, 1)
    g = P(-1, 1) * P(-2, 0, 1)
    basis = coprime_basis([cleared(f), cleared(g)])
    assert basis == [(-1, 1), (-2, 0, 1), (1, 0, 1)]
    for i, a in enumerate(basis):
        for b in basis[i + 1 :]:
            assert is_constant(monic_gcd(Poly(a), Poly(b)))


def test_coprime_basis_handles_powers_and_fractions():
    f = P(Fraction(1, 2), 1) ** 2
    assert coprime_basis([cleared(f), [0, -3]]) == [(0, 1), (1, 2)]


def test_integer_factors_match_fraction_path():
    # products of linear, quadratic and cubic irreducibles with random
    # multiplicities and integer scalings; two products share some factors
    pytest.importorskip("sympy")
    pool = [
        P(0, 1), P(-1, 1), P(3, 1), P(Fraction(1, 2), 1), P(Fraction(-2, 3), 1),
        P(1, 0, 1), P(-2, 0, 1), P(-1, -1, 1), P(Fraction(-1, 2), 0, 1),
        P(-2, 0, 0, 1), P(1, 1, 0, 1),
    ]
    rng = random.Random(11)
    for _ in range(60):
        shared = rng.sample(pool, rng.randint(0, 3))
        f, g = P(rng.choice((1, -2, 3))), P(rng.choice((1, -1, 6)))
        for q in shared:
            f = f * q ** rng.randint(1, 3)
            g = g * q ** rng.randint(1, 3)
        for q in rng.sample(pool, 2):
            f = f * q ** rng.randint(0, 2)
        if rng.random() < 0.5:
            g = g * rng.choice(pool)
        d = monic_gcd(f, g)
        expected = [(q, valuation(d, monic(q))) for q, _ in sympy_factors(cleared(d))]
        z = _zgcd(cleared(f), cleared(g))
        assert Poly(z).monic() == d
        assert integer_factors(z) == expected
    assert integer_factors([5]) == []
    assert integer_factors([0, 0, 4]) == [((0, 1), 2)]


def test_integer_factors_are_primitive_tuples():
    # each factor is stored as its primitive integer associate: a tuple of
    # ints with content 1 and a positive leading coefficient
    rng = random.Random(12)
    seen = 0
    for _ in range(60):
        p = [rng.choice((-6, -1, 2, 15))]
        for _ in range(rng.randint(1, 3)):
            p = _zmul(p, [rng.randint(-6, 6) for _ in range(rng.randint(1, 3))] + [rng.choice((-4, -1, 2, 3))])
        for f, mult in integer_factors(p):
            assert type(f) is tuple and all(type(c) is int for c in f)
            assert len(f) > 1 and f[-1] > 0 and gcd(*f) == 1
            assert mult >= 1
            seen += f[-1] > 1
    assert seen >= 20


def test_format_poly():
    samples = [
        ((0, 1), "t"),
        ((-1, 1), "t-1"),
        ((1, 2), "t+1/2"),
        ((1, 0, 1), "t^2+1"),
        ((-2, 0, 0, 1), "t^3-2"),
        ((-1, -1, 1), "t^2-t-1"),
        ((-1, 0, 2), "t^2-1/2"),
        ((3, -2, 6), "t^2-1/3*t+1/2"),
    ]
    for f, text in samples:
        assert format_poly(f, "t") == text


def test_format_and_order_agree_with_the_monic_oracle():
    # on random primitive integer polynomials, the package prints and orders
    # classes exactly as the Fraction ring prints and orders their monic forms
    rng = random.Random(13)
    polys = set()
    while len(polys) < 300:
        f = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 12)]
        g = gcd(*f)
        polys.add(tuple(c // g for c in f))
    polys = list(polys)
    for f in polys:
        q = monic(f)
        assert primitive(q) == f
        assert format_poly(f, "t") == q.format("t")
        assert poly_sort_key(f) == q.sort_key()
    rng.shuffle(polys)
    assert sorted(polys, key=poly_sort_key) == sorted(polys, key=lambda f: monic(f).sort_key())


def test_smith_chain_divisibility_and_content():
    # entries of t*I - companion(f) for f = (t-1)^2 (t+2)
    f = P(-1, 1) ** 2 * P(2, 1)
    k = f.degree()
    entries = [[Poly() for _ in range(k)] for _ in range(k)]
    for j in range(k):
        for i in range(k):
            entries[i][j] = Poly([0, 1]) if i == j else Poly()
    for i in range(1, k):
        entries[i][i - 1] = entries[i][i - 1] - P(1)
    for i in range(k):
        entries[i][k - 1] = entries[i][k - 1] + P(f.coeffs[i])
    factors = smith_invariant_factors(entries)
    nontrivial = [g for g in factors if g.degree() >= 1]
    assert nontrivial == [f.monic()]
    for a, b in zip(factors, factors[1:]):
        assert divides(a, b)


def test_smith_of_diagonal_mixes():
    entries = [
        [P(-1, 1), P()],
        [P(), P(-1, 1) * P(1, 1)],
    ]
    factors = smith_invariant_factors(entries)
    assert factors[0] == P(-1, 1)
    assert factors[1] == (P(-1, 1) * P(1, 1)).monic()
