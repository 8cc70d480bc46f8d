"""Property tests for algebraic identities the library relies on.

These run derandomized so the suite stays reproducible; the seeded
random-batch tests elsewhere cover the heavier round-trip properties.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from penciljk.exactla import Mat, det, kernel_basis, rank
from penciljk.jsonio import rat_to_str, sig_from_json, sig_to_json, str_to_rat
from penciljk.polys import poly_gcd
from penciljk.strata import (
    bundle_closure_contains,
    enumerate_signatures,
    orbit_closure_contains,
)

from helpers import matmul
from oracles import successors
from qpoly import Poly, monic_gcd

FAST = settings(max_examples=60, deadline=None, derandomize=True)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=100
)


@FAST
@given(rationals)
def test_rational_string_roundtrip(q):
    assert str_to_rat(rat_to_str(q)) == q


coeff_lists = st.lists(st.integers(-6, 6), min_size=1, max_size=5)


def _poly(coeffs):
    return Poly([Fraction(c) for c in coeffs])


@FAST
@given(coeff_lists, coeff_lists)
def test_poly_product_degree(ca, cb):
    f, g = _poly(ca), _poly(cb)
    if f.degree() < 0 or g.degree() < 0:
        assert (f * g).degree() < 0
    else:
        assert (f * g).degree() == f.degree() + g.degree()


@FAST
@given(coeff_lists, coeff_lists)
def test_poly_gcd_divides(ca, cb):
    f, g = _poly(ca), _poly(cb)
    d = monic_gcd(f, g)
    if d.degree() < 0:
        assert f.degree() < 0 and g.degree() < 0
        return
    assert d.leading() == 1
    for h in (f, g):
        q, r = divmod(h, d)
        assert r.degree() < 0
        assert q * d == h
    # the package's gcd over Z[t] is the primitive associate of d
    z = poly_gcd(ca, cb)
    assert z[-1] > 0 and Poly(z).monic() == d


def _mats(k):
    entry = st.integers(-4, 4)
    return st.lists(
        st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k
    ).map(Mat)


@FAST
@given(_mats(3), _mats(3))
def test_det_multiplicative(a, b):
    assert det(matmul(a, b)) == det(a) * det(b)


@FAST
@given(_mats(3), _mats(3))
def test_rank_of_product_bounded(a, b):
    assert rank(matmul(a, b)) <= min(rank(a), rank(b))


@FAST
@given(_mats(3))
def test_rank_nullity(a):
    assert rank(a) + len(kernel_basis(a)) == 3


SMALL_SHAPES = [
    (m, n, r)
    for m in range(1, 5)
    for n in range(1, 5)
    for r in range(1, min(m, n) + (0 if m == n else 1))
]
SIG_POOL = [s for m, n, r in SMALL_SHAPES for s in enumerate_signatures(m, n, r)]


@FAST
@given(st.sampled_from(SIG_POOL), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_closure_order_reflexive_and_transitive(sig, i, j):
    # a rule step leads to the signature whose closure contains its input;
    # the rules come from the oracle, the closure tests from Hom inequalities
    assert bundle_closure_contains(sig, sig)
    assert orbit_closure_contains(sig, sig)
    steps = sorted(successors(sig), key=repr)
    if not steps:
        return
    mid = steps[i % len(steps)]
    assert bundle_closure_contains(mid, sig)
    assert orbit_closure_contains(mid, sig)
    assert not orbit_closure_contains(sig, mid)
    higher = sorted(successors(mid), key=repr)
    if higher:
        top = higher[j % len(higher)]
        assert bundle_closure_contains(top, sig)
        assert orbit_closure_contains(top, sig)


@FAST
@given(st.sampled_from(SIG_POOL))
def test_signature_json_roundtrip(sig):
    assert sig_from_json(sig_to_json(sig)) == sig
