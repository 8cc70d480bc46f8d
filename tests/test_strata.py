"""Signature combinatorics: degeneration rules, closure dominance, and
genericity certificates.  The rewriting rules and their breadth-first
search live in ``oracles``; the package's Hom-inequality test is checked
against them."""

import random

import pytest

import penciljk.strata as strata
from penciljk.errors import CertificateNotApplicableError
from penciljk.pencils import EigClass, StrictInvariants
from penciljk.skewjk import SkewJK
from penciljk.strata import (
    BundleSig,
    SkewBundleSig,
    abstract_signature,
    bundle_closure_contains,
    certify_generic_lie,
    certify_generic_repr,
    enumerate_signatures,
    orbit_closure_contains,
    skew_abstract_signature,
    skew_bundle_closure_contains,
)

from helpers import SEED
from oracles import (
    apply_rule,
    bfs_bundle_closure_contains,
    bfs_orbit_closure_contains,
    bundle_codimension,
    generic_fixed_rank_sig,
    orbit_codimension,
    range_fits,
    range_hom_bounds_hold,
    search_certify_generic_repr,
    successors,
)


def sig(m, n, rank, horizontal=(), vertical=(), slots=()):
    return BundleSig.make(
        m=m, n=n, rank=rank, horizontal=horizontal, vertical=vertical, slots=slots
    )


def test_signature_validation():
    s = sig(3, 3, 2, horizontal=(1,), vertical=(1,), slots=[(1,), (1,)])
    assert s.slots == ((1,), (1,))
    # make() canonicalizes the orderings
    assert sig(2, 3, 1, horizontal=(1, 2), vertical=(1,)).horizontal == (2, 1)
    with pytest.raises(ValueError):
        BundleSig(m=2, n=3, rank=1, horizontal=(1, 2), vertical=(1,), slots=())
    with pytest.raises(ValueError):
        sig(2, 3, 2, horizontal=(1, 1), vertical=())  # count mismatch
    with pytest.raises(ValueError):
        sig(2, 3, 1, horizontal=(3, 1), vertical=(1,))  # bookkeeping off
    with pytest.raises(ValueError):
        sig(2, 2, 2, slots=[()])


def test_abstract_signature_expands_class_roots():
    inv = StrictInvariants(
        m=8,
        n=8,
        rank=8,
        horizontal=(),
        vertical=(),
        jordan=(
            (EigClass((-2, 0, 1)), (2, 1)),
            (EigClass.infinite(), (2,)),
        ),
    )
    # the degree-2 class contributes one slot per conjugate root
    assert abstract_signature(inv) == sig(
        8, 8, 8, slots=[(2, 1), (2, 1), (2,)]
    )
    jk = SkewJK(
        dim=7,
        kronecker=(2,),
        jordan=((EigClass((-2, 0, 1)), (2,)),),
    )
    assert skew_abstract_signature(jk) == SkewBundleSig.make(
        dim=7, kronecker=(2,), slots=[(2,), (2,)]
    )


def test_rule_1_and_2_balance_indices():
    s = sig(2, 4, 2, horizontal=(3, 1))
    out = apply_rule(s, 1, (1, 3))
    assert out.horizontal == (2, 2)
    assert out.rank == s.rank
    t = sig(4, 2, 2, vertical=(3, 1))
    assert apply_rule(t, 2, (1, 3)).vertical == (2, 2)
    with pytest.raises(ValueError):
        apply_rule(s, 1, (2, 3))  # distance below 2
    with pytest.raises(ValueError):
        apply_rule(s, 1, (2, 4))  # absent indices


def test_rule_3_and_4_widen_at_a_slot():
    s = sig(1, 2, 1, horizontal=(1,), slots=[(1,)])
    out = apply_rule(s, 3, (1, 0, 1))
    assert out == sig(1, 2, 1, horizontal=(2,))
    s2 = sig(2, 3, 2, horizontal=(1,), slots=[(2,)])
    out2 = apply_rule(s2, 3, (1, 0, 2))
    assert out2 == sig(2, 3, 2, horizontal=(2,), slots=[(1,)])
    s3 = sig(2, 1, 1, vertical=(1,), slots=[(1,)])
    assert apply_rule(s3, 4, (1, 0, 1)) == sig(2, 1, 1, vertical=(2,))
    with pytest.raises(ValueError):
        apply_rule(s, 3, (1, 0, 2))  # no such block in the slot
    with pytest.raises(ValueError):
        apply_rule(s, 3, (1, 1, 1))  # no such slot


def test_rule_5_unbalances_inside_a_slot():
    s = sig(2, 2, 2, slots=[(1, 1)])
    assert apply_rule(s, 5, (0, 1, 1)) == sig(2, 2, 2, slots=[(2,)])
    s2 = sig(4, 4, 4, slots=[(2, 2)])
    assert apply_rule(s2, 5, (0, 2, 2)) == sig(4, 4, 4, slots=[(3, 1)])
    s3 = sig(3, 3, 3, slots=[(2, 1)])
    assert apply_rule(s3, 5, (0, 1, 2)) == sig(3, 3, 3, slots=[(3,)])
    with pytest.raises(ValueError):
        apply_rule(s, 5, (0, 2, 1))  # needs j <= k
    with pytest.raises(ValueError):
        apply_rule(s2, 5, (0, 1, 1))  # two 1-blocks absent


def test_rule_6_trades_indices_for_jordan_blocks():
    zero = sig(1, 1, 0, horizontal=(1,), vertical=(1,))
    out = apply_rule(zero, 6, (1, 1, ((1, None),)))
    assert out == sig(1, 1, 1, slots=[(1,)])
    assert out.rank == zero.rank + 1

    s = sig(3, 3, 2, horizontal=(2,), vertical=(1,), slots=[(1,)])
    out2 = apply_rule(s, 6, (2, 1, ((1, 0), (1, None))))
    assert out2 == sig(3, 3, 3, slots=[(1, 1), (1,)])
    with pytest.raises(ValueError):
        apply_rule(s, 6, (2, 1, ((1, None),)))  # sizes must sum to w + u - 1
    with pytest.raises(ValueError):
        apply_rule(s, 6, (2, 1, ((1, 0), (1, 0))))  # duplicate target


def test_successors_are_reachable_refinements():
    s = sig(3, 4, 2, horizontal=(2, 1), vertical=(1,), slots=[(1,)])
    children = successors(s)
    assert children
    for child in children:
        assert child != s
        assert child.rank >= s.rank
        assert orbit_closure_contains(child, s)


def test_orbit_closure_basic_properties():
    zero = sig(2, 2, 0, horizontal=(1, 1), vertical=(1, 1))
    mid = sig(2, 2, 1, horizontal=(1,), vertical=(1,), slots=[(1,)])
    top = sig(2, 2, 2, slots=[(1,), (1,)])
    assert orbit_closure_contains(zero, zero)
    assert orbit_closure_contains(mid, zero)
    assert orbit_closure_contains(top, mid)
    assert orbit_closure_contains(top, zero)
    assert not orbit_closure_contains(zero, top)  # rank is monotone
    with pytest.raises(ValueError):
        orbit_closure_contains(top, sig(1, 1, 1, slots=[(1,)]))


def test_orbit_closure_within_one_slot():
    # a single full block degenerates to balanced smaller ones
    full = sig(2, 2, 2, slots=[(2,)])
    split = sig(2, 2, 2, slots=[(1, 1)])
    assert orbit_closure_contains(full, split)
    assert not orbit_closure_contains(split, full)


def test_bundle_closure_coalesces_eigenvalues():
    distinct = sig(2, 2, 2, slots=[(1,), (1,)])
    merged = sig(2, 2, 2, slots=[(2,)])
    # two simple eigenvalues collide into one full block, but no orbit
    # degeneration ever merges slots
    assert not orbit_closure_contains(distinct, merged)
    assert bundle_closure_contains(distinct, merged)
    assert not bundle_closure_contains(merged, distinct)
    assert bundle_closure_contains(distinct, sig(2, 2, 2, slots=[(1, 1)]))


def test_bundle_closure_partial_merge():
    upper = sig(3, 3, 3, slots=[(1,), (1,), (1,)])
    lower = sig(3, 3, 3, slots=[(2,), (1,)])
    assert bundle_closure_contains(upper, lower)
    assert bundle_closure_contains(upper, sig(3, 3, 3, slots=[(3,)]))
    assert not bundle_closure_contains(lower, upper)


def test_bundle_closure_searches_each_merged_signature_once(monkeypatch):
    # three equal slots have 5 set partitions but only 3 merged slot
    # tuples: the three ways to merge two slots give the same one
    assert not hasattr(orbit_closure_contains, "cache_info")
    assert sum(1 for _ in strata._set_partitions([0, 1, 2])) == 5
    matched = []
    real = strata._slots_match

    def recorded(slots, hu, lower):
        matched.append(slots)
        return real(slots, hu, lower)

    monkeypatch.setattr(strata, "_slots_match", recorded)
    # three semisimple eigenvalues of multiplicity 2 coalesce at most to
    # Jordan sizes (3, 3), which never reach (4, 2); the rank and the Hom
    # bounds hold, so every merge goes to the slot matching
    upper = sig(6, 6, 6, slots=[(1, 1), (1, 1), (1, 1)])
    lower = sig(6, 6, 6, slots=[(4, 2)])
    assert strata._hom_bounds_hold(upper, lower)
    assert not bundle_closure_contains(upper, lower)
    assert len(matched) == len(set(matched)) == 3
    assert set(matched) == {((1, 1), (1, 1), (1, 1)), ((2, 2), (1, 1)), ((3, 3),)}
    # a lower signature of higher rank fails the bounds before any merge
    matched.clear()
    upper = sig(4, 4, 3, horizontal=(1,), vertical=(1,), slots=[(1,), (1,), (1,)])
    lower = sig(4, 4, 4, slots=[(1,), (1,), (1,), (1,)])
    assert not bundle_closure_contains(upper, lower)
    assert matched == []


def _signatures(m, n):
    return [s for r in range(min(m, n) + 1) for s in enumerate_signatures(m, n, r)]


def _pairs(max_total, min_side=1):
    """Every ordered pair of signatures of one shape m x n with
    m, n >= min_side and m + n <= max_total."""
    for total in range(2 * min_side, max_total + 1):
        for m in range(min_side, total - min_side + 1):
            sigs = _signatures(m, total - m)
            for upper in sigs:
                for lower in sigs:
                    yield upper, lower


def test_orbit_closure_matches_rule_search_exhaustively():
    found = [(orbit_closure_contains(u, l), bfs_orbit_closure_contains(u, l)) for u, l in _pairs(8)]
    assert len(found) == 5960
    assert all(a == b for a, b in found)
    assert sum(a for a, _ in found) == 2495
    # shapes with no rows or no columns
    assert all(
        orbit_closure_contains(u, l) == bfs_orbit_closure_contains(u, l)
        for u, l in _pairs(6, min_side=0)
    )


def test_bundle_closure_matches_rule_search_exhaustively():
    found = [(bundle_closure_contains(u, l), bfs_bundle_closure_contains(u, l)) for u, l in _pairs(7)]
    assert len(found) == 2181
    assert all(a == b for a, b in found)
    assert sum(a for a, _ in found) == 1042


def test_breakpoint_bounds_match_the_range_loops():
    # H_a, G_a and F_k evaluated only at the range ends and kinks agree
    # with every a and k of the ranges, on each pair with m + n <= 8: the
    # Hom bounds of the pair, and each upper slot against each lower slot
    # and against a fresh eigenvalue
    pairs = held = fitted = 0
    for upper, lower in _pairs(8):
        pairs += 1
        answer = strata._hom_bounds_hold(upper, lower)
        assert answer == range_hom_bounds_hold(upper, lower), (upper, lower)
        held += answer
        hu, hl = len(upper.horizontal), len(lower.horizontal)
        for slot in upper.slots:
            for image in lower.slots + ((),):
                answer = strata._fits(slot, image, hu, hl)
                assert answer == range_fits(slot, image, hu, hl), (slot, image, hu, hl)
                fitted += answer
    assert pairs == 5960
    assert 0 < held < pairs and fitted
    # larger widths put kinks of G_a inside the range: widths (6, 2, 1)
    # against (4, 4, 1) meet G_a at a = 0 and at the top a = 6, but
    # G_2 = 5 > 3 fails at the kink w - 2 = 2 of the lower width 4
    upper, lower = sig(6, 9, 6, horizontal=(6, 2, 1)), sig(6, 9, 6, horizontal=(4, 4, 1))
    assert [strata._hom_preinjective(x, 2) for x in (upper, lower)] == [5, 3]
    assert all(strata._hom_preinjective(upper, a) == strata._hom_preinjective(lower, a) for a in (0, 6))
    assert not strata._hom_bounds_hold(upper, lower) and not range_hom_bounds_hold(upper, lower)
    rng = random.Random(SEED + 1)
    pools = [_signatures(m, n) for m, n in [(6, 9), (7, 10), (5, 11)]]
    for _ in range(3000):
        upper, lower = rng.sample(rng.choice(pools), 2)
        assert strata._hom_bounds_hold(upper, lower) == range_hom_bounds_hold(upper, lower), (upper, lower)


def test_closure_matches_rule_search_on_larger_shapes():
    rng = random.Random(SEED)
    pools = [_signatures(m, n) for m, n in [(6, 6), (5, 7), (6, 7), (4, 8), (7, 7)]]
    answers = []
    for _ in range(100):
        # the less degenerate of two random signatures goes on top
        upper, lower = sorted(rng.sample(rng.choice(pools), 2), key=orbit_codimension)
        answer = orbit_closure_contains(upper, lower)
        assert answer == bfs_orbit_closure_contains(upper, lower), (upper, lower)
        answers.append(answer)
    assert 0 < sum(answers) < len(answers)


def test_strict_containments_raise_the_codimension():
    # Demmel and Edelman (1995): a strictly smaller stratum has a strictly
    # larger codimension, for orbits and for bundles alike
    orbit = bundle = 0
    for upper, lower in _pairs(8):
        if upper == lower:
            continue
        if orbit_closure_contains(upper, lower):
            orbit += 1
            assert orbit_codimension(lower) > orbit_codimension(upper), (upper, lower)
        if bundle_closure_contains(upper, lower):
            bundle += 1
            assert bundle_codimension(lower) > bundle_codimension(upper), (upper, lower)
    assert (orbit, bundle) == (2207, 2389)


def test_generic_fixed_rank_examples():
    assert generic_fixed_rank_sig(2, 3, 1, 1) == sig(
        2, 3, 1, horizontal=(2, 1), vertical=(1,)
    )
    assert generic_fixed_rank_sig(2, 3, 2, 2) == sig(2, 3, 2, horizontal=(3,))
    assert generic_fixed_rank_sig(3, 3, 2, 1) == sig(
        3, 3, 2, horizontal=(2,), vertical=(2,)
    )
    with pytest.raises(ValueError):
        generic_fixed_rank_sig(3, 3, 3, 0)  # square shapes stop below full rank
    with pytest.raises(ValueError):
        generic_fixed_rank_sig(2, 3, 1, 2)  # defect exceeds rank
    with pytest.raises(ValueError):
        generic_fixed_rank_sig(2, 3, 2, 0)  # no vertical indices for the rest


def test_enumerate_signatures_small_shape():
    found = set(enumerate_signatures(2, 2, 1))
    assert found == {
        sig(2, 2, 1, horizontal=(1,), vertical=(1,), slots=[(1,)]),
        sig(2, 2, 1, horizontal=(1,), vertical=(2,)),
        sig(2, 2, 1, horizontal=(2,), vertical=(1,)),
    }


def test_certify_generic_repr():
    good = generic_fixed_rank_sig(2, 3, 2, 2)
    assert certify_generic_repr(good, 2, 3, 2)
    withslot = sig(2, 3, 2, horizontal=(2,), slots=[(1,)])
    assert not certify_generic_repr(withslot, 2, 3, 2)
    assert not certify_generic_repr(good, 2, 3, 1)
    with pytest.raises(CertificateNotApplicableError):
        certify_generic_repr(sig(2, 2, 2, slots=[(1,), (1,)]), 2, 2, 2)


def test_certify_generic_repr_matches_the_defect_search():
    # every signature with m + n <= 9 against every rank of its shape
    compared = refused = certified = 0
    for total in range(10):
        for m in range(total + 1):
            n = total - m
            sigs = _signatures(m, n)
            for r in range(min(m, n) + 1):
                for s in sigs:
                    if m == n and r == m:
                        refused += 1
                        for certify in (certify_generic_repr, search_certify_generic_repr):
                            with pytest.raises(CertificateNotApplicableError):
                                certify(s, m, n, r)
                        continue
                    compared += 1
                    answer = certify_generic_repr(s, m, n, r)
                    assert answer == search_certify_generic_repr(s, m, n, r), (s, r)
                    certified += answer
    assert (compared, refused, certified) == (1880, 75, 116)


def test_certify_generic_lie():
    assert certify_generic_lie(SkewBundleSig.make(3, (2,), ()), 1)
    assert certify_generic_lie(SkewBundleSig.make(4, (2, 1), ()), 2)
    assert not certify_generic_lie(SkewBundleSig.make(6, (3, 1), ()), 2)
    assert not certify_generic_lie(SkewBundleSig.make(3, (1,), [(2,)]), 1)
    assert not certify_generic_lie(SkewBundleSig.make(3, (2,), ()), 2)
    with pytest.raises(ValueError):
        certify_generic_lie(SkewBundleSig.make(3, (2,), ()), 0)


def test_skew_unfold_and_dominance():
    folded = SkewBundleSig.make(5, (2,), [(2,)])
    assert folded.unfold() == sig(
        5, 5, 4, horizontal=(2,), vertical=(2,), slots=[(1, 1)]
    )
    upper = SkewBundleSig.make(3, (2,), ())
    lower = SkewBundleSig.make(3, (1,), [(2,)])
    assert skew_bundle_closure_contains(upper, lower)
    assert not skew_bundle_closure_contains(lower, upper)
    with pytest.raises(ValueError):
        skew_bundle_closure_contains(upper, SkewBundleSig.make(5, (2,), [(2,)]))
