"""Degeneration order on pencil strata.

Signatures anonymize eigenvalues: each distinct eigenvalue (including
infinity) becomes a slot carrying its Jordan size multiset.  A signature
determines an orbit up to relabeling eigenvalues, i.e. a bundle.  Orbit
closure is decided by the Hom-dimension inequalities of Pokrzywa's
theorem, with a bipartite matching of eigenvalue slots; bundle closure
adds eigenvalue coalescence, realized here by merging slot groups of the
containing signature with entrywise sorted sums.

This is the first of the paper's two techniques: the stratification of
pencils under strict equivalence restricts which invariants a sampled
pencil can have.  ``enumerate_signatures`` lists the strata of one shape
and rank, over which that restriction is checked, so it is part of the
API and not a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import CertificateNotApplicableError, ClosureSearchLimitError

# ``bundle_closure_contains`` tries set partitions of the upper slots, a
# Bell number of them.  Every pair of up to ten upper slots, at most
# Bell(10) = 115,975 partitions, answers within this budget; past it, as
# for eleven slots (Bell(11) = 678,570), the pair is refused rather than
# left to run for hours.
MAX_SLOT_PARTITIONS = 120_000


def _desc(values) -> tuple[int, ...]:
    return tuple(sorted(values, reverse=True))


def _canonical_slots(slots) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted((_desc(s) for s in slots), reverse=True))


def _is_desc(values) -> bool:
    return all(values[i] >= values[i + 1] for i in range(len(values) - 1))


@dataclass(frozen=True)
class BundleSig:
    """Eigenvalue-anonymous Kronecker structure of a pencil stratum."""

    m: int
    n: int
    rank: int
    horizontal: tuple[int, ...]
    vertical: tuple[int, ...]
    slots: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not (_is_desc(self.horizontal) and all(w >= 1 for w in self.horizontal)):
            raise ValueError("horizontal indices must be positive descending")
        if not (_is_desc(self.vertical) and all(u >= 1 for u in self.vertical)):
            raise ValueError("vertical indices must be positive descending")
        if self.slots != _canonical_slots(self.slots):
            raise ValueError("slots must be descending tuples in descending order")
        for s in self.slots:
            if not s or any(x < 1 for x in s):
                raise ValueError("slots must hold positive sizes and be non-empty")
        if len(self.horizontal) != self.n - self.rank:
            raise ValueError("horizontal count must be n - rank")
        if len(self.vertical) != self.m - self.rank:
            raise ValueError("vertical count must be m - rank")
        j = self.jordan_dimension()
        if sum(self.horizontal) + sum(u - 1 for u in self.vertical) + j != self.n:
            raise ValueError("column bookkeeping failed")
        if sum(w - 1 for w in self.horizontal) + sum(self.vertical) + j != self.m:
            raise ValueError("row bookkeeping failed")

    @classmethod
    def make(cls, m, n, rank, horizontal, vertical, slots) -> "BundleSig":
        return cls(
            m=m,
            n=n,
            rank=rank,
            horizontal=_desc(horizontal),
            vertical=_desc(vertical),
            slots=_canonical_slots(slots),
        )

    def jordan_dimension(self) -> int:
        return sum(sum(s) for s in self.slots)


@dataclass(frozen=True)
class SkewBundleSig:
    """Anonymous folded invariants of a skew pencil stratum."""

    dim: int
    kronecker: tuple[int, ...]
    slots: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not (_is_desc(self.kronecker) and all(k >= 1 for k in self.kronecker)):
            raise ValueError("kronecker indices must be positive descending")
        if self.slots != _canonical_slots(self.slots):
            raise ValueError("slots must be descending tuples in descending order")
        for s in self.slots:
            if not s or any(x < 2 or x % 2 for x in s):
                raise ValueError("skew slots must hold even sizes >= 2")
        # the unfolded column sum is sum(2k - 1) + J = dim
        self.unfold()

    @classmethod
    def make(cls, dim, kronecker, slots) -> "SkewBundleSig":
        return cls(dim=dim, kronecker=_desc(kronecker), slots=_canonical_slots(slots))

    def unfold(self) -> BundleSig:
        """The strict-equivalence signature underlying the folded one.

        Each Kronecker index k unfolds to one horizontal and one vertical
        index k; each even size 2s unfolds to a Jordan size pair (s, s).
        """
        slots = [
            tuple(x for s2 in slot for x in (s2 // 2, s2 // 2)) for slot in self.slots
        ]
        return BundleSig.make(
            m=self.dim,
            n=self.dim,
            rank=self.dim - len(self.kronecker),
            horizontal=self.kronecker,
            vertical=self.kronecker,
            slots=slots,
        )


def _class_slots(jordan) -> tuple[tuple[int, ...], ...]:
    # one slot per class root; sizes stay as given, so unsorted ones fail
    slots = [tuple(sizes) for cls, sizes in jordan for _ in range(cls.root_count)]
    return tuple(sorted(slots, reverse=True))


def abstract_signature(inv) -> BundleSig:
    """Forget eigenvalue identities: one slot per class root.  The
    constructor, not ``make``, is called, so unsorted lists fail."""
    return BundleSig(
        m=inv.m,
        n=inv.n,
        rank=inv.rank,
        horizontal=tuple(inv.horizontal),
        vertical=tuple(inv.vertical),
        slots=_class_slots(inv.jordan),
    )


def skew_abstract_signature(jk) -> SkewBundleSig:
    """The folded ``abstract_signature``."""
    return SkewBundleSig(dim=jk.dim, kronecker=tuple(jk.kronecker), slots=_class_slots(jk.jordan))


# ---------------------------------------------------------------------------
# closure decisions


def _hom_preprojective(sig: BundleSig, a: int) -> int:
    """H_a(sig): dim Hom from the preprojective module indexed by a."""
    return (
        sum(max(0, u - a) for u in sig.vertical)
        + sum(a + w - 1 for w in sig.horizontal)
        + sig.jordan_dimension()
    )


def _hom_preinjective(sig: BundleSig, a: int) -> int:
    """G_a(sig): dim Hom from the preinjective module indexed by a."""
    return sum(max(0, a - w + 2) for w in sig.horizontal)


def _hom_bounds_hold(upper: BundleSig, lower: BundleSig) -> bool:
    """The rank, H_a and G_a conditions of ``orbit_closure_contains``.

    None of them reads the slots one by one, so merging upper slots
    leaves the answer unchanged.  H_a and G_a are piecewise linear in a,
    with kinks at the heights u and at w - 2 for the widths w, so the
    difference of the two sides is linear between consecutive kinks, and
    holds on the whole range 0..top when it holds at its ends and kinks.
    """
    if upper.rank < lower.rank:
        return False
    top = max((*upper.horizontal, *upper.vertical, *lower.horizontal, *lower.vertical), default=0)
    points = {0, top}
    for sig in (upper, lower):
        points.update(sig.vertical)
        points.update(w - 2 for w in sig.horizontal if w >= 2)
    return all(
        _hom_preprojective(upper, a) <= _hom_preprojective(lower, a)
        and _hom_preinjective(upper, a) <= _hom_preinjective(lower, a)
        for a in points
    )


def _fits(slot: tuple[int, ...], image: tuple[int, ...], hu: int, hl: int) -> bool:
    """F_k(slot) <= F_k(image) for k = 1 up to the largest size plus 1,
    with ``hu`` and ``hl`` horizontal blocks on the two sides; ``image``
    is empty for a fresh eigenvalue.  Both sides are piecewise linear in
    k, with kinks at the sizes, so the ends and the sizes suffice."""
    points = {1, max(slot + image) + 1, *slot, *image}
    return all(
        k * hu + sum(min(k, s) for s in slot) <= k * hl + sum(min(k, s) for s in image)
        for k in points
    )


def _slots_match(slots, hu: int, lower: BundleSig) -> bool:
    """Whether the upper slots, from a signature with ``hu`` horizontal
    blocks, go to distinct lower slots or to fresh eigenvalues with
    F_k(upper slot) <= F_k(its image) for every k (``_fits``)."""
    hl = len(lower.horizontal)
    # slots that fit a fresh eigenvalue never need a lower one
    need = [slot for slot in slots if not _fits(slot, (), hu, hl)]
    options = [[j for j, t in enumerate(lower.slots) if _fits(s, t, hu, hl)] for s in need]
    owner: dict[int, int] = {}

    def augment(i: int, seen: set) -> bool:
        # Kuhn's augmenting path from the i-th needy upper slot
        for j in options[i]:
            if j not in seen:
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(need)))


def orbit_closure_contains(upper: BundleSig, lower: BundleSig) -> bool:
    """True when the orbit closure of ``upper`` contains ``lower``, for
    some labelling of both signatures' slots by eigenvalues.

    A pencil is a module over the Kronecker quiver, of dimension
    (columns, rows).  A horizontal block of width w is the preinjective
    module of dimension (w, w - 1), a vertical block of height u the
    preprojective one of dimension (u - 1, u), and a slot holds the
    Jordan blocks at one eigenvalue.  With h(S) the number of horizontal
    blocks and J(S) the Jordan dimension of a signature S, the dimensions
    of Hom(X, S) for the three kinds of indecomposable X are

        H_a(S) = sum_vertical max(0, u - a) + sum_horizontal (a + w - 1) + J(S),
        G_a(S) = sum_horizontal max(0, a - w + 2)           (a >= 0),
        F_k(S) = k h(S) + sum_{s in slot} min(k, s)          (k >= 1, per slot).

    Theorem (Pokrzywa 1986; Edelman, Elmroth and Kagstrom, SIAM J. Matrix
    Anal. Appl. 20, 1999): ``lower`` lies in the closure exactly when

    * rank(upper) >= rank(lower), the F condition at an eigenvalue of
      neither signature;
    * H_a(upper) <= H_a(lower) and G_a(upper) <= G_a(lower) for a = 0 up
      to the largest width or height in either signature;
    * the upper slots go to distinct lower slots, or to empty slots (new
      eigenvalues), with F_k(upper slot) <= F_k(its image) for k = 1 up
      to the largest size in the pair plus 1.  Kuhn's augmenting paths
      find such a matching.

    Past those ranges both sides of each inequality grow with slope h, so
    no larger value needs checking.  Inside them every side is piecewise
    linear, so only the range ends and the kinks are evaluated: the cost
    grows with the number of indices and sizes, not with their values.
    Necessity is the upper semicontinuity of dim Hom(X, -); sufficiency
    is Pokrzywa's theorem.
    """
    if (upper.m, upper.n) != (lower.m, lower.n):
        raise ValueError("signatures must have the same shape")
    return _hom_bounds_hold(upper, lower) and _slots_match(
        upper.slots, len(upper.horizontal), lower
    )


def _set_partitions(items: list):
    """All partitions of items into non-empty groups."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _segre_sum(group: list[tuple[int, ...]]) -> tuple[int, ...]:
    # entrywise sum of descending size tuples, padded with zeros: the
    # Jordan structure of a generic coalescence of the group's eigenvalues
    width = max(len(s) for s in group)
    summed = [sum(s[i] if i < len(s) else 0 for s in group) for i in range(width)]
    return tuple(summed)


def bundle_closure_contains(upper: BundleSig, lower: BundleSig) -> bool:
    """True when the bundle closure of ``upper`` contains ``lower``.

    Some group of eigenvalues of ``upper`` may coalesce before the orbit
    degenerates.  A coalescence keeps the rank, the minimal indices and
    the Jordan dimension, so the rank, H_a and G_a conditions of
    ``orbit_closure_contains`` are tested once.  Then each set partition
    of the upper slots is merged by entrywise sorted sums, and each
    distinct merged slot tuple goes to the slot matching alone.  The
    number of set partitions is a Bell number, so this loop sets the
    cost when the upper signature has many slots.  It counts the
    partitions it tries, so a pair that matches early answers whatever
    its slot count, and it raises :class:`ClosureSearchLimitError` when
    ``MAX_SLOT_PARTITIONS`` partitions left the pair undecided and
    another one remains.
    """
    if (upper.m, upper.n) != (lower.m, lower.n):
        raise ValueError("signatures must have the same shape")
    if upper == lower:
        return True
    if not _hom_bounds_hold(upper, lower):
        return False
    hu = len(upper.horizontal)
    tried = set()
    partitions = _set_partitions(list(upper.slots))
    for partition in islice(partitions, MAX_SLOT_PARTITIONS):
        slots = _canonical_slots(map(_segre_sum, partition))
        if slots in tried:
            continue
        tried.add(slots)
        if _slots_match(slots, hu, lower):
            return True
    if next(partitions, None) is not None:
        raise ClosureSearchLimitError(
            f"bundle closure tried {MAX_SLOT_PARTITIONS} set partitions of "
            f"the {len(upper.slots)} upper eigenvalue slots without deciding"
        )
    return False


def skew_bundle_closure_contains(upper: SkewBundleSig, lower: SkewBundleSig) -> bool:
    """Folded dominance, decided on the unfolded strict signatures."""
    if upper.dim != lower.dim:
        raise ValueError("signatures must have the same dimension")
    return bundle_closure_contains(upper.unfold(), lower.unfold())


# ---------------------------------------------------------------------------
# the strata of one shape and rank


def enumerate_signatures(m: int, n: int, r: int):
    """All signatures of shape m x n with rank exactly r."""
    hc = n - r
    vc = m - r
    if r < 0 or hc < 0 or vc < 0:
        return
    for hsum in range(hc, n + 1):
        for horizontal in _partitions_fixed_length(hsum, hc):
            for vsum in range(vc, m + 1):
                j = n - hsum - vsum + vc
                if j < 0:
                    continue
                for vertical in _partitions_fixed_length(vsum, vc):
                    for slots in _slot_structures(j):
                        yield BundleSig.make(
                            m=m,
                            n=n,
                            rank=r,
                            horizontal=horizontal,
                            vertical=vertical,
                            slots=slots,
                        )


def _partitions_fixed_length(total: int, parts: int, largest=None):
    """Partitions of total into exactly ``parts`` positive parts, descending."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if largest is None:
        largest = total
    upper = min(largest, total - parts + 1)
    for first in range(upper, 0, -1):
        for rest in _partitions_fixed_length(total - first, parts - 1, first):
            yield (first,) + rest


def _partitions(total: int, largest=None):
    """Integer partitions of total as descending tuples."""
    if total == 0:
        yield ()
        return
    if largest is None or largest > total:
        largest = total
    for first in range(largest, 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def _slot_structures(total: int, bound=None):
    """Multisets of non-empty size multisets summing to ``total``.

    Slots are produced in non-increasing lexicographic order to avoid
    duplicates.
    """
    if total == 0:
        yield ()
        return
    for first_sum in range(total, 0, -1):
        for first in _partitions(first_sum):
            if bound is not None and first > bound:
                continue
            for rest in _slot_structures(total - first_sum, first):
                yield (first,) + rest


# ---------------------------------------------------------------------------
# genericity certificates


def certify_generic_lie(sig: SkewBundleSig, ind: int) -> bool:
    """Certify that folded invariants are the generic ones for an algebra
    of the given index: no Jordan part, exactly ``ind`` Kronecker indices,
    and all indices within one of each other."""
    if ind <= 0:
        raise ValueError("index must be positive")
    if sig.slots or len(sig.kronecker) != ind:
        return False
    return sig.kronecker[0] - sig.kronecker[-1] <= 1


def certify_generic_repr(sig: BundleSig, m: int, n: int, r: int) -> bool:
    """Certify that a signature is a maximal rank-r stratum.

    Those are the signatures of rank r >= 1 with no Jordan part whose
    horizontal indices are within one of each other, as are the vertical
    ones.  Applicable only to non-square shapes or ranks below
    min(m, n); the square full-rank case has no Kronecker indices to
    balance.
    """
    if m == n and r >= min(m, n):
        raise CertificateNotApplicableError(
            "square full-rank signatures are outside this certificate"
        )
    if (sig.m, sig.n, sig.rank) != (m, n, r) or r < 1 or sig.slots:
        return False
    h, v = sig.horizontal, sig.vertical
    return (not h or h[0] - h[-1] <= 1) and (not v or v[0] - v[-1] <= 1)
