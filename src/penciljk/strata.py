"""Degeneration order on pencil strata.

Signatures anonymize eigenvalues: each distinct eigenvalue (including
infinity) becomes a slot carrying its Jordan size multiset.  A signature
determines an orbit up to relabeling eigenvalues, i.e. a bundle.  Six
rewriting rules generate the orbit-closure order; bundle closure adds
eigenvalue coalescence, realized here by merging slot groups of the
containing signature with entrywise sorted sums.

This is the first of the paper's two techniques: the stratification of
pencils under strict equivalence restricts which invariants a sampled
pencil can have.  ``enumerate_signatures`` lists the strata of one shape
and rank, over which that restriction is checked, so it is part of the
API and not a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateNotApplicableError


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
        total = sum(2 * k - 1 for k in self.kronecker) + sum(sum(s) for s in self.slots)
        if total != self.dim:
            raise ValueError("dimension bookkeeping failed")

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


def abstract_signature(inv) -> BundleSig:
    """Forget eigenvalue identities: one slot per class root."""
    slots = []
    for cls, sizes in inv.jordan:
        slots.extend([sizes] * cls.root_count)
    return BundleSig.make(
        m=inv.m,
        n=inv.n,
        rank=inv.rank,
        horizontal=inv.horizontal,
        vertical=inv.vertical,
        slots=slots,
    )


def skew_abstract_signature(jk) -> SkewBundleSig:
    slots = []
    for cls, sizes in jk.jordan:
        slots.extend([sizes] * cls.root_count)
    return SkewBundleSig.make(dim=jk.dim, kronecker=jk.kronecker, slots=slots)


# ---------------------------------------------------------------------------
# degeneration rules


def _remove_one(values: tuple[int, ...], x: int) -> list[int]:
    out = list(values)
    out.remove(x)
    return out


def _with_slots(sig: BundleSig, slots, rank=None, horizontal=None, vertical=None):
    return BundleSig.make(
        m=sig.m,
        n=sig.n,
        rank=sig.rank if rank is None else rank,
        horizontal=sig.horizontal if horizontal is None else horizontal,
        vertical=sig.vertical if vertical is None else vertical,
        slots=slots,
    )


def apply_rule(sig: BundleSig, rule: int, params) -> BundleSig:
    """Rewrite one signature into a more generic one.

    Rules 1/2 balance two horizontal/vertical indices.  Rules 3/4 widen a
    horizontal/vertical index by shrinking a Jordan block in one slot.
    Rule 5 unbalances two Jordan sizes inside one slot.  Rule 6 trades a
    horizontal and a vertical index for new Jordan blocks with sizes
    summing to their total minus one, placed in pairwise distinct slots
    (fresh ones or existing ones); the rank grows by one.

    Slot-valued params index into ``sig.slots``.  Raises ValueError when
    the requested blocks are absent or a side condition fails.
    """
    if rule == 1 or rule == 2:
        a, b = params
        pool = sig.horizontal if rule == 1 else sig.vertical
        if a > b - 2:
            raise ValueError("rule needs indices at distance at least 2")
        if a not in pool or b not in pool:
            raise ValueError("indices not present")
        new = _remove_one(tuple(_remove_one(pool, a)), b) + [a + 1, b - 1]
        if rule == 1:
            return _with_slots(sig, sig.slots, horizontal=new)
        return _with_slots(sig, sig.slots, vertical=new)

    if rule == 3 or rule == 4:
        w, idx, s = params
        pool = sig.horizontal if rule == 3 else sig.vertical
        if w not in pool:
            raise ValueError("index not present")
        if not (0 <= idx < len(sig.slots)) or s not in sig.slots[idx]:
            raise ValueError("slot block not present")
        slots = [list(t) for t in sig.slots]
        slots[idx].remove(s)
        if s > 1:
            slots[idx].append(s - 1)
        slots = [t for t in slots if t]
        new = _remove_one(pool, w) + [w + 1]
        if rule == 3:
            return _with_slots(sig, slots, horizontal=new)
        return _with_slots(sig, slots, vertical=new)

    if rule == 5:
        idx, j, k = params
        if not (1 <= j <= k):
            raise ValueError("rule needs 1 <= j <= k")
        if not 0 <= idx < len(sig.slots):
            raise ValueError("no such slot")
        slot = list(sig.slots[idx])
        if j == k and slot.count(j) < 2:
            raise ValueError("slot blocks not present")
        if j not in slot or k not in slot:
            raise ValueError("slot blocks not present")
        slot.remove(j)
        slot.remove(k)
        slot.append(k + 1)
        if j > 1:
            slot.append(j - 1)
        slots = [list(t) for t in sig.slots]
        slots[idx] = slot
        return _with_slots(sig, slots)

    if rule == 6:
        w, u, placements = params
        if w not in sig.horizontal or u not in sig.vertical:
            raise ValueError("indices not present")
        total = w + u - 1
        if sum(size for size, _ in placements) != total:
            raise ValueError("new sizes must sum to the removed total minus one")
        if any(size < 1 for size, _ in placements):
            raise ValueError("new sizes must be positive")
        targets = [t for _, t in placements if t is not None]
        if len(set(targets)) != len(targets):
            raise ValueError("existing-slot targets must be distinct")
        slots = [list(t) for t in sig.slots]
        for size, target in placements:
            if target is None:
                slots.append([size])
            else:
                if not 0 <= target < len(sig.slots):
                    raise ValueError("no such slot")
                slots[target].append(size)
        return _with_slots(
            sig,
            slots,
            rank=sig.rank + 1,
            horizontal=_remove_one(sig.horizontal, w),
            vertical=_remove_one(sig.vertical, u),
        )

    raise ValueError("rule must be 1..6")


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


def _rule6_placements(parts: tuple[int, ...], nslots: int):
    """Assignments of parts to pairwise distinct slots or to fresh ones."""
    if not parts:
        yield ()
        return
    first, rest = parts[0], parts[1:]
    for tail in _rule6_placements(rest, nslots):
        used = {t for _, t in tail if t is not None}
        yield ((first, None),) + tail
        for idx in range(nslots):
            if idx not in used:
                yield ((first, idx),) + tail


def successors(sig: BundleSig) -> set[BundleSig]:
    """All signatures reachable from ``sig`` by a single rule."""
    out: set[BundleSig] = set()
    hvals = sorted(set(sig.horizontal))
    vvals = sorted(set(sig.vertical))
    for a in hvals:
        for b in hvals:
            if a <= b - 2:
                out.add(apply_rule(sig, 1, (a, b)))
    for a in vvals:
        for b in vvals:
            if a <= b - 2:
                out.add(apply_rule(sig, 2, (a, b)))
    for idx, slot in enumerate(sig.slots):
        sizes = set(slot)
        for w in set(sig.horizontal):
            for s in sizes:
                out.add(apply_rule(sig, 3, (w, idx, s)))
        for u in set(sig.vertical):
            for s in sizes:
                out.add(apply_rule(sig, 4, (u, idx, s)))
        for j in sizes:
            for k in sizes:
                if j <= k and (j != k or slot.count(j) >= 2):
                    out.add(apply_rule(sig, 5, (idx, j, k)))
    for w in set(sig.horizontal):
        for u in set(sig.vertical):
            for parts in _partitions(w + u - 1):
                for placements in _rule6_placements(parts, len(sig.slots)):
                    out.add(apply_rule(sig, 6, (w, u, placements)))
    return out


# ---------------------------------------------------------------------------
# closure decisions


def orbit_closure_contains(upper: BundleSig, lower: BundleSig) -> bool:
    """True when ``upper`` is reachable from ``lower`` by the rules.

    Breadth-first search over signatures, pruned by the monotone
    quantities: rank never decreases and the index counts never grow.
    """
    if (upper.m, upper.n) != (lower.m, lower.n):
        raise ValueError("signatures must have the same shape")
    if upper == lower:
        return True
    delta = upper.rank - lower.rank
    if delta < 0:
        return False
    if len(lower.horizontal) - len(upper.horizontal) != delta:
        return False
    if len(lower.vertical) - len(upper.vertical) != delta:
        return False
    seen = {lower}
    frontier = [lower]
    while frontier:
        nxt = []
        for sig in frontier:
            for child in successors(sig):
                if child in seen:
                    continue
                if child.rank > upper.rank:
                    continue
                if len(child.horizontal) < len(upper.horizontal):
                    continue
                if len(child.vertical) < len(upper.vertical):
                    continue
                if child == upper:
                    return True
                seen.add(child)
                nxt.append(child)
        frontier = nxt
    return False


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
    degenerates, so each set partition of the upper slots is merged by
    entrywise sorted sums and tested for orbit-closure containment.
    Different partitions often merge to the same signature, and each one
    is searched once.
    """
    if (upper.m, upper.n) != (lower.m, lower.n):
        raise ValueError("signatures must have the same shape")
    if upper == lower:
        return True
    tried = set()
    for partition in _set_partitions(list(upper.slots)):
        merged = _with_slots(upper, [_segre_sum(group) for group in partition])
        if merged in tried:
            continue
        tried.add(merged)
        if orbit_closure_contains(merged, lower):
            return True
    return False


def skew_bundle_closure_contains(upper: SkewBundleSig, lower: SkewBundleSig) -> bool:
    """Folded dominance, decided on the unfolded strict signatures."""
    if upper.dim != lower.dim:
        raise ValueError("signatures must have the same dimension")
    return bundle_closure_contains(upper.unfold(), lower.unfold())


# ---------------------------------------------------------------------------
# generic fixed-rank strata


def generic_fixed_rank_sig(m: int, n: int, r: int, a: int) -> BundleSig:
    """The a-th maximal signature among rank-r strata of m x n pencils.

    The column defect a is spread over the n - r horizontal indices and
    r - a over the m - r vertical ones as evenly as possible; there is no
    Jordan part.
    """
    hi = min(m, n) if m != n else n - 1
    if not 1 <= r <= hi:
        raise ValueError("rank out of range for this shape")
    if not 0 <= a <= r:
        raise ValueError("column defect out of range")
    if n - r == 0:
        if a != 0:
            raise ValueError("no horizontal indices to carry a nonzero defect")
        alpha, s = 0, 0
    else:
        alpha, s = divmod(a, n - r)
    if m - r == 0:
        if r - a != 0:
            raise ValueError("no vertical indices to carry the remaining defect")
        beta, t = 0, 0
    else:
        beta, t = divmod(r - a, m - r)
    horizontal = [alpha + 2] * s + [alpha + 1] * (n - r - s)
    vertical = [beta + 2] * t + [beta + 1] * (m - r - t)
    return BundleSig.make(
        m=m, n=n, rank=r, horizontal=horizontal, vertical=vertical, slots=()
    )


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

    Applicable only to non-square shapes or ranks below min(m, n); the
    square full-rank case has no Kronecker indices to balance.
    """
    if m == n and r >= min(m, n):
        raise CertificateNotApplicableError(
            "square full-rank signatures are outside this certificate"
        )
    if (sig.m, sig.n, sig.rank) != (m, n, r):
        return False
    for a in range(r + 1):
        try:
            if sig == generic_fixed_rank_sig(m, n, r, a):
                return True
        except ValueError:
            continue
    return False
