"""Input generation for the three benchmark workloads.

Everything here is plain Python with ``fractions``: pencils are built from
invariants chosen beforehand with the benchmark's own canonical blocks and
scrambled by random integer equivalence or congruence, and signature pairs
are drawn so that their answer follows from a rule the checker knows.  The
package is imported only by ``write_static``, which writes the classical
algebras and their closed-form tables for ``lie-catalog``.

A request is a dict ``{"kind", "argv", "expect"}``; ``argv`` is handed to
``penciljk.cli.main`` and ``expect`` to the matching checker.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

WORKLOADS = ("pencil-corpus", "lie-catalog", "closure-order")

# requests per round; sized so a round takes about 8 s (pencil-corpus,
# closure-order) or 14 s (lie-catalog) of reference-machine time, which keeps
# the number of rounds in a 20 s run at 3 and 2
STRICT_PER_ROUND = 155
SKEW_PER_ROUND = 42
DEEP_PER_ROUND = 12
MANY_SLOT_PER_ROUND = 6
CHEAP_PER_ROUND = 40


def rng_for(seed: int, *labels) -> random.Random:
    """A generator fixed by the workload seed and a position label."""
    return random.Random(":".join(str(x) for x in (seed,) + labels))


# ---------------------------------------------------------------------------
# exact matrices as lists of Fraction rows


def zeros(m: int, n: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * n for _ in range(m)]


def identity(n: int) -> list[list[Fraction]]:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0)) for col in cols] for row in a]


def transpose(a, n_cols: int | None = None):
    if not a:
        return [[] for _ in range(n_cols or 0)]
    return [list(col) for col in zip(*a)]


def block_diag(blocks):
    m = sum(len(a) for a, _ in blocks)
    n = sum(c for _, c in blocks)
    out = zeros(m, n)
    r = c = 0
    for a, cols in blocks:
        for i, row in enumerate(a):
            for j, x in enumerate(row):
                out[r + i][c + j] = x
        r += len(a)
        c += cols
    return out


def det(a) -> Fraction:
    a = [list(row) for row in a]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                for j in range(c, n):
                    a[i][j] -= f * a[c][j]
    return out


def random_invertible(rng: random.Random, k: int, bound: int = 3):
    while True:
        mat = [[Fraction(rng.randint(-bound, bound)) for _ in range(k)] for _ in range(k)]
        if det(mat) != 0:
            return mat


def rat_json(x: Fraction) -> int | str:
    return x.numerator if x.denominator == 1 else str(x)


def pencil_json(a, b, m: int, n: int) -> dict:
    return {
        "m": m,
        "n": n,
        "A": [[rat_json(x) for x in row] for row in a],
        "B": [[rat_json(x) for x in row] for row in b],
    }


# ---------------------------------------------------------------------------
# eigenvalue classes: monic polynomials as coefficient tuples, low degree
# first, or None for the infinite class


def poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return tuple(out)


def _is_square(v: int) -> bool:
    if v < 0:
        return False
    r = int(v**0.5)
    return any((r + d) ** 2 == v for d in (-1, 0, 1))


CLASS_KINDS = ("rational", "rational", "quadratic", "cubic", "infinite")
KIND_DEGREE = {"rational": 1, "quadratic": 2, "cubic": 3, "infinite": 1}


def random_class(rng: random.Random, kind: str):
    """A class of the given kind: a rational root, an irreducible quadratic
    or cubic with integer coefficients, or infinity."""
    if kind == "infinite":
        return None
    if kind == "rational":
        root = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
        return (-root, Fraction(1))
    if kind == "quadratic":
        while True:
            b, c = rng.randint(-3, 3), rng.randint(-5, 5)
            if not _is_square(b * b - 4 * c):
                return (Fraction(c), Fraction(b), Fraction(1))
    while True:
        a, b, c = rng.randint(-2, 2), rng.randint(-3, 3), rng.randint(-5, 5)
        if c == 0:
            continue
        # a monic integer cubic is reducible over Q only with an integer root
        roots = [d for d in range(1, abs(c) + 1) if c % d == 0]
        if all(r**3 + a * r * r + b * r + c and -(r**3) + a * r * r - b * r + c for r in roots):
            return (Fraction(c), Fraction(b), Fraction(a), Fraction(1))


def class_degree(cls) -> int:
    return 1 if cls is None else len(cls) - 1


def class_key(cls) -> str:
    """Canonical text of a class, shared with the checker."""
    if cls is None:
        return "inf"
    return ",".join(str(c) for c in cls)


# ---------------------------------------------------------------------------
# canonical blocks (pencil A + tB), each returned as (A, B, columns)


def horizontal_block(width: int):
    rows = width - 1
    a = [[Fraction(int(j == i + 1)) for j in range(width)] for i in range(rows)]
    b = [[Fraction(int(j == i)) for j in range(width)] for i in range(rows)]
    return a, b, width


def vertical_block(height: int):
    a, b, _ = horizontal_block(height)
    return transpose(a, height), transpose(b, height), height - 1


def jordan_block(cls, size: int):
    """One elementary divisor cls**size: A = -companion(cls**size), B = I."""
    if cls is None:
        a = identity(size)
        b = [[Fraction(int(j == i + 1)) for j in range(size)] for i in range(size)]
        return a, b, size
    f = (Fraction(1),)
    for _ in range(size):
        f = poly_mul(f, cls)
    k = len(f) - 1
    comp = zeros(k, k)
    for i in range(1, k):
        comp[i][i - 1] = Fraction(1)
    for i in range(k):
        comp[i][k - 1] = -f[i]
    a = [[-x for x in row] for row in comp]
    return a, identity(k), k


def _assemble(blocks):
    a = block_diag([(x, c) for x, _, c in blocks])
    b = block_diag([(y, c) for _, y, c in blocks])
    return a, b


# ---------------------------------------------------------------------------
# pencil-corpus


# A pencil's structure (block counts and sizes, and the kind of each class)
# comes from a generator fixed by its position in the workload, its values
# (the class polynomials and the scrambling matrices) from the seed.  Every
# seed therefore sees the same mix of shapes, and requests differ between
# seeds only in their numbers.


def _random_structure(rng, max_classes: int, max_blocks: int, max_size: int):
    kinds = []
    for _ in range(rng.randint(0, max_classes)):
        kind = rng.choice(CLASS_KINDS)
        if kind == "infinite" and kind in [k for k, _ in kinds]:
            continue
        sizes = sorted((rng.randint(1, max_size) for _ in range(rng.randint(1, max_blocks))), reverse=True)
        kinds.append((kind, sizes))
    return kinds


def _classes_for(rng, kinds) -> dict:
    jordan: dict = {}
    for kind, sizes in kinds:
        cls = random_class(rng, kind)
        while cls in jordan:
            cls = random_class(rng, kind)
        jordan[cls] = sizes
    return jordan


def strict_case(shape_rng: random.Random, rng: random.Random) -> tuple[dict, dict]:
    """A scrambled pencil of at most 10 x 12 and its invariants."""
    while True:
        horizontal = sorted((shape_rng.randint(1, 4) for _ in range(shape_rng.randint(0, 2))), reverse=True)
        vertical = sorted((shape_rng.randint(1, 4) for _ in range(shape_rng.randint(0, 2))), reverse=True)
        kinds = _random_structure(shape_rng, 3, 2, 3)
        jdim = sum(KIND_DEGREE[k] * sum(s) for k, s in kinds)
        n = sum(horizontal) + sum(u - 1 for u in vertical) + jdim
        m = sum(w - 1 for w in horizontal) + sum(vertical) + jdim
        if 1 <= m <= 10 and 1 <= n <= 12:
            break
    jordan = _classes_for(rng, kinds)
    blocks = [horizontal_block(w) for w in horizontal]
    blocks += [vertical_block(u) for u in vertical]
    blocks += [jordan_block(c, s) for c, sizes in jordan.items() for s in sizes]
    a, b = _assemble(blocks)
    left = random_invertible(rng, m)
    right = random_invertible(rng, n)
    a = matmul(matmul(left, a), right)
    b = matmul(matmul(left, b), right)
    expect = {
        "m": m,
        "n": n,
        "rank": sum(w - 1 for w in horizontal) + sum(u - 1 for u in vertical) + jdim,
        "horizontal": horizontal,
        "vertical": vertical,
        "jordan": {class_key(c): s for c, s in jordan.items()},
        "degrees": {class_key(c): class_degree(c) for c in jordan},
    }
    return pencil_json(a, b, m, n), expect


def _skew_double(a, b, cols):
    """X -> [[0, X], [-X^T, 0]] for both coefficients."""
    rows = len(a)
    out = []
    for x in (a, b):
        xt = transpose(x, cols)
        top = [[Fraction(0)] * rows + list(r) for r in x]
        bottom = [[-v for v in r] + [Fraction(0)] * cols for r in xt]
        out.append(top + bottom)
    return out[0], out[1], rows + cols


def skew_case(shape_rng: random.Random, rng: random.Random) -> tuple[dict, dict]:
    """A congruence-scrambled skew pencil of dimension at most 12."""
    while True:
        kronecker = sorted((shape_rng.randint(1, 3) for _ in range(shape_rng.randint(0, 3))), reverse=True)
        kinds = _random_structure(shape_rng, 2, 2, 2)
        dim = sum(2 * k - 1 for k in kronecker) + sum(2 * KIND_DEGREE[k] * sum(s) for k, s in kinds)
        if 2 <= dim <= 12:
            break
    half = _classes_for(rng, kinds)
    blocks = [_skew_double(*horizontal_block(k)) for k in kronecker]
    blocks += [_skew_double(*jordan_block(c, s)) for c, sizes in half.items() for s in sizes]
    a, b = _assemble(blocks)
    p = random_invertible(rng, dim)
    pt = transpose(p, dim)
    a = matmul(matmul(pt, a), p)
    b = matmul(matmul(pt, b), p)
    expect = {
        "dim": dim,
        "kronecker": kronecker,
        "jordan": {class_key(c): [2 * x for x in s] for c, s in half.items()},
        "degrees": {class_key(c): class_degree(c) for c in half},
    }
    return pencil_json(a, b, dim, dim), expect


def pencil_round(seed: int, rnd: int, folder: str) -> list[dict]:
    out = []
    total = STRICT_PER_ROUND + SKEW_PER_ROUND
    for i in range(total):
        shape_rng, rng = rng_for("shape", rnd, i), rng_for(seed, "pencil", rnd, i)
        # exactly SKEW_PER_ROUND skew requests, spread evenly through the round
        skew = (i * SKEW_PER_ROUND) % total < SKEW_PER_ROUND
        obj, expect = (skew_case if skew else strict_case)(shape_rng, rng)
        path = os.path.join(folder, f"p{rnd}_{i}.json")
        _dump(obj, path)
        argv = ["pencil", path] + (["--skew"] if skew else [])
        out.append({"kind": "skew" if skew else "strict", "argv": argv, "expect": expect})
    return out


def pencil_warmup(folder: str) -> dict:
    """One strict request with a quadratic class, so sympy gets imported."""
    rng = random.Random("warm-up")
    while True:
        obj, expect = strict_case(rng, rng)
        if any(d >= 2 for d in expect["degrees"].values()):
            break
    path = os.path.join(folder, "warmup.json")
    _dump(obj, path)
    return {"kind": "strict", "argv": ["pencil", path], "expect": expect}


# ---------------------------------------------------------------------------
# closure-order: bundle signatures as dicts in the CLI's JSON form


def partitions(total: int, largest: int | None = None):
    if total == 0:
        yield ()
        return
    largest = total if largest is None or largest > total else largest
    for first in range(largest, 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def partitions_of_length(total: int, parts: int, largest: int | None = None):
    if parts == 0:
        if total == 0:
            yield ()
        return
    largest = total if largest is None else largest
    for first in range(min(largest, total - parts + 1), 0, -1):
        for rest in partitions_of_length(total - first, parts - 1, first):
            yield (first,) + rest


def make_sig(m, n, rank, horizontal, vertical, slots) -> dict:
    return {
        "m": m,
        "n": n,
        "rank": rank,
        "horizontal": sorted(horizontal, reverse=True),
        "vertical": sorted(vertical, reverse=True),
        "slots": sorted((sorted(s, reverse=True) for s in slots), reverse=True),
    }


def sig_key(sig: dict) -> str:
    return json.dumps(sig, sort_keys=True)


def zero_sig(m: int, n: int) -> dict:
    return make_sig(m, n, 0, [1] * n, [1] * m, [])


def generic_sig(m: int, n: int) -> dict:
    """The dense stratum: distinct simple eigenvalues, or balanced indices."""
    if m == n:
        return make_sig(m, n, n, [], [], [[1]] * n)
    if m < n:
        q, r = divmod(m, n - m)
        return make_sig(m, n, m, [q + 2] * r + [q + 1] * (n - m - r), [], [])
    q, r = divmod(n, m - n)
    return make_sig(m, n, n, [], [q + 2] * r + [q + 1] * (m - n - r), [])


def bundle_codimension(sig: dict) -> int:
    """Demmel-Edelman (1995) orbit codimension minus the eigenvalue count."""
    eps = [w - 1 for w in sig["horizontal"]]
    eta = [u - 1 for u in sig["vertical"]]
    cod = 0
    for slot in sig["slots"]:
        cod += sum((2 * i + 1) * q for i, q in enumerate(sorted(slot, reverse=True)))
    cod += sum(a - b - 1 for a in eps for b in eps if a > b)
    cod += sum(a - b - 1 for a in eta for b in eta if a > b)
    cod += sum(sum(s) for s in sig["slots"]) * (len(eps) + len(eta))
    cod += sum(a + b + 2 for a in eps for b in eta)
    return cod - len(sig["slots"])


def signatures(m: int, n: int, rank: int, max_slots: int | None = None):
    """Every signature of the shape and rank, slots as a partition multiset."""
    hc, vc = n - rank, m - rank
    for hsum in range(hc, n + 1):
        for h in partitions_of_length(hsum, hc):
            for vsum in range(vc, m + 1):
                j = n - hsum - (vsum - vc)
                if j < 0:
                    continue
                for v in partitions_of_length(vsum, vc):
                    for slots in _slot_multisets(j):
                        if max_slots is None or len(slots) <= max_slots:
                            yield make_sig(m, n, rank, h, v, slots)


def _slot_multisets(total: int, bound=None):
    if total == 0:
        yield ()
        return
    for first_sum in range(total, 0, -1):
        for first in partitions(first_sum):
            if bound is not None and first > bound:
                continue
            for rest in _slot_multisets(total - first_sum, first):
                yield (first,) + rest


# Deep true pairs: the zero stratum against a full-rank stratum with at most
# one slot, whose breadth-first search from zero runs to the top rank.  The
# shapes and the codimension band keep the cost of each within about +-25%.
# The targets come in a fixed order; the seed picks whether each is used as
# m x n or transposed, which leaves the search cost unchanged.
DEEP_SHAPES = ((7, 9), (7, 8))
DEEP_MAX_COD = 16


def deep_pool(shape) -> list[dict]:
    m, n = shape
    return [s for s in signatures(m, n, min(m, n), max_slots=1) if bundle_codimension(s) <= DEEP_MAX_COD]


def transposed(sig: dict) -> dict:
    return make_sig(sig["n"], sig["m"], sig["rank"], sig["vertical"], sig["horizontal"], sig["slots"])


# False pairs whose upper signature has nine slots: the containment test
# tries every set partition of the slots (Bell(9) = 21147 of them).
MANY_SLOTS = 9


def many_slot_pool() -> list[tuple[dict, dict]]:
    pairs = []
    for n in (10, 11):
        for slots in _slot_multisets(n):
            if len(slots) != MANY_SLOTS:
                continue
            upper = make_sig(n, n, n, [], [], slots)
            cu = bundle_codimension(upper)
            # lowers with simple blocks only: no rule applies to them, so
            # each orbit test is immediate and the partition count sets the cost
            for sizes in partitions(n):
                lower = make_sig(n, n, n, [], [], [[s] for s in sizes])
                if lower != upper and bundle_codimension(lower) <= cu:
                    pairs.append((lower, upper))
    return pairs


def _sig_of_rank(rng: random.Random, m: int, n: int, rank: int) -> dict:
    return rng.choice(list(signatures(m, n, rank)))


CHEAP_KINDS = ("dominance", "dominance", "zero", "generic", "codim")


def cheap_pair(shape_rng: random.Random, rng: random.Random) -> tuple[dict, dict, str]:
    """A small pair whose answer one of the checker's rules decides.

    ``shape_rng`` fixes the kind and the shape; ``rng`` the rest.
    """
    kind = shape_rng.choice(CHEAP_KINDS)
    if kind == "dominance":
        n = shape_rng.randint(4, 8)
        lam, mu = rng.sample(list(partitions(n)), 2)
        return make_sig(n, n, n, [], [], [mu]), make_sig(n, n, n, [], [], [lam]), kind
    m, n = shape_rng.randint(2, 5), shape_rng.randint(2, 5)
    if kind == "generic" and m == n:
        m = n = min(n, 4)
    r1, r2 = rng.randint(1, min(m, n)), rng.randint(0, min(m, n))
    if kind == "zero":
        return zero_sig(m, n), _sig_of_rank(rng, m, n, r1), kind
    if kind == "generic":
        upper = generic_sig(m, n)
        lower = _sig_of_rank(rng, m, n, r2)
        while lower == upper:
            lower = _sig_of_rank(rng, m, n, r2)
        return lower, upper, kind
    while True:
        lower, upper = _sig_of_rank(rng, m, n, r1), _sig_of_rank(rng, m, n, r2)
        if lower != upper and bundle_codimension(lower) <= bundle_codimension(upper):
            return lower, upper, kind
        r1, r2 = rng.randint(0, min(m, n)), rng.randint(0, min(m, n))


class ClosureSource:
    """Hands out signature pairs so that no pair repeats within a run."""

    def __init__(self, seed: int):
        self.seed = seed
        self.deep = []
        for shape in DEEP_SHAPES:
            pool = deep_pool(shape)
            rng_for("deep", shape).shuffle(pool)
            self.deep.append(pool)
        many = many_slot_pool()
        rng_for(seed, "many").shuffle(many)
        self.many = itertools.cycle(many)
        self.seen: set[str] = set()

    def _deep_target(self, k: int) -> dict:
        """The k-th deep target; a second pass through a pool flips the
        seed's orientation, so 2 x pool size targets come before a repeat."""
        pool = self.deep[k % len(self.deep)]
        j = k // len(self.deep)
        flip = rng_for(self.seed, "deep", j % len(pool)).random() < 0.5
        upper = pool[j % len(pool)]
        return transposed(upper) if flip != bool(j // len(pool) % 2) else upper

    def round(self, rnd: int, folder: str) -> list[dict]:
        out = []
        for i in range(DEEP_PER_ROUND):
            upper = self._deep_target(rnd * DEEP_PER_ROUND + i)
            out.append(self._request(folder, rnd, len(out), zero_sig(upper["m"], upper["n"]), upper, "deep"))
        for _ in range(MANY_SLOT_PER_ROUND):
            lower, upper = next(self.many)
            out.append(self._request(folder, rnd, len(out), lower, upper, "many-slot"))
        for i in range(CHEAP_PER_ROUND):
            rng = rng_for(self.seed, "cheap", rnd, i)
            for attempt in itertools.count():
                # a small shape can run out of unused pairs; then the seed
                # picks the kind and shape too
                shape_rng = rng_for("cheap", rnd, i) if attempt < 20 else rng
                lower, upper, kind = cheap_pair(shape_rng, rng)
                key = sig_key(lower) + sig_key(upper)
                if key not in self.seen:
                    break
            self.seen.add(key)
            out.append(self._request(folder, rnd, len(out), lower, upper, kind))
        return out

    @staticmethod
    def _request(folder, rnd, i, lower, upper, kind) -> dict:
        lp = os.path.join(folder, f"c{rnd}_{i}_lower.json")
        up = os.path.join(folder, f"c{rnd}_{i}_upper.json")
        _dump(lower, lp)
        _dump(upper, up)
        return {
            "kind": kind,
            "argv": ["bundle-leq", "--lower", lp, "--upper", up],
            "expect": {"lower": lower, "upper": upper},
        }


def closure_warmup(folder: str) -> dict:
    lower = make_sig(3, 3, 3, [], [], [[1, 1, 1]])
    upper = make_sig(3, 3, 3, [], [], [[2, 1]])
    return ClosureSource._request(folder, "w", 0, lower, upper, "dominance")


# ---------------------------------------------------------------------------
# lie-catalog

# (family, n, m): semidirect --verify-dual for m >= n, rep or tables below
VERIFY_CELLS = (
    ("sl", 3, 3), ("sl", 3, 3), ("sl", 3, 3),
    ("gl", 2, 2), ("gl", 2, 3), ("gl", 2, 4),
    ("sl", 2, 2), ("sl", 2, 3), ("sl", 2, 4),
    ("so", 3, 3), ("so", 3, 4),
    ("sp", 2, 2), ("sp", 2, 3), ("sp", 2, 4),
)
REP_CELLS = (("gl", 3, 2), ("sl", 3, 2), ("so", 4, 2), ("sp", 4, 2))
TABLE_CELLS = (("sl", 3, 1), ("so", 4, 1), ("so", 3, 2), ("gl", 2, 1))
# algebras sampled at --bound 2, where a few percent of the samples are
# degenerate; their generic invariants are the degrees of the basic invariants
LIE_ALGEBRAS = {
    ("gl", 2): [2, 1],
    ("sl", 3): [3, 2],
    ("so", 4): [2, 2],
    ("sp", 4): [4, 2],
}
LIE_SAMPLES = 8
VERIFY_SAMPLES = 2
# the plane Euclidean algebra e(2): [e0, e1] = e2, [e0, e2] = -e1; its
# generic Poisson pencil has one Kronecker block of index 2
E2 = {"dim": 3, "brackets": [{"i": 0, "j": 1, "k": 2, "c": 1}, {"i": 0, "j": 2, "k": 1, "c": -1}]}
E2_ARGS = ["--seed", "657", "--samples", "1", "--bound", "2"]


def _cell_name(fam, n, m) -> str:
    return f"{fam}{n}_m{m}"


def write_static(folder: str) -> None:
    """Write the algebra and representation files and their closed forms.

    Imports the package from the checkout; raises ImportError when the
    checkout holds no package.
    """
    from penciljk.catalog import build_classical, expected_lie_jk, expected_rep_jk, parse_family
    from penciljk.jsonio import lie_to_json, rep_to_json
    from penciljk.semidirect import direct_sum

    tables = {}
    cells = set(VERIFY_CELLS) | set(REP_CELLS) | set(TABLE_CELLS) | {("gl", 2, 2)}
    for fam, n, m in sorted(cells):
        family = parse_family(f"{fam}:{n}")
        _, rho = build_classical(family)
        _dump(rep_to_json(direct_sum(rho, m)), os.path.join(folder, _cell_name(fam, n, m) + ".json"))
        rep = expected_rep_jk(family, m)
        lie = expected_lie_jk(family, m)
        tables[_cell_name(fam, n, m)] = {
            "rep": {
                "rank": rep.rank,
                "horizontal": list(rep.horizontal),
                "vertical": list(rep.vertical),
                "slots": [list(s) for s in rep.slots],
            },
            "lie": None if lie is None else {
                "kronecker": list(lie.kronecker),
                "slots": [list(s) for s in lie.slots],
            },
        }
    for fam, n in LIE_ALGEBRAS:
        g, _ = build_classical(parse_family(f"{fam}:{n}"))
        _dump(lie_to_json(g), os.path.join(folder, f"{fam}{n}.json"))
    _dump(E2, os.path.join(folder, "e2.json"))
    _dump(tables, os.path.join(folder, "tables.json"))


def lie_round(seed: int, rnd: int, folder: str, tables: dict) -> list[dict]:
    out = []

    def cli_seed() -> list[str]:
        # distinct sampling seeds, so no two requests sample the same pencils
        return ["--seed", str(seed * 100000 + rnd * 100 + len(out))]

    for fam, n, m in VERIFY_CELLS:
        cell = _cell_name(fam, n, m)
        argv = cli_seed() + ["--samples", str(VERIFY_SAMPLES), "semidirect", "--rep",
                             os.path.join(folder, cell + ".json"), "--verify-dual"]
        out.append({"kind": "verify-dual", "argv": argv, "expect": tables[cell]})
    for fam, n, m in REP_CELLS:
        cell = _cell_name(fam, n, m)
        argv = cli_seed() + ["--samples", "3", "rep", os.path.join(folder, cell + ".json")]
        out.append({"kind": "rep", "argv": argv, "expect": tables[cell]})
    for fam, n, m in TABLE_CELLS:
        cell = _cell_name(fam, n, m)
        argv = cli_seed() + ["--samples", "2", "tables", "--family", fam, "--n", str(n), "--m", str(m)]
        out.append({"kind": "tables", "argv": argv, "expect": tables[cell]})
    for (fam, n), kronecker in LIE_ALGEBRAS.items():
        argv = cli_seed() + ["--samples", str(LIE_SAMPLES), "--bound", "2", "lie",
                             os.path.join(folder, f"{fam}{n}.json")]
        out.append({"kind": "lie", "argv": argv, "expect": {"kronecker": kronecker, "slots": []}})
    # fixed input, counted as failed while the index certificate is unsound
    out.append({
        "kind": "lie",
        "argv": E2_ARGS + ["lie", os.path.join(folder, "e2.json")],
        "expect": {"kronecker": [2], "slots": []},
        "known_fault": "certify_generic_lie takes the sampled minimum corank as the index",
    })
    return out


def lie_warmup(folder: str, tables: dict) -> dict:
    cell = _cell_name("gl", 2, 2)
    argv = ["--seed", "999999", "--samples", str(VERIFY_SAMPLES), "semidirect", "--rep",
            os.path.join(folder, cell + ".json"), "--verify-dual"]
    return {"kind": "verify-dual", "argv": argv, "expect": tables[cell]}


def _dump(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
