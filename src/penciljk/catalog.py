"""Classical matrix algebras and their expected invariant signatures.

Constructs gl(n), sl(n), so(n), sp(n) on explicit matrix bases together
with the defining representation on column vectors, and evaluates the
closed-form signature tables for several copies of that representation.
Cells without a known closed form return None.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import InternalConsistencyError
from .exactla import Mat, pivot_columns, solve
from .lie import LieAlgebra, Representation, check_homomorphism, check_jacobi
from .strata import BundleSig, SkewBundleSig

FAMILY_NAMES = ("gl", "sl", "so", "sp")


@dataclass(frozen=True)
class Family:
    """One classical family at a fixed matrix size."""

    name: str
    n: int

    def __post_init__(self) -> None:
        if self.name not in FAMILY_NAMES:
            raise ValueError(f"unknown family {self.name!r}")
        if self.name == "gl":
            if self.n < 1:
                raise ValueError("gl needs n >= 1")
        elif self.n < 2:
            raise ValueError(f"{self.name} needs n >= 2")
        if self.name == "sp" and self.n % 2:
            raise ValueError("sp needs even n")

    @property
    def dim(self) -> int:
        n = self.n
        if self.name == "gl":
            return n * n
        if self.name == "sl":
            return n * n - 1
        if self.name == "so":
            return n * (n - 1) // 2
        return n * (n + 1) // 2

    @property
    def epsilon(self) -> int:
        """Sign of the invariant bilinear form: -1 symmetric, +1 alternating."""
        if self.name == "so":
            return -1
        if self.name == "sp":
            return 1
        raise ValueError(f"{self.name} preserves no bilinear form")

    @property
    def label(self) -> str:
        return f"{self.name}:{self.n}"


def parse_family(text: str) -> Family:
    """Parse a label like "gl:3" or "sp:4"."""
    name, sep, size = text.partition(":")
    if not sep:
        raise ValueError("family label must look like name:size, e.g. gl:3")
    try:
        n = int(size)
    except ValueError:
        raise ValueError(f"bad family size {size!r}") from None
    return Family(name, n)


def _unit(n: int, a: int, b: int) -> Mat:
    return Mat([[1 if (i, j) == (a, b) else 0 for j in range(n)] for i in range(n)])


def _basis_matrices(fam: Family) -> list[Mat]:
    n = fam.n
    mats: list[Mat] = []
    if fam.name == "gl":
        for a in range(n):
            for b in range(n):
                mats.append(_unit(n, a, b))
    elif fam.name == "sl":
        for a in range(n):
            for b in range(n):
                if a != b:
                    mats.append(_unit(n, a, b))
        for i in range(n - 1):
            mats.append(_unit(n, i, i) - _unit(n, i + 1, i + 1))
    elif fam.name == "so":
        # antisymmetric matrices: the form is the identity
        for a in range(n):
            for b in range(a + 1, n):
                mats.append(_unit(n, a, b) - _unit(n, b, a))
    else:
        # block form [[P, Q], [R, -P^T]] with Q, R symmetric, k = n/2
        k = n // 2
        for a in range(k):
            for b in range(k):
                mats.append(_unit(n, a, b) - _unit(n, k + b, k + a))
        for a in range(k):
            for b in range(a, k):
                q = _unit(n, a, k + b)
                if a != b:
                    q = q + _unit(n, b, k + a)
                mats.append(q)
        for a in range(k):
            for b in range(a, k):
                r = _unit(n, k + a, b)
                if a != b:
                    r = r + _unit(n, k + b, a)
                mats.append(r)
    return mats


def _commutator(x: tuple, y: tuple) -> list[int]:
    """The entries of x y - y x, row by row, for square integer rows x and y."""
    pairs = list(zip(zip(*y), zip(*x)))
    return [
        sum(map(mul, xr, ycol)) - sum(map(mul, yr, xcol))
        for xr, yr in zip(x, y)
        for ycol, xcol in pairs
    ]


def _structure_entries(mats: list[Mat]) -> list[tuple[int, int, int, Fraction]]:
    """Expand all commutators of the basis in the basis itself.

    With R_k the integer rows of basis matrix k and W_p = R_i R_j - R_j R_i
    for the p-th pair i < j, the flattened R_k are independent on some
    dim entries, so on those rows R is square and invertible, and one
    ``solve`` of R X = [W_1 ... W_P] gives every pair's coordinates over
    the R_k at once, as integer columns over one denominator t.  Closure
    is then checked on all n^2 entries.
    """
    dim = len(mats)
    flat = [[x for row in mat.rows for x in row] for mat in mats]
    pivots = pivot_columns(Mat.from_ints(flat, len(flat[0])))
    if len(pivots) != dim:
        raise InternalConsistencyError("basis matrices are dependent")
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    brackets = [_commutator(mats[i].rows, mats[j].rows) for i, j in pairs]
    square = Mat.from_ints([[f[c] for f in flat] for c in pivots], dim)
    solution = solve(square, Mat.from_ints([[w[c] for w in brackets] for c in pivots], len(pairs)))
    t = solution.den
    entry_cols = list(zip(*flat))
    entries: list[tuple[int, int, int, Fraction]] = []
    for (i, j), w, coords in zip(pairs, brackets, zip(*solution.rows)):
        if [t * e for e in w] != [sum(map(mul, coords, col)) for col in entry_cols]:
            raise InternalConsistencyError("basis not closed under commutators")
        # [B_i, B_j] = W_p / (d_i d_j) and B_k = R_k / d_k
        scale = mats[i].den * mats[j].den * t
        entries.extend((i, j, k, Fraction(x * mats[k].den, scale)) for k, x in enumerate(coords) if x)
    return entries


def build_classical(fam: Family) -> tuple[LieAlgebra, Representation]:
    """The algebra on its standard basis and its action on column vectors."""
    mats = _basis_matrices(fam)
    if len(mats) != fam.dim:
        raise InternalConsistencyError("basis size does not match the dimension")
    g = LieAlgebra(fam.dim, _structure_entries(mats))
    bad = check_jacobi(g)
    if bad:
        raise InternalConsistencyError(f"jacobi identity fails at {bad[0]}")
    rho = Representation(g, fam.n, tuple(mats))
    bad = check_homomorphism(rho)
    if bad:
        raise InternalConsistencyError(f"defining action fails at {bad[0]}")
    return g, rho


def _expand(pairs: list[tuple[int, int]]) -> tuple[int, ...]:
    out: list[int] = []
    for width, count in pairs:
        if count < 0:
            raise InternalConsistencyError("negative block count in a table cell")
        out.extend([width] * count)
    return tuple(out)


def expected_rep_jk(fam: Family, m: int) -> BundleSig:
    """Signature of the pencil invariants for m copies of the vector action.

    The pencil has m*n rows and dim(g) columns.  Known in closed form for
    every family and every m.
    """
    if m < 1:
        raise ValueError("need at least one copy")
    n = fam.n
    h: list[tuple[int, int]] = []
    v: list[tuple[int, int]] = []
    slots: list[tuple[int, ...]] = []
    if fam.name == "gl":
        if m < n:
            q, r = divmod(m, n - m)
            h = [(q + 1, n * (n - m - r)), (q + 2, n * r)]
        elif m == n:
            slots = [(1,) * n] * n
        else:
            q, r = divmod(n, m - n)
            v = [(q + 1, n * (m - n - r)), (q + 2, n * r)]
    elif fam.name == "sl":
        if m < n:
            q, r = divmod(m, n - m)
            h = [(q + 1, n * (n - m - r) - (q + 1)), (q + 2, n * r + q)]
        elif m == n:
            v = [(n, 1)]
            slots = [(1,) * (n - 1)] * n
        elif n % (m - n):
            q, r = divmod(n, m - n)
            v = [(q + 1, n * (m - n - r) + q + 2), (q + 2, n * r - (q + 1))]
        else:
            q = n // (m - n)
            v = [(q, q + 1), (q + 1, n * (m - n) - q)]
    else:
        e = fam.epsilon
        if m < n:
            q, r = divmod(m, n - m)
            k = n - m - r
            h = [
                (2 * q + 1, k * (k + e) // 2),
                (2 * q + 2, k * r),
                (2 * q + 3, r * (r + e) // 2),
            ]
            v = [(2, m * (m - e) // 2)]
        elif m == n:
            if fam.name == "so":
                v = [(1, n), (2, n * (n - 1) // 2)]
            else:
                v = [(2, n * (n - 1) // 2)]
                slots = [(1,)] * n
        else:
            v = [(1, (m - n - e) * n), (2, n * (n + e) // 2)]
    horizontal = _expand(h)
    vertical = _expand(v)
    jordan = sum(sum(s) for s in slots)
    rank = sum(horizontal) - len(horizontal) + sum(vertical) - len(vertical) + jordan
    return BundleSig.make(m * n, fam.dim, rank, horizontal, vertical, slots)


def expected_lie_jk(fam: Family, m: int) -> SkewBundleSig | None:
    """Skew signature of the semidirect sum with m copies of the dual action.

    Returns None for the cells with no known closed form (gl with m < n and
    m not dividing n; sl with m < n and n not congruent to 0 or +-1 mod m).
    """
    if m < 1:
        raise ValueError("need at least one copy")
    n = fam.n
    kron: list[tuple[int, int]] = []
    slots: list[tuple[int, ...]] = []
    if fam.name == "gl":
        if m < n:
            l, d = divmod(n, m)
            if d:
                return None
            slot = (2,) if m == 1 else (4,) + (2,) * (m - 2)
            slots = [slot] * (m * l * (l + 1) // 2)
        elif m == n:
            slot = (2,) if n == 1 else (4,) + (2,) * (n - 2)
            slots = [slot] * n
        else:
            q, r = divmod(n, m - n)
            kron = [(q + 1, n * (m - n - r)), (q + 2, n * r)]
    elif fam.name == "sl":
        if m < n:
            l, d = divmod(n, m)
            if d == 0:
                blocks = m * l * (l + 1) // 2
                kron = [(blocks, 1)]
                if m > 1:
                    slots = [(2,) * (m - 1)] * blocks
            elif d == 1 or d == m - 1:
                kron = [((l + 1) * (n + d) // 2, m)]
            else:
                return None
        elif m == n:
            kron = [(n, 1)]
            slots = [(2,) * (n - 1)] * n
        elif n % (m - n):
            q, r = divmod(n, m - n)
            kron = [(q + 1, n * (m - n - r) + q + 2), (q + 2, n * r - (q + 1))]
        else:
            q = n // (m - n)
            kron = [(q, q + 1), (q + 1, n * (m - n) - q)]
    elif fam.name == "so":
        if m < n:
            kron = [(2, m * (m + 1) // 2)]
            if (n + m) % 2:
                kron += [(j, 1) for j in range(2 * m + 2, n + m, 2)]
            else:
                kron += [(j, 1) for j in range(2 * m + 2, n + m - 1, 2)]
                kron.append(((n + m) // 2, 1))
        elif m == n:
            kron = [(1, n), (2, n * (n - 1) // 2)]
        else:
            kron = [(1, (m - n + 1) * n), (2, n * (n - 1) // 2)]
    else:
        if m < n:
            kron = [(2, m * (m - 1) // 2)]
            if (n + m) % 2:
                kron += [(j, 1) for j in range(2 * m + 1, n + m + 1, 2)]
            else:
                kron += [(j, 1) for j in range(2 * m + 2, n + m + 1, 2)]
                slots = [(2,)] * m
        elif m == n:
            kron = [(2, n * (n - 1) // 2)]
            slots = [(2,)] * n
        else:
            kron = [(1, (m - n - 1) * n), (2, n * (n + 1) // 2)]
    return SkewBundleSig.make(fam.dim + m * n, _expand(kron), slots)
