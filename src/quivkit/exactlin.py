"""Exact linear algebra over Q and F_p: fields, matrices, subspaces.

All arithmetic is exact.  A rational scalar is a plain int when it is
integral and a `fractions.Fraction` (lowest terms, positive denominator)
otherwise; prime-field scalars are ints in [0, p).
Subspaces are stored in reduced row-echelon form, so two subspaces are equal
as sets exactly when their stored bases are identical.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import QuivkitError


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin with the bases above is exact for every n below this bound.
_MR_LIMIT = 3317044064679887385961981


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round to base a for odd n > a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n >= _MR_LIMIT
    that is not a perfect square."""
    d_sel = 5
    while (j := _jacobi(d_sel, n)) != -1:
        if j == 0:
            return False
        d_sel = -d_sel - 2 if d_sel > 0 else -d_sel + 2
    q = (1 - d_sel) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k (P = 1) and Q^k mod n, k running over the leading bits of d
    u, v, qk = 1, 1, q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = u + v, d_sel * u + v
            u = (u + n if u % 2 else u) // 2 % n
            v = (v + n if v % 2 else v) // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _is_prime(n: int) -> bool:
    """Exact below _MR_LIMIT; above it the Baillie-PSW test, which has no
    known counterexample (Baillie and Wagstaff 1980)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_LIMIT:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return (_strong_probable_prime(n, 2) and isqrt(n) ** 2 != n
            and _strong_lucas_probable_prime(n))


class RationalField:
    """The field Q.  An integral value is a plain int, any other a Fraction
    (lowest terms, positive denominator).  The two mix exactly under +, -
    and *, compare and hash equal and print alike, so integral matrices are
    reduced at int speed; `of`, `parse` and `inv` return ints for integral
    results."""

    char = 0
    zero = 0
    one = 1

    def of(self, x):
        if type(x) is int:
            return x
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        if type(a) is int:
            return a if a in (1, -1) else Fraction(1, a)
        return self.of(1 / a)

    def fmt(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        return self.of(text.strip())

    @property
    def name(self) -> str:
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(("quivkit.field", 0))

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_p (p prime).  Values are ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise QuivkitError("NOT_PRIME", f"{p} is not prime")
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def of(self, x):
        p = self.char
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise ZeroDivisionError(f"denominator divisible by {p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        return int(x) % p

    def add(self, a, b):
        return (a + b) % self.char

    def sub(self, a, b):
        return (a - b) % self.char

    def mul(self, a, b):
        return (a * b) % self.char

    def neg(self, a):
        return (-a) % self.char

    def inv(self, a):
        if a % self.char == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.char}")
        return pow(a, self.char - 2, self.char)

    def fmt(self, a) -> str:
        return f"{a} mod {self.char}"

    def parse(self, text: str):
        text = text.strip()
        if text.endswith(f"mod {self.char}"):
            text = text[: -len(f"mod {self.char}")].strip()
        return self.of(Fraction(text))

    @property
    def name(self) -> str:
        return f"F{self.char}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.char == self.char

    def __hash__(self):
        return hash(("quivkit.field", self.char))

    def __repr__(self):
        return f"GF({self.char})"


QQ = RationalField()
_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


# Longest characteristic that a field tag may name, and longest integer
# literal a document may hold, in decimal digits.
MAX_CHAR_DIGITS = 1000


def field_by_name(name: str):
    """Parse a field tag: "Q" or "F<p>"."""
    name = name.strip()
    if name in ("Q", "QQ"):
        return QQ
    digits = name[1:]
    if name.startswith("F") and digits.isascii() and digits.isdigit():
        if len(digits) > MAX_CHAR_DIGITS:
            raise QuivkitError("BAD_FIELD", f"characteristic has {len(digits)} digits "
                                            f"(at most {MAX_CHAR_DIGITS})")
        return GF(int(digits))
    raise QuivkitError("BAD_FIELD", f"unknown field {name!r} (use Q or F<p>)")


# ---------------------------------------------------------------------------
# vectors (plain lists of field values)
# ---------------------------------------------------------------------------

def vec_zero(field, n):
    return [field.zero] * n


def vec_unit(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


def vec_add(field, u, v):
    return [field.add(a, b) for a, b in zip(u, v)]


def vec_sub(field, u, v):
    return [field.sub(a, b) for a, b in zip(u, v)]


def vec_scale(field, c, u):
    return [field.mul(c, a) for a in u]


def vec_combination(field, n, coeffs, vecs):
    """The length-n vector sum of c * v over zip(coeffs, vecs)."""
    add, mul = field.add, field.mul
    out = [field.zero] * n
    for c, v in zip(coeffs, vecs):
        if c:
            for k, x in enumerate(v):
                if x:
                    out[k] = add(out[k], mul(c, x))
    return out


def vec_is_zero(field, u):
    return not any(u)


def dot(field, u, v):
    add, mul = field.add, field.mul
    acc = field.zero
    for a, b in zip(u, v):
        if a and b:
            acc = add(acc, mul(a, b))
    return acc


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Mat:
    """Dense matrix with exact entries, row-major."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows: int, cols: int, data):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise QuivkitError("BAD_SHAPE", f"expected {rows}x{cols} data")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols, [[field.zero] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    @classmethod
    def from_rows(cls, field, rows, cols=None):
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise QuivkitError("BAD_SHAPE", "cols required for empty row list")
            cols = len(rows[0])
        return cls(field, len(rows), cols, rows)

    @classmethod
    def from_cols(cls, field, cols_list, rows=None):
        cols_list = [list(c) for c in cols_list]
        if rows is None:
            if not cols_list:
                raise QuivkitError("BAD_SHAPE", "rows required for empty col list")
            rows = len(cols_list[0])
        data = [[cols_list[j][i] for j in range(len(cols_list))] for i in range(rows)]
        return cls(field, rows, len(cols_list), data)

    def copy(self):
        return Mat(self.field, self.rows, self.cols, [row[:] for row in self.data])

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    def matvec(self, v):
        f = self.field
        out = []
        for row in self.data:
            out.append(dot(f, row, v))
        return out

    def matmul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise QuivkitError("BAD_SHAPE", "matmul dimension mismatch")
        f = self.field
        ocols = other.transpose().data
        data = [[dot(f, row, c) for c in ocols] for row in self.data]
        return Mat(f, self.rows, other.cols, data)

    def add(self, other: "Mat") -> "Mat":
        f = self.field
        return Mat(f, self.rows, self.cols,
                   [vec_add(f, r1, r2) for r1, r2 in zip(self.data, other.data)])

    def sub(self, other: "Mat") -> "Mat":
        f = self.field
        return Mat(f, self.rows, self.cols,
                   [vec_sub(f, r1, r2) for r1, r2 in zip(self.data, other.data)])

    def scale(self, c) -> "Mat":
        f = self.field
        return Mat(f, self.rows, self.cols, [vec_scale(f, c, r) for r in self.data])

    def transpose(self) -> "Mat":
        return Mat(self.field, self.cols, self.rows,
                   [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(vec_is_zero(self.field, r) for r in self.data)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols})"


def rref(m: Mat):
    """Reduced row-echelon form and pivot column list (unique, canonical)."""
    f = m.field
    a = [row[:] for row in m.data]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = None
        for i in range(r, m.rows):
            if a[i][c]:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        prow = a[r]
        if prow[c] != f.one:
            # entries left of c are zero: earlier columns hold no pivot here
            inv = f.inv(prow[c])
            for k in range(c, m.cols):
                if prow[k]:
                    prow[k] = f.mul(inv, prow[k])
        pivot_terms = [(k, x) for k, x in enumerate(prow) if x]
        for i in range(m.rows):
            arow = a[i]
            coef = arow[c]
            if i != r and coef:
                for k, x in pivot_terms:
                    arow[k] = f.sub(arow[k], f.mul(coef, x))
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Mat(f, m.rows, m.cols, a), pivots


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def solve(m: Mat, b):
    """One solution of m x = b with free variables set to 0, or None."""
    return solve_multi(m, [b])[0]


def solve_multi(m: Mat, bs):
    """Solve m x = b for each b in bs; list of solutions (None where inconsistent)."""
    f = m.field
    k = len(bs)
    if k == 0:
        return []
    aug = Mat(f, m.rows, m.cols + k,
              [m.data[i] + [b[i] for b in bs] for i in range(m.rows)])
    red, piv = rref(aug)
    main_piv = [p for p in piv if p < m.cols]
    # the rows after the main pivots are zero on the main block
    rest = red.data[len(main_piv):]
    sols = []
    for j in range(k):
        col = m.cols + j
        if any(row[col] for row in rest):
            sols.append(None)
            continue
        x = vec_zero(f, m.cols)
        for r_i, pc in enumerate(main_piv):
            x[pc] = red.data[r_i][col]
        sols.append(x)
    return sols


def invert(m: Mat) -> Mat:
    """Inverse of a square matrix; SINGULAR if some m x = e_i has no solution.

    The columns are exact solutions of m x = e_i, so m times the result is
    the identity with no product to check.
    """
    if m.rows != m.cols:
        raise QuivkitError("BAD_SHAPE", "inverse of non-square matrix")
    cols = solve_multi(m, [vec_unit(m.field, m.rows, i) for i in range(m.rows)])
    if any(c is None for c in cols):
        raise QuivkitError("SINGULAR", "matrix is not invertible")
    return Mat.from_cols(m.field, cols, rows=m.rows)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

def _eliminate(field, rows, pivots, v):
    """Remainder of v after eliminating, in order, each row's pivot entry.

    The rows need only be in echelon order: each row is 1 at its pivot and 0
    at the pivots of the rows before it.
    """
    sub, mul = field.sub, field.mul
    v = list(v)
    for row, pc in zip(rows, pivots):
        c = v[pc]
        if c:
            for k, b in enumerate(row):
                if b:
                    v[k] = sub(v[k], mul(c, b))
    return v


class Subspace:
    """Subspace of k^n stored as a canonical RREF basis (no zero rows)."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim, basis_rows, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis_rows
        self.pivots = pivots

    @classmethod
    def span(cls, field, ambient_dim, vectors):
        vectors = [list(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise QuivkitError("BAD_SHAPE", "vector length != ambient_dim")
        if not vectors:
            return cls(field, ambient_dim, [], [])
        red, piv = rref(Mat.from_rows(field, vectors, cols=ambient_dim))
        rows = [red.data[i] for i in range(len(piv))]
        return cls(field, ambient_dim, rows, piv)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, [], [])

    @classmethod
    def full(cls, field, ambient_dim):
        rows = [vec_unit(field, ambient_dim, i) for i in range(ambient_dim)]
        return cls(field, ambient_dim, rows, list(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v):
        """Remainder of v after elimination against the basis."""
        return _eliminate(self.field, self.basis, self.pivots, v)

    def contains(self, v) -> bool:
        return vec_is_zero(self.field, self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace.span(self.field, self.ambient_dim, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        # Zassenhaus: rows [u|u] for u in U, [w|0] for w in W; rows of the
        # echelon form that vanish on the left block span U∩W on the right.
        f = self.field
        n = self.ambient_dim
        rows = [r + r for r in self.basis] + [r + vec_zero(f, n) for r in other.basis]
        if not rows:
            return Subspace.zero(f, n)
        red, piv = rref(Mat.from_rows(f, rows, cols=2 * n))
        out = []
        for i in range(len(piv)):
            row = red.data[i]
            if vec_is_zero(f, row[:n]) and not vec_is_zero(f, row[n:]):
                out.append(row[n:])
        return Subspace.span(f, n, out)

    def basis_key(self):
        return tuple(tuple(r) for r in self.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis_key()))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def kernel(m: Mat) -> Subspace:
    """Solution space of m x = 0."""
    f = m.field
    red, piv = rref(m)
    pivset = set(piv)
    free = [c for c in range(m.cols) if c not in pivset]
    basis = []
    for fc in free:
        v = vec_zero(f, m.cols)
        v[fc] = f.one
        for r_i, pc in enumerate(piv):
            v[pc] = f.neg(red.data[r_i][fc])
        basis.append(v)
    return Subspace.span(f, m.cols, basis)


def image(m: Mat) -> Subspace:
    """Column space of m (the image of the linear map v -> m v)."""
    return Subspace.span(m.field, m.rows, m.columns())


def complement(ambient: Subspace, sub: Subspace) -> Subspace:
    """Deterministic complement W with ambient = sub ⊕ W.

    The RREF basis of `ambient` is scanned in order and rows independent
    from `sub` are collected (for ambient = k^n these are standard basis
    vectors).
    """
    f = ambient.field
    n = ambient.ambient_dim
    if not ambient.contains_subspace(sub):
        raise QuivkitError("NOT_A_SUBSPACE", "sub is not contained in ambient")
    # one elimination: each row independent of the rows so far joins them,
    # scaled from its remainder so the rows stay in echelon order
    added = []
    rows, pivots = list(sub.basis), list(sub.pivots)
    for row in ambient.basis:
        if len(rows) == ambient.dim:
            break
        rem = _eliminate(f, rows, pivots, row)
        pc = next((k for k, x in enumerate(rem) if x), None)
        if pc is not None:
            added.append(row)
            rows.append(vec_scale(f, f.inv(rem[pc]), rem))
            pivots.append(pc)
    return Subspace.span(f, n, added)


def quotient_basis(ambient: Subspace, sub: Subspace):
    """Representatives of a basis of ambient/sub plus a projection matrix.

    Returns (reps, proj) where reps is a list of vectors whose classes are a
    basis of the quotient, and proj is a (len(reps) x n) matrix computing
    quotient coordinates for vectors lying in `ambient`.
    """
    if not ambient.contains_subspace(sub):
        raise QuivkitError("NOT_A_SUBSPACE", "sub is not contained in ambient")
    f = ambient.field
    n = ambient.ambient_dim
    w = complement(ambient, sub)
    reps = [list(r) for r in w.basis]
    q = len(reps)
    rows = reps + [list(r) for r in sub.basis]
    if not rows:
        return [], Mat.zeros(f, 0, n)
    n_mat = Mat.from_rows(f, rows, cols=n)
    # proj rows P_i satisfy  N P_i^T = e_i, so P v recovers the rep
    # coefficients of any v = sum y_j (row_j of N) lying in ambient.  The
    # rows of N are independent, so every one of these systems is solvable.
    targets = [vec_unit(f, n_mat.rows, i) for i in range(q)]
    prows = solve_multi(n_mat, targets)
    proj = Mat.from_rows(f, prows, cols=n) if prows else Mat.zeros(f, 0, n)
    return reps, proj
