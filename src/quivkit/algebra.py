"""Finite-dimensional pointed associative algebras given by structure constants.

An algebra is admitted only if it is associative, unital, has nilpotent
radical and a radical quotient isomorphic to a product of copies of the base
field.  Such an algebra is a quotient of a path algebra, so it is presented
by primitive orthogonal idempotents and by arrows, each in one Peirce block
of theirs, whose words span the radical J; every algebra is admitted through
that one certificate (`_admit`), which re-verifies the radical over those
generators in any field characteristic.  A construction (path algebra,
quotient) writes its table in the stored sparse form and hands over its
idempotents and arrows (`presented_algebra`).  A raw table, sparse
(`table_algebra`) or dense (`validate_algebra`), is checked for
associativity, its radical is the kernel of the trace form (char 0 or
p > dim), and the idempotents and arrows are made from it: A/J is split on
its own table by minimal polynomials, the classes are lifted to exact
idempotents and the arrows are bases of the Peirce blocks of J.

Every admitted algebra keeps that verified generating set G, the idempotents
and the arrows.  Ideal tests and morphism checks run over G, which is enough
because words in G span A.
"""

from __future__ import annotations

from .errors import QuivkitError
from .exactlin import (
    Echelon,
    Mat,
    Subspace,
    _as_sparse,
    _column_echelon,
    _field_value,
    _inverse_cols,
    _reduce,
    _span,
    add_scaled,
    dense,
    vec_unit,
)
from .poly import roots_if_split


class FinAlgebra:
    """Associative unital algebra over an exact field, by structure constants.

    `structconst[i][j]` holds b_i * b_j as a tuple of `(m, c)` pairs: the
    nonzero coordinates c of the product, in ascending basis index m.  The
    form is canonical, so equal algebras have equal tables.  The radical
    filtration [A, J, J^2, ..., 0] is computed at validation time and cached;
    `truncation_level` is the least n with J^n = 0.  `ss_classes` are
    primitive orthogonal idempotents summing to 1, one for each copy of k in
    A/J; each of the `arrows` lies in one Peirce block of theirs, and the
    words in the arrows span J.  `arrow_blocks[k]` is the block (s, t) that
    admission found arrow k in, x = e_t x e_s for e = `ss_classes`.

    An element is a sparse vector {index: nonzero value}.  `unit`,
    `ss_classes`, `arrows` and every element quivkit stores, passes or
    returns have that form and are never changed once made; a caller that
    edits one copies it first.  `basis_vector`, `element` and `mul` are the
    dense views, lists of dim values; `mul` takes its factors in either form.
    """

    __slots__ = ("field", "dim", "basis_labels", "structconst", "unit",
                 "radical_filtration", "truncation_level", "ss_classes",
                 "arrows", "arrow_blocks", "_label_index", "_gq_cache")

    def __init__(self, field, basis_labels, structconst, unit,
                 radical_filtration, ss_classes, arrows, arrow_blocks):
        self.field = field
        self.dim = len(basis_labels)
        self.basis_labels = list(basis_labels)
        self.structconst = structconst
        self.unit = unit
        self.radical_filtration = radical_filtration
        self.truncation_level = len(radical_filtration) - 1
        self.ss_classes = ss_classes
        self.arrows = arrows
        self.arrow_blocks = arrow_blocks
        self._label_index = {lab: i for i, lab in enumerate(basis_labels)}
        self._gq_cache = None

    # -- elements ----------------------------------------------------------

    def basis_vector(self, i):
        return vec_unit(self.field, self.dim, i)

    def element(self, label):
        return self.basis_vector(self._label_index[label])

    def mul(self, x, y):
        f, n = self.field, self.dim
        return dense(f, n, _mul_raw(f, self.structconst, _as_sparse(f, n, x), _as_sparse(f, n, y)))

    def generators(self):
        """G: the idempotents and the arrows."""
        return self.ss_classes + self.arrows

    # -- radical -----------------------------------------------------------

    @property
    def radical(self) -> Subspace:
        return self.radical_filtration[1]

    def radical_power(self, n: int) -> Subspace:
        if n < 0:
            raise QuivkitError("BAD_ARGUMENT", "n must be >= 0")
        if n >= len(self.radical_filtration):
            return Subspace.zero(self.field, self.dim)
        return self.radical_filtration[n]

    def same_as(self, other: "FinAlgebra") -> bool:
        if self is other:
            return True
        return (self.field == other.field and self.dim == other.dim
                and self.basis_labels == other.basis_labels
                and self.unit == other.unit
                and self.structconst == other.structconst)

    def __repr__(self):
        return f"FinAlgebra(dim={self.dim}, field={self.field!r})"


class IdealSubspace:
    """A two-sided ideal of a FinAlgebra, held as a Subspace.

    Every IdealSubspace is an ideal.  The constructor admits a subspace:
    BAD_SHAPE for a wrong ambient dimension, NOT_AN_IDEAL unless it is
    closed under the generators on both sides.  A construction whose result
    is an ideal by how it is made (`ideal_generated_by`, the counit's
    kernel) builds one with `_ideal`, unchecked.
    """

    __slots__ = ("parent", "space")

    def __init__(self, parent: FinAlgebra, space: Subspace):
        if space.ambient_dim != parent.dim:
            raise QuivkitError("BAD_SHAPE", "ideal ambient dimension mismatch")
        if not _closed_under(parent.field, parent.structconst, parent.generators(), space):
            raise QuivkitError("NOT_AN_IDEAL", "subspace is not a two-sided ideal")
        self.parent = parent
        self.space = space

    @property
    def dim(self):
        return self.space.dim

    def __eq__(self, other):
        return (isinstance(other, IdealSubspace)
                and self.parent.same_as(other.parent)
                and self.space == other.space)

    def __hash__(self):
        return hash(self.space)

    def __repr__(self):
        return f"IdealSubspace(dim={self.dim})"


def _ideal(parent: FinAlgebra, space: Subspace) -> IdealSubspace:
    """The IdealSubspace of a subspace that is an ideal by construction."""
    ideal = object.__new__(IdealSubspace)
    ideal.parent, ideal.space = parent, space
    return ideal


class AlgMorphism:
    """Linear map between FinAlgebras known to be a valid morphism.

    Build through `validate_morphism`, or through a construction that is a
    morphism by how it is made (`universal_map` from certified generator
    images, `quotient_algebra`'s projection, whose kernel is the ideal by
    construction, `induced_on_quotient` from its lift, `right_adjoint_phi`
    through A/J^2); nothing re-checks those.  `cols[j]` is the image of b_j
    as a sparse vector ({index: nonzero value}); the columns are shared,
    never changed.  Products, images, kernels and congruences work column
    by column (Gustavson 1978).  `matrix` is the dense target-dim x
    source-dim view, built on first use; `surjective` is read off the
    columns when asked.
    """

    __slots__ = ("source", "target", "cols", "_matrix")

    def __init__(self, source, target, cols):
        self.source = source
        self.target = target
        self.cols = cols
        self._matrix = None

    @property
    def matrix(self) -> Mat:
        if self._matrix is None:
            self._matrix = Mat.from_sparse_cols(self.target.field, self.cols, self.target.dim)
        return self._matrix

    @property
    def surjective(self) -> bool:
        t = self.target
        return _span(t.field, t.dim, self.cols).dim == t.dim

    def apply(self, v):
        """The image of the element v of the source, dense or sparse, as a
        sparse element."""
        f = self.target.field
        return _combine(f, self.cols, _as_sparse(f, self.source.dim, v).items())

    def image_of(self, space: Subspace) -> Subspace:
        """The image of a subspace of the source."""
        f = self.target.field
        return _span(f, self.target.dim, [_combine(f, self.cols, row.items())
                                          for row in space.rows.values()])

    def kernel(self) -> Subspace:
        """The kernel, spanned by the tags of the dependent columns."""
        f = self.source.field
        return _span(f, self.source.dim, _column_echelon(f, self.cols)[1])

    def compose(self, other: "AlgMorphism") -> "AlgMorphism":
        """self ∘ other (apply `other` first)."""
        if not other.target.same_as(self.source):
            raise QuivkitError("NOT_COMPOSABLE", "morphism targets do not line up")
        f = self.target.field
        return AlgMorphism(other.source, self.target,
                           [_combine(f, self.cols, col.items()) for col in other.cols])

    def inverse(self) -> "AlgMorphism":
        if self.source.dim != self.target.dim:
            raise QuivkitError("BAD_SHAPE", "inverse of non-square matrix")
        cols = _inverse_cols(self.source.field, self.cols)
        if cols is None:
            raise QuivkitError("SINGULAR", "matrix is not invertible")
        return AlgMorphism(self.target, self.source, cols)

    def __eq__(self, other):
        return (isinstance(other, AlgMorphism)
                and self.source.same_as(other.source)
                and self.target.same_as(other.target)
                and self.cols == other.cols)

    def __hash__(self):
        return hash((self.target.dim, tuple(tuple(sorted(c.items())) for c in self.cols)))

    def __repr__(self):
        return f"AlgMorphism({self.source.dim} -> {self.target.dim})"


def identity_morphism(a: FinAlgebra) -> AlgMorphism:
    one = a.field.one
    return AlgMorphism(a, a, [{j: one} for j in range(a.dim)])


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _mul_raw(field, sc, x, y):
    """x * y for sparse elements x and y ({index: nonzero value}), sparse."""
    add, mul = field.add, field.mul
    out = {}
    get = out.get
    ys = y.items()
    for i, xi in x.items():
        sci = sc[i]
        for j, yj in ys:
            terms = sci[j]
            if terms:
                c = mul(xi, yj)
                for m, cm in terms:
                    prev = get(m)
                    out[m] = mul(c, cm) if prev is None else add(prev, mul(c, cm))
    return out if all(out.values()) else {m: c for m, c in out.items() if c}


def _combine(field, cols, terms):
    """The sparse sum of c * cols[m] over the (m, c) in `terms`, with each
    column cols[m] sparse."""
    out = {}
    for m, c in terms:
        add_scaled(field, out, c, cols[m])
    return out


def _first_unfixed(field, sc, unit, elements):
    """The index of the first sparse x in `elements` with u x != x or
    x u != x, for u = `unit`; or None."""
    for k, x in enumerate(elements):
        if _mul_raw(field, sc, unit, x) != x or _mul_raw(field, sc, x, unit) != x:
            return k
    return None


def _check_unit(field, dim, sc, unit):
    """UNIT_FAIL at the first j with u b_j != b_j or b_j u != b_j."""
    j = _first_unfixed(field, sc, unit, [{j: field.one} for j in range(dim)])
    if j is not None:
        raise QuivkitError("UNIT_FAIL", f"unit fails on basis element {j}")


def _verify_associative(field, dim, sc):
    one = field.one
    # (b_i b_j) b_l and b_i (b_j b_l) are both 0 when b_i b_j = b_j b_l = 0
    nonzero = [[l for l in range(dim) if sc[j][l]] for j in range(dim)]
    products = [[dict(t) for t in row] for row in sc]
    for i in range(dim):
        bi = {i: one}
        for j in range(dim):
            ij = products[i][j]
            for l in (range(dim) if ij else nonzero[j]):
                left = _mul_raw(field, sc, ij, {l: one})
                right = _mul_raw(field, sc, bi, products[j][l])
                if left != right:
                    raise QuivkitError(
                        "ASSOCIATIVITY_FAIL",
                        f"(b{i} b{j}) b{l} != b{i} (b{j} b{l})")


def trace_form_radical(a_or_data) -> Subspace:
    """Radical as the kernel of the trace form x -> (y -> tr(L_{xy})).

    Valid over characteristic 0, and over F_p when p > dim (otherwise raises
    CHAR_TOO_SMALL).  Works on a FinAlgebra or on raw (field, dim, sc) data,
    with `sc` in the sparse form of `FinAlgebra.structconst`.
    """
    if isinstance(a_or_data, FinAlgebra):
        field, dim, sc = a_or_data.field, a_or_data.dim, a_or_data.structconst
    else:
        field, dim, sc = a_or_data
    if 0 < field.char <= dim:
        raise QuivkitError(
            "CHAR_TOO_SMALL",
            f"trace criterion needs char 0 or p > dim; got p={field.char}, dim={dim}")
    # tr(L_{b_m}) for each m: the sum over l of the b_l-coordinate of b_m b_l
    tr = []
    for m in range(dim):
        acc = field.zero
        for l in range(dim):
            for k, c in sc[m][l]:
                if k == l:
                    acc = field.add(acc, c)
        tr.append(acc)
    # the form's sparse columns: column j holds tr(L_{b_i b_j}) at i
    cols = [{} for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            acc = field.zero
            for m, cm in sc[i][j]:
                acc = field.add(acc, field.mul(cm, tr[m]))
            if acc:
                cols[j][i] = acc
    return _span(field, dim, _column_echelon(field, cols)[1])


def _closed_under(field, sc, gens, space: Subspace) -> bool:
    """True iff g*S and S*g lie in S for every g in `gens`.

    When the gens generate A, that is when S is a two-sided ideal.
    """
    rows = space.rows
    for v in rows.values():
        for g in gens:
            if _reduce(field, rows, _mul_raw(field, sc, g, v)) or \
                    _reduce(field, rows, _mul_raw(field, sc, v, g)):
                return False
    return True


def _radical_filtration(field, dim, sc, arrows):
    """[A, J, J^2, ..., 0] from sparse elements of J whose words span J.

    W_1 = span(arrows) and W_{n+1} = span(W_n * arrows) hold the words of
    length n, so J^n = W_n + J^(n+1).  When each arrow is one term, as in a
    path algebra and its quotients by paths or by top-layer elements, the
    W_n are walked as sets of basis indices: W_{n+1} holds the index of the
    one term of each b_i x, for i in W_n and x an arrow, and J^n is the
    coordinate subspace on the union of W_n, W_(n+1), ...  The first
    product with two or more terms, or with an explicit zero coefficient,
    hands the call to `_echelon_filtration`.  RADICAL_NOT_NILPOTENT if the
    W_n do not reach 0 within dim steps.
    """
    # kept for speed: spans of products make a dim-254 counit about 3x slower
    if any(len(x) != 1 for x in arrows):
        return _echelon_filtration(field, dim, sc, arrows)
    heads = [next(iter(x)) for x in arrows]
    layers = [set(heads)]
    while layers[-1]:
        cur, nxt = layers[-1], set()
        for i in cur:
            row = sc[i]
            for a in heads:
                terms = row[a]
                if terms:
                    if len(terms) > 1 or not terms[0][1]:
                        return _echelon_filtration(field, dim, sc, arrows)
                    nxt.add(terms[0][0])
        if nxt and (nxt == cur or len(layers) >= dim):
            raise QuivkitError("RADICAL_NOT_NILPOTENT",
                               "radical powers do not descend to zero")
        layers.append(nxt)
    # one row dict per index, shared by every level that holds it
    one, rows = field.one, {}
    filtration = [Subspace.zero(field, dim)]
    for layer in reversed(layers[:-1]):
        for i in layer:
            rows.setdefault(i, {i: one})
        filtration.append(Subspace(field, dim, dict(rows)))
    for i in range(dim):
        rows.setdefault(i, {i: one})
    filtration.append(Subspace(field, dim, rows))
    return filtration[::-1]


def _echelon_filtration(field, dim, sc, arrows):
    """`_radical_filtration` for any arrows, by spans of products.

    That costs |arrows| * dim J products.  One echelon takes the rows of the
    W_n from the last one up, and J^n is its state after W_n.
    """
    layers = [_span(field, dim, arrows)]
    while layers[-1].dim:
        cur = layers[-1]
        nxt = _span(field, dim, [_mul_raw(field, sc, y, x)
                                 for y in cur.rows.values() for x in arrows])
        if nxt.dim and (nxt == cur or len(layers) >= dim):
            raise QuivkitError("RADICAL_NOT_NILPOTENT",
                               "radical powers do not descend to zero")
        layers.append(nxt)
    ech = Echelon(field)
    filtration = [Subspace.zero(field, dim)]
    for layer in reversed(layers[:-1]):
        for row in layer.rows.values():
            ech.insert(dict(row))
        filtration.append(ech.subspace(dim))
    filtration.append(Subspace.full(field, dim))
    return filtration[::-1]


def _quotient_table(field, sc, sub: Subspace):
    """A/sub, for a subspace `sub` of A with table `sc`, as (idx, table, cols).

    The classes of the basis vectors b_i, i in `idx`, are a basis of A/sub,
    `table` is its table in the stored sparse form and `cols[j]` is the
    class of b_j in that basis, sparse: the projection's columns.
    """
    # sub's echelon with the columns reversed pivots on the last column of
    # each row: b_j at such a column j is minus the rest of its row mod sub,
    # and the rest lies on the other columns, whose b_i are a basis of A/sub
    n = len(sc)
    ech = Echelon(field)
    for row in sub.rows.values():
        ech.insert({n - 1 - m: c for m, c in row.items()})
    last = {n - 1 - p: row for p, row in ech.rows.items()}
    idx = [i for i in range(n) if i not in last]
    kept = {i: k for k, i in enumerate(idx)}
    one, neg = field.one, field.neg
    cols = [{kept[j]: one} if j in kept else
            {kept[n - 1 - m]: neg(c) for m, c in last[j].items() if n - 1 - m != j}
            for j in range(n)]
    # the products of the kept b_i, each projected over its terms only
    table = []
    for i in idx:
        qrow = [()] * len(idx)
        for j, terms in enumerate(sc[i]):
            if terms and j in kept:
                qrow[kept[j]] = tuple(sorted(_combine(field, cols, terms).items()))
        table.append(qrow)
    return idx, table, cols


def _semisimple_pointed_classes(field, dim, sc, unit, j_space):
    """Split A/J into one-dimensional blocks; NOT_POINTED if impossible.

    Works on A/J's own table.  For each basis element x and each idempotent
    u found so far, the minimal polynomial of y = u x in uA/J is read off the
    powers u, y, y^2, ...  If it has distinct roots r in k, u splits into
    the idempotents prod_{s != r} (y - s u) / (r - s), on each of which x
    acts as the scalar r (Friedl and Rónyai 1985; Eberly and Giesbrecht
    2000).  Once every x acts as a scalar, each block is one-dimensional.
    Returns class representatives (sparse elements of A), sorted by their
    dense coordinates mod J: that order names gq's vertices.
    """
    idx, qsc, cols = _quotient_table(field, sc, j_space)
    qdim = len(idx)
    # commutativity of the radical quotient is necessary for pointedness
    for i in range(qdim):
        for j in range(i):
            if qsc[i][j] != qsc[j][i]:
                raise QuivkitError("NOT_POINTED", "A/J is not commutative")
    one, zero, mul = field.one, field.zero, field.mul
    idems = [_combine(field, cols, unit.items())]
    for x in range(qdim):
        new_idems = []
        for u in idems:
            y = _mul_raw(field, qsc, u, {x: one})
            # the first power y^d dependent on u, ..., y^(d-1) reduces to zero,
            # its tag to the monic minimal polynomial's coefficients
            ech = Echelon(field, tagged=True)
            ech.insert(dict(u), {0: one})
            power, d = y, 1
            while ech.insert(dict(power), minpoly := {d: one}):
                power, d = _mul_raw(field, qsc, power, y), d + 1
            if d == 1:  # y is a multiple of u: x is a scalar here
                new_idems.append(u)
                continue
            roots = roots_if_split(field, [minpoly.get(k, zero) for k in range(d + 1)])
            if roots is None:
                raise QuivkitError("NOT_POINTED",
                                   "A/J has a simple factor larger than k")
            if len(roots) < d:
                raise QuivkitError("NOT_POINTED", "A/J is not semisimple over k")
            for r_val in roots:
                piece = u
                for other in roots:
                    if other != r_val:
                        shifted = add_scaled(field, dict(y), field.neg(other), u)
                        c = field.inv(field.sub(r_val, other))
                        piece = {k: mul(c, v)
                                 for k, v in _mul_raw(field, qsc, piece, shifted).items()}
                new_idems.append(piece)
        idems = new_idems
    idems.sort(key=lambda u: tuple([u.get(k, zero) for k in range(qdim)]))
    return [{idx[k]: c for k, c in u.items()} for u in idems]


def _lift_classes(field, sc, unit, classes, steps):
    """Exact orthogonal idempotents with the classes mod J of `classes`.

    Each class is framed away from the idempotents lifted before it, then
    pushed to an exact idempotent by x <- 3x^2 - 2x^3, which squares the
    power of J holding x^2 - x, so `steps` > log2 of the nilpotency index
    suffice.  The result is not checked here: `_admit` certifies it.
    """
    three, minus_two, minus_one = field.of(3), field.of(-2), field.of(-1)
    lifted = []
    frame = dict(unit)   # 1 minus the idempotents lifted so far
    for c in classes:
        x = _mul_raw(field, sc, frame, _mul_raw(field, sc, c, frame))
        for _ in range(steps):
            sq = _mul_raw(field, sc, x, x)
            if sq == x:
                break
            x = add_scaled(field, {k: field.mul(three, v) for k, v in sq.items()},
                           minus_two, _mul_raw(field, sc, sq, x))
        lifted.append(x)
        add_scaled(field, frame, minus_one, x)
    return lifted


def _peirce_blocks(field, dim, sc, elements, space: Subspace):
    """{(i, j): e_j * space * e_i} for every ordered pair of `elements`, each
    basis vector v split once: r products v e_i, then e_j (v e_i).  Every
    factor is scanned for its terms once."""
    r = len(elements)
    parts = {(i, j): [] for i in range(r) for j in range(r)}
    for v in space.rows.values():
        for i, ei in enumerate(elements):
            ve = _mul_raw(field, sc, v, ei)
            if ve:
                for j, ej in enumerate(elements):
                    parts[(i, j)].append(_mul_raw(field, sc, ej, ve))
    return {key: _span(field, dim, vecs) for key, vecs in parts.items()}


def orthogonal_idempotents(field, sc, unit, terms, code, names):
    """Raise `code` unless the elements `terms` (named `names`) are
    orthogonal idempotents summing to `unit`; return how many are nonzero.
    In a pointed algebra that is at most dim A/J, with equality iff each one
    is primitive.

    When every element is a basis vector b_k with coefficient 1, as vertex
    idempotents are, b_k b_l is the table entry sc[k][l]: b_k b_k is b_k
    when that entry is ((k, 1),), and an empty entry is a zero product.
    Only the other products are multiplied out, so the checks and their
    first failure are those of the products.
    """
    one = field.one
    # kept for speed: a counit_scaled benchmark pass ran 1-8% slower without
    # it; k^128's admission as a table costs the same either way
    ks = [next(iter(et)) for et in terms] \
        if all(len(et) == 1 and one in et.values() for et in terms) else None
    total = {}
    for i, et in enumerate(terms):
        k = ks[i] if ks else None
        if (k is None or sc[k][k] != ((k, one),)) and _mul_raw(field, sc, et, et) != et:
            raise QuivkitError(code, f"{names[i]} is not idempotent")
        for j in range(i):
            l = ks[j] if ks else None
            if (k is None or sc[k][l] or sc[l][k]) and (
                    _mul_raw(field, sc, et, terms[j]) or _mul_raw(field, sc, terms[j], et)):
                raise QuivkitError(code, f"{names[j]} and {names[i]} are not orthogonal")
        add_scaled(field, total, one, et)
    if total != unit:
        raise QuivkitError(code, "the idempotents do not sum to 1")
    return sum(1 for et in terms if et)


def _verify_presentation(field, sc, unit, idem_terms, arrows):
    """Check that the idempotents are orthogonal, sum to u = `unit` and that
    each arrow x lies in exactly one Peirce block e_t A e_s of theirs, with
    e_t x = x = x e_s; return how many idempotents are nonzero and the block
    (s, t) of each arrow.

    The sum over t of e_t x is u x, so the last check says u x = x = x u;
    u e = e = e u holds for orthogonal idempotents e summing to u.  It is
    UNIT_FAIL, which `presented_algebra` names on the basis, and cannot fail
    once u is known to be the unit."""
    count = orthogonal_idempotents(field, sc, unit, idem_terms, "NOT_POINTED",
                                   [f"class {i}" for i in range(len(idem_terms))])
    blocks = []
    for k, xt in enumerate(arrows):
        left = [(t, p) for t, et in enumerate(idem_terms) if (p := _mul_raw(field, sc, et, xt))]
        right = [(s, p) for s, es in enumerate(idem_terms) if (p := _mul_raw(field, sc, xt, es))]
        if len(left) != 1 or len(right) != 1:
            raise QuivkitError("BIMODULE_CONDITION_FAIL",
                               f"arrow {k} does not lie in one Peirce block")
        (t, tx), (s, xs) = left[0], right[0]
        if tx != xt or xs != xt:
            raise QuivkitError("UNIT_FAIL", f"unit fails on arrow {k}")
        blocks.append((s, t))
    return count, blocks


def _basis_certificate(field, dim, sc, radical, classes):
    """Name what is wrong with a radical that is not the span of the words
    in the arrows: checked over the basis, it must be a two-sided ideal,
    nilpotent, and hold none of the dim A - dim J orthogonal idempotents
    `classes`."""
    one = field.one
    if not _closed_under(field, sc, [{i: one} for i in range(dim)], radical):
        raise QuivkitError("RADICAL_NOT_NILPOTENT", "radical is not a two-sided ideal")
    _radical_filtration(field, dim, sc, list(radical.rows.values()))
    r = dim - radical.dim
    if len(classes) != r:
        raise QuivkitError("NOT_POINTED",
                           f"expected {r} idempotent classes, got {len(classes)}")
    for i, c in enumerate(classes):
        if radical.contains(c):
            raise QuivkitError("NOT_POINTED", f"class {i} vanishes mod J")


def _admit(field, basis_labels, sc, unit, radical, classes, arrows) -> FinAlgebra:
    """The radical checks both entry points end with, then the FinAlgebra.

    Let F_1 be the span of the words in the arrows.  If the classes are
    orthogonal idempotents summing to 1, every arrow lies in one of their
    Peirce blocks, the words reach 0 and F_1 is the radical given, then F_1
    is a nilpotent two-sided ideal.  If moreover the classes are
    dim A - dim F_1 nonzero ones, they are independent mod F_1 and
    A/F_1 = k^r, so F_1 is J.  A radical that is not F_1 is named by the
    basis checks.
    """
    dim = len(basis_labels)
    count, blocks = _verify_presentation(field, sc, unit, classes, arrows)
    filtration = _radical_filtration(field, dim, sc, arrows)
    if filtration[1] != radical:
        _basis_certificate(field, dim, sc, radical, classes)
        raise QuivkitError("BAD_ARGUMENT",
                           f"the words in the arrows span {filtration[1].dim} "
                           f"dimensions, the radical {radical.dim}")
    if not count == len(classes) == dim - radical.dim:
        raise QuivkitError("NOT_POINTED", f"{count} of {len(classes)} classes are "
                                          f"nonzero, dim A/J is {dim - radical.dim}")
    return FinAlgebra(field, basis_labels, sc, unit, filtration, classes, arrows, blocks)


def validate_algebra(field, basis_labels, structconst, unit) -> FinAlgebra:
    """Validate a raw dense table and build a FinAlgebra.

    `structconst[i][j]` must be the dense coordinate vector of b_i b_j; its
    nonzero entries are handed to `table_algebra`, which reads them through
    the field.
    """
    dim = len(basis_labels)
    sc = []
    for i in range(dim):
        row = []
        for j in range(dim):
            vec = structconst[i][j]
            if len(vec) != dim:
                raise QuivkitError("BAD_SHAPE", "structure constant vector length")
            row.append([(m, c) for m, c in enumerate(vec) if c])
        sc.append(row)
    return table_algebra(field, basis_labels, sc, unit)


def _canonical_table(field, dim, sc):
    """`sc` in the stored form: dim rows of dim entries, each a tuple of its
    terms in ascending index, every coefficient read through the field and
    the zeros dropped; BAD_SHAPE for a missing or short row and for an index
    outside 0..dim-1 or given twice in one entry, BAD_ARGUMENT for a
    coefficient that is not a value of the field."""
    if len(sc) != dim:
        raise QuivkitError("BAD_SHAPE", f"the table has {len(sc)} rows, expected {dim}")
    table = []
    for i, row in enumerate(sc):
        if len(row) != dim:
            raise QuivkitError("BAD_SHAPE",
                               f"table row {i} has {len(row)} entries, expected {dim}")
        out = []
        for j, terms in enumerate(row):
            seen = sorted(terms)
            for n, (m, _c) in enumerate(seen):
                if not 0 <= m < dim:
                    raise QuivkitError("BAD_SHAPE", f"entry ({i}, {j}) names basis "
                                                    f"index {m}, outside 0..{dim - 1}")
                if n and seen[n - 1][0] == m:
                    raise QuivkitError("BAD_SHAPE",
                                       f"entry ({i}, {j}) names basis index {m} twice")
            terms = [(m, _field_value(field, c, "entry (%d, %d) at index %d", i, j, m))
                     for m, c in seen if c]
            out.append(tuple([(m, c) for m, c in terms if c]))
        table.append(out)
    return table


def table_algebra(field, basis_labels, sc, unit) -> FinAlgebra:
    """Validate a raw table in the stored sparse form and build a FinAlgebra.

    `sc[i][j]` is b_i b_j as a sequence of `(m, c)` pairs, each index m
    once, and `unit` an element, dense or sparse; every value is read
    through the field.
    Every check runs: shape, unit, associativity, the trace-form radical and
    the idempotent classes it splits off.  The entries are stored in the
    canonical form of `FinAlgebra.structconst`.  The classes are lifted to
    exact idempotents and the arrows are bases of the Peirce blocks of J;
    `_admit` certifies both.
    """
    dim = len(basis_labels)
    if dim == 0:
        raise QuivkitError("BAD_SHAPE", "algebras must have positive dimension")
    if len(set(basis_labels)) != dim:
        raise QuivkitError("BAD_SHAPE", "basis labels must be unique")
    sc = _canonical_table(field, dim, sc)
    unit = _as_sparse(field, dim, unit, "unit")
    _check_unit(field, dim, sc, unit)
    _verify_associative(field, dim, sc)
    j_space = trace_form_radical((field, dim, sc))
    classes = _semisimple_pointed_classes(field, dim, sc, unit, j_space)
    # the nilpotency index is at most dim J + 1
    idems = _lift_classes(field, sc, unit, classes, (j_space.dim + 1).bit_length() + 2)
    blocks = _peirce_blocks(field, dim, sc, idems, j_space)
    arrows = [block.rows[p] for block in blocks.values() for p in block.pivots]
    return _admit(field, basis_labels, sc, unit, j_space, idems, arrows)


def presented_algebra(field, basis_labels, terms, unit, radical, classes,
                      arrows) -> FinAlgebra:
    """Admit an algebra that a construction writes in the stored form.

    `terms[i][j]` is b_i b_j as the sparse tuple of `FinAlgebra.structconst`,
    and associativity is the construction's guarantee.  The unit, the
    `classes`, which are the vertex idempotents, and the `arrows`, each in
    one Peirce block, whose words span the radical, are sparse elements.  The
    unit and the radical are re-verified, so a construction can never smuggle
    in a wrong one.

    The unit is read off the products `_verify_presentation` makes: the
    classes are orthogonal idempotents summing to u, so u fixes each class,
    and e_t x = x = x e_s for each arrow x in its block e_t A e_s says that
    u fixes x.  A u that fixes each generator in G fixes every word in G on
    both sides, and `_admit` proves that the words in G span A, so u is the
    unit.  Only when admission fails is u tested on G, and when it fails
    there the basis is scanned to name the first b_j it fails on, as
    `table_algebra` does, so a unit failure comes before every other.
    """
    try:
        return _admit(field, basis_labels, terms, unit, radical, classes, arrows)
    except QuivkitError:
        if _first_unfixed(field, terms, unit, classes + arrows) is not None:
            _check_unit(field, len(basis_labels), terms, unit)
        raise


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def _first_unmultiplied(source, target, cols, gens):
    """(g, j) for the first g in `gens` and basis vector b_j with
    f(g b_j) != f(g) f(b_j), where f has the sparse columns `cols`; or None."""
    f, sc, one, tsc = source.field, source.structconst, source.field.one, target.structconst
    for gi, gt in enumerate(gens):
        image = _combine(f, cols, gt.items())
        for j in range(source.dim):
            if _combine(f, cols, _mul_raw(f, sc, gt, {j: one}).items()) != \
                    _mul_raw(f, tsc, image, cols[j]):
                return gi, j
    return None


def validate_morphism(source: FinAlgebra, target: FinAlgebra, matrix: Mat,
                      ) -> AlgMorphism:
    """Admit a linear map as an algebra morphism.

    The matrix is read once into sparse columns, each entry through the
    field (BAD_ARGUMENT for one that is not in it).  Checks: unital, multiplicative, and surjectivity of the induced map on
    radical quotients (the admission condition for this category of pointed
    algebras).  A unital map f with f(g b) = f(g) f(b) for g in the source's
    generators G and b in its basis is multiplicative, since words in G span
    the source.  It then sends J(A) into J(B) with no further check: the
    image of a nilpotent element is nilpotent, and B/J(B) = k^r, the target
    being pointed, has no nonzero nilpotents.
    """
    f = source.field
    if f != target.field:
        raise QuivkitError("BAD_FIELD", "source and target fields differ")
    if matrix.rows != target.dim or matrix.cols != source.dim:
        raise QuivkitError("BAD_SHAPE", "morphism matrix has wrong shape")
    cols = [{} for _ in range(source.dim)]
    for i, row in enumerate(matrix.data):
        for j, x in enumerate(row):
            if x:
                x = _field_value(f, x, "matrix entry (%d, %d)", i, j)
                if x:
                    cols[j][i] = x
    if _combine(f, cols, source.unit.items()) != target.unit:
        raise QuivkitError("NOT_UNITAL", "matrix does not send 1 to 1")
    if _first_unmultiplied(source, target, cols, source.generators()):
        # some basis pair fails too; name the first, as the full scan does
        basis = [{i: f.one} for i in range(source.dim)]
        i, j = _first_unmultiplied(source, target, cols, basis)
        raise QuivkitError(
            "NOT_MULTIPLICATIVE",
            f"fails on basis pair ({source.basis_labels[i]}, "
            f"{source.basis_labels[j]})")
    # induced map on radical quotients must be onto: the images of the
    # idempotents are orthogonal idempotents summing to 1, so their classes
    # span B/J(B) = k^r iff r of them are nonzero
    r = target.dim - target.radical.dim
    if sum(1 for e in source.ss_classes if _combine(f, cols, e.items())) != r:
        raise QuivkitError("RADICAL_QUOTIENT_NOT_SURJECTIVE",
                           "induced map A/J(A) -> B/J(B) is not onto")
    return AlgMorphism(source, target, cols)


def image_of_radical_check(alpha: AlgMorphism) -> bool:
    """True iff alpha(J^n(A)) equals J^n(B) for every n, decided at n = 1:
    alpha is onto mod radicals, so alpha(J(A)) = J(B) makes it onto, and
    then alpha(J^n(A)) = alpha(J(A))^n = J^n(B)."""
    return alpha.image_of(alpha.source.radical) == alpha.target.radical


# ---------------------------------------------------------------------------
# ideals and quotients
# ---------------------------------------------------------------------------

def ideal_generated_by(a: FinAlgebra, vectors) -> IdealSubspace:
    """Two-sided ideal closure of a list of elements: the least subspace
    holding them that is closed under the generators on both sides.  The
    elements may be dense or sparse.

    One echelon grows from the elements' span; each vector that enlarges it
    is multiplied by the generators on both sides once, and the products of
    the vectors that do not are combinations of those.
    """
    f, sc = a.field, a.structconst
    gens = a.generators()
    start = Subspace.span(f, a.dim, vectors)
    ech = Echelon(f, start)
    todo = list(start.rows.values())
    while todo:
        v = todo.pop()
        for g in gens:
            for prod in (_mul_raw(f, sc, g, v), _mul_raw(f, sc, v, g)):
                if ech.insert(dict(prod)):
                    todo.append(prod)
    return _ideal(a, ech.subspace(a.dim))


def induced_on_quotient(pi: AlgMorphism, h: AlgMorphism) -> AlgMorphism:
    """The morphism g with g . pi = h, for pi: A -> A/I from `quotient_algebra`
    and a morphism h out of A that kills I (the caller's to know).

    Column k of g is h's column at the basis vector of A with A/I's k-th
    label.  pi is onto, so g . pi = h makes g a morphism with no check.
    """
    a, q, one = pi.source, pi.target, pi.source.field.one
    idx = [a._label_index.get(lab) for lab in q.basis_labels]
    if not h.source.same_as(a) or None in idx or any(
            pi.cols[i] != {k: one} for k, i in enumerate(idx)):
        raise QuivkitError("BAD_ARGUMENT", "pi is not a quotient projection of h's source")
    return AlgMorphism(q, h.target, [h.cols[i] for i in idx])


def is_relation_ideal(ideal: IdealSubspace) -> bool:
    """True iff the ideal sits inside J^2."""
    return ideal.parent.radical_power(2).contains_subspace(ideal.space)


def quotient_algebra(a: FinAlgebra, ideal: IdealSubspace):
    """Quotient A/I with induced structure constants, plus the projection.

    Returns (Q, pi) where pi is the canonical surjection with kernel I.  The
    radical of Q is the image of J(A) (surjections map radicals onto
    radicals), so no trace-form computation is needed; Q is presented by the
    nonzero images of A's idempotents and arrows.  pi sends the basis vector
    of A with Q's k-th label to Q's k-th basis vector, its class.
    """
    if not a.same_as(ideal.parent):
        raise QuivkitError("BAD_ARGUMENT", "ideal belongs to a different algebra")
    f = a.field
    idx, sc, cols = _quotient_table(f, a.structconst, ideal.space)
    qdim = len(idx)
    if qdim == 0:
        raise QuivkitError("BAD_ARGUMENT", "quotient by the whole algebra")

    def image(v):
        return _combine(f, cols, v.items())

    labels = [a.basis_labels[i] for i in idx]
    j_img = _span(f, qdim, map(image, a.radical.rows.values()))
    class_imgs = [img for img in map(image, a.ss_classes) if img]
    arrows = [img for img in map(image, a.arrows) if img]
    q = presented_algebra(f, labels, sc, image(a.unit), j_img, class_imgs, arrows)
    # q's table is defined through the projection, so it is a morphism; it is
    # the coordinate map of k^n = span(kept rows) + I, so its kernel is I
    return q, AlgMorphism(a, q, cols)
