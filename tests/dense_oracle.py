"""Dense reference forms of the sparse echelon, built on a dense pivot loop.

`exactlin` has one elimination, the sparse `Echelon`: `Subspace` keeps its
reduced row-echelon rows and grows them one vector at a time, and `rref`,
`rank`, `solve_multi`, `invert` and `kernel` run on it.  The functions here
are what it replaced: the dense Gauss-Jordan loop `rref` and the solves,
inverse and kernel read off it, every span a fresh dense `rref`,
elimination over dense rows, the quotient projection solved with
`solve_multi`, and the radical filtration layer by layer.  A subspace is
given here as its dense RREF, a pair (rows, pivots).  `peirce_complements`
is the section of J -> J/J^2 as `make_splitting` built it before it read
the admitted arrows.  `quotient_section`, `induced_on_quotient` and
`kinfty_on_map` are morphisms out of a quotient as they were built before
they were read off the labels of the lift: a solved section of the
projection, the result admitted again by `validate_morphism`, and k∞ maps
through `gamma` on four quotients.  `check_unit` is the unit check on the
basis: u b_j and b_j u by `_mul_raw` for each basis vector b_j, which a
construction's unit, checked on its generators, must fail alike.
`orthogonal` and `verify_presentation` are admission's idempotent and
Peirce-block checks with every product by `_mul_raw`, and no table read;
`arrow_blocks` finds each arrow's Peirce block by multiplying, as
`make_splitting` did before admission stored the blocks, and
`presented_algebra` checks a construction's unit on its own products,
generators first, as it did before it read the check off the
presentation's.  `is_ideal` tests closure under every basis vector, and
`as_sparse` reads every value of a vector through the field, the int 0
too.  `quotient_table` is A/I's table with every entry combined over the
columns of the projection `quotient_basis` solves.
`matvec`, `matmul`, `rank` and `check_sim_n` are the dense operations an
`AlgMorphism` ran on its matrix before it held sparse columns: products by
dense dot products, and the congruence test on the dense difference, level
by level over a basis of each J^m.  `image_of_radical_check` compares the
image of every radical layer, as it did before it was decided at n = 1.
`conjugating_element` stacks dense products over a basis of J, and
`inner_conjugation_witness` solves it over the pairs (delta(b), b) for
every basis vector b, as both did before they took sparse products and
the generators.  `vec_zero`, `vec_add`, `vec_sub`, `vec_scale`,
`vec_combination`, `mat_sub` and `mat_scale` are the dense vector and
matrix helpers no code in the package calls any more, and `as_dense` writes an
element, dense or sparse, as a dense list.  `table_generators`,
`vqmap_generator_images`, `conjugation` and `eval_expr` make the dense
elements quivkit made before it held every element as a sparse dict: a
raw table's classes, lifted idempotents and Peirce arrows, psi's generator
images, conjugates and DSL expressions.
"""

import quivkit.exactlin as el
from quivkit.adjunction import apply_to_ideal, gamma
from quivkit.algebra import (
    _admit,
    _combine,
    _mul_raw,
    _peirce_blocks,
    _quotient_table,
    identity_morphism,
    quotient_algebra,
    validate_morphism,
)
from quivkit.errors import QuivkitError
from quivkit.exactlin import sparse
from quivkit.pathalg import kvq_on_map
from quivkit.poly import roots_if_split
from quivkit.vquiver import POINT


def vec_zero(field, n):
    return [field.zero] * n


def vec_add(field, u, v):
    return [field.add(a, b) for a, b in zip(u, v)]


def vec_sub(field, u, v):
    return [field.sub(a, b) for a, b in zip(u, v)]


def vec_scale(field, c, u):
    return [field.mul(c, a) for a in u]


def mat_sub(m, n):
    """The dense matrix m - n."""
    return el.Mat(m.field, m.rows, m.cols,
                  [vec_sub(m.field, r1, r2) for r1, r2 in zip(m.data, n.data)])


def mat_scale(m, c):
    """The dense matrix c m."""
    return el.Mat(m.field, m.rows, m.cols, [vec_scale(m.field, c, r) for r in m.data])


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


def rref(m):
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
    return el.Mat(f, m.rows, m.cols, a), pivots


def solve_multi(m, bs):
    """Solve m x = b for each b in bs; list of solutions (None where inconsistent)."""
    f = m.field
    k = len(bs)
    if k == 0:
        return []
    aug = el.Mat(f, m.rows, m.cols + k,
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


def invert(m):
    """Inverse of a square matrix; SINGULAR if some m x = e_i has no solution."""
    if m.rows != m.cols:
        raise QuivkitError("BAD_SHAPE", "inverse of non-square matrix")
    cols = solve_multi(m, [el.vec_unit(m.field, m.rows, i) for i in range(m.rows)])
    if any(c is None for c in cols):
        raise QuivkitError("SINGULAR", "matrix is not invertible")
    return el.Mat.from_cols(m.field, cols, rows=m.rows)


def kernel(m):
    """Solution space of m x = 0, as the dense vectors read off `rref`: one
    per free column, in column order (a basis, not an RREF)."""
    f = m.field
    red, piv = rref(m)
    pivset = set(piv)
    basis = []
    for fc in range(m.cols):
        if fc not in pivset:
            v = vec_zero(f, m.cols)
            for r_i, pc in enumerate(piv):
                v[pc] = f.neg(red.data[r_i][fc])
            v[fc] = f.one
            basis.append(v)
    return basis


def matvec(m, v):
    """m v, one dense dot product per row."""
    f = m.field
    out = []
    for row in m.data:
        acc = f.zero
        for a, b in zip(row, v):
            if a and b:
                acc = f.add(acc, f.mul(a, b))
        out.append(acc)
    return out


def matmul(m, n):
    """m n, one `matvec` per column of n."""
    return el.Mat.from_cols(m.field, [matvec(m, c) for c in n.columns()], rows=m.rows)


def rank(m):
    return len(rref(m)[1])


def check_sim_n(alpha, beta, n):
    """(alpha - beta)(J^m(A)) in J^(m+1)(B) for every m <= n, on the dense
    difference of the matrices."""
    diff = mat_sub(alpha.matrix, beta.matrix)
    src, tgt = alpha.source, alpha.target
    for m in range(min(n + 1, src.truncation_level)):
        images = diff.columns() if m == 0 else \
            [matvec(diff, v) for v in src.radical_power(m).basis]
        if not all(tgt.radical_power(m + 1).contains(x) for x in images):
            return False
    return True


def image_of_radical_check(alpha):
    """alpha(J^n(A)) == J^n(B) for every n up to the larger truncation
    level, each image spanned by dense products."""
    src, tgt = alpha.source, alpha.target
    for n in range(max(src.truncation_level, tgt.truncation_level) + 1):
        image = el.Subspace.span(tgt.field, tgt.dim, [matvec(alpha.matrix, v)
                                                      for v in src.radical_power(n).basis])
        if image != tgt.radical_power(n):
            return False
    return True


def as_dense(a, x):
    """The element x of the algebra a as a dense list, x dense or sparse."""
    return el.dense(a.field, a.dim, x) if isinstance(x, dict) else list(x)


def conjugating_element(a, pairs):
    """w in J with w q - p w = p - q for every (p, q) in pairs, or None: the
    stacked system over a basis of J, solved by the dense `rref`; the pairs
    dense or sparse, w dense."""
    f = a.field
    pairs = [(as_dense(a, p), as_dense(a, q)) for p, q in pairs]
    jbasis = a.radical.basis
    cols = [[x for p, q in pairs for x in vec_sub(f, a.mul(jb, q), a.mul(p, jb))]
            for jb in jbasis]
    rhs = [x for p, q in pairs for x in vec_sub(f, p, q)]
    sol = solve_multi(el.Mat.from_cols(f, cols, rows=len(rhs)), [rhs])[0]
    return None if sol is None else vec_combination(f, a.dim, sol, jbasis)


def inner_conjugation_witness(delta):
    """`conjugating_element` of the pairs (delta(b), b) over the basis."""
    a = delta.source
    return conjugating_element(a, [(matvec(delta.matrix, a.basis_vector(i)), a.basis_vector(i))
                                   for i in range(a.dim)])


def echelon(field, n, vectors):
    """(rows, pivots): the dense RREF of the span of `vectors`."""
    vectors = [list(v) for v in vectors]
    if not vectors:
        return [], []
    red, piv = rref(el.Mat.from_rows(field, vectors, cols=n))
    return [red.data[i] for i in range(len(piv))], piv


def form(sub):
    """(rows, pivots) of a Subspace, for comparison with `echelon`."""
    return sub.basis, sub.pivots


def eliminate(field, rows, pivots, v):
    """Remainder of v after eliminating, in order, each row's pivot entry."""
    v = list(v)
    for row, pc in zip(rows, pivots):
        c = v[pc]
        if c:
            v = [field.sub(x, field.mul(c, b)) for x, b in zip(v, row)]
    return v


def complement(field, n, ambient, sub):
    """The rows of `ambient`'s RREF, in order, independent of `sub` and of
    the rows taken before them, as an RREF; both arguments (rows, pivots)."""
    added, rows, pivots = [], list(sub[0]), list(sub[1])
    for row in ambient[0]:
        if len(rows) == len(ambient[0]):
            break
        rem = eliminate(field, rows, pivots, row)
        pc = next((k for k, x in enumerate(rem) if x), None)
        if pc is not None:
            added.append(row)
            rows.append(vec_scale(field, field.inv(rem[pc]), rem))
            pivots.append(pc)
    return echelon(field, n, added)


def quotient_basis(field, n, ambient, sub):
    """(reps, proj rows): the complement's rows and, for each, the
    pivot-minimal x with <rep_j, x> = delta_ij and <s, x> = 0 on sub's rows."""
    reps = complement(field, n, ambient, sub)[0]
    rows = reps + sub[0]
    if not rows:
        return [], []
    targets = [el.vec_unit(field, len(rows), i) for i in range(len(reps))]
    return reps, solve_multi(el.Mat.from_rows(field, rows, cols=n), targets)


def intersect(u, w):
    """U ∩ W for two Subspaces, by Zassenhaus: the rows [u|u] for u in U and
    [w|0] for w in W; the rows of their echelon form that vanish on the left
    block span U ∩ W on the right."""
    f, n = u.field, u.ambient_dim
    rows = [r + r for r in u.basis] + [r + vec_zero(f, n) for r in w.basis]
    if not rows:
        return el.Subspace.zero(f, n)
    red, piv = rref(el.Mat.from_rows(f, rows, cols=2 * n))
    out = [row[n:] for row in red.data[:len(piv)] if not any(row[:n]) and any(row[n:])]
    return el.Subspace.span(f, n, out)


def dense_mul(field, sc, x, y):
    """x * y for dense x and y, straight from the sparse table `sc`."""
    out = [field.zero] * len(x)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                c = field.mul(xi, yj)
                for m, cm in sc[i][j]:
                    out[m] = field.add(out[m], field.mul(c, cm))
    return out


def radical_filtration(field, dim, sc, arrows):
    """[A, J, ..., 0] as (rows, pivots) pairs, layer by layer: W_1 = span of
    the dense `arrows`, W_{n+1} = span(W_n * arrows), and each
    J^n = W_n + J^(n+1) a fresh span of both."""
    layers = [echelon(field, dim, arrows)]
    while layers[-1][0]:
        prods = [dense_mul(field, sc, y, x) for y in layers[-1][0] for x in arrows]
        layers.append(echelon(field, dim, [p for p in prods if any(p)]))
    filtration = [layers.pop()]
    while layers:
        filtration.append(echelon(field, dim, layers.pop()[0] + filtration[-1][0]))
    filtration.append(echelon(field, dim, [el.vec_unit(field, dim, i) for i in range(dim)]))
    return filtration[::-1]


def peirce_complements(a, elements):
    """{(i, j): vectors}: every basis vector of J and of J^2 split into its
    Peirce parts for the idempotents `elements`, and in each block e_j J e_i
    the complement of the J^2 block, kept when it is not empty."""
    j1 = a.radical
    j2 = a.radical_power(2)
    f, dim, sc = a.field, a.dim, a.structconst
    j2_blocks = _peirce_blocks(f, dim, sc, elements, j2)
    blocks = {}
    for (i, j), amb in _peirce_blocks(f, dim, sc, elements, j1).items():
        sub = j2_blocks[(i, j)]
        vecs = [list(v) for v in el.complement(amb, sub).basis]
        if vecs:
            blocks[(i, j)] = vecs
    if sum(map(len, blocks.values())) != j1.dim - j2.dim:
        raise QuivkitError("NOT_VALIDATED", "block dimensions do not add up")
    return blocks


def quotient_section(pi):
    """Preimages under a surjection pi of the target's basis vectors.

    All are solved at once; each is the pivot-minimal solution.
    """
    q = pi.target
    pres = solve_multi(pi.matrix, [q.basis_vector(i) for i in range(q.dim)])
    if any(p is None for p in pres):
        raise QuivkitError("INTERNAL", "projection not surjective")
    return pres


def induced_on_quotient(pi, h):
    """The morphism g with h = g . pi, for a surjection pi whose kernel h kills.

    Each basis class of pi's target goes to the image under h of its
    section preimage.
    """
    cols = [matvec(h.matrix, pre) for pre in quotient_section(pi)]
    m = el.Mat.from_cols(h.target.field, cols, rows=h.target.dim)
    return validate_morphism(pi.target, h.target, m)


def kinfty_on_map(rho, src_cls, tgt_cls, *, witness_src=None, witness_tgt=None):
    """k[[VQ]]/I -> k[[VR]]/K induced by rho: gamma_K^-1 . mid . gamma_I,
    with mid induced on the primed quotients (the witnesses' checks and
    codes as in `quivkit.kinfty_on_map`)."""
    t_src, t_tgt = src_cls.parent, tgt_cls.parent
    if rho.source != t_src.vq or rho.target != t_tgt.vq:
        raise QuivkitError("BAD_ARGUMENT", "map endpoints do not match the classes")
    if not rho.is_surjective():
        raise QuivkitError("NOT_SURJECTIVE",
                           "only surjective maps are admitted here")
    if t_src.level != t_tgt.level:
        raise QuivkitError("TRUNCATION_INCOMPATIBLE", "levels differ")
    ident_src = identity_morphism(t_src.carrier)
    ident_tgt = identity_morphism(t_tgt.carrier)
    i_rep = src_cls.representative
    k_rep = tgt_cls.representative
    iprime, delta_i = witness_src if witness_src is not None else (i_rep, ident_src)
    kprime, delta_k = witness_tgt if witness_tgt is not None else (k_rep, ident_tgt)
    if apply_to_ideal(delta_i, i_rep) != iprime:
        raise QuivkitError("WITNESS_INVALID", "source witness does not map I to I'")
    if apply_to_ideal(delta_k, k_rep) != kprime:
        raise QuivkitError("WITNESS_INVALID", "target witness does not map K to K'")
    krho = kvq_on_map(rho, t_src.level, src=t_src, tgt=t_tgt)
    if not kprime.space.contains_subspace(krho.image_of(iprime.space)):
        raise QuivkitError("WITNESS_INVALID", "k[[rho]] does not take I' into K'")
    _q_i, pi_i = quotient_algebra(t_src.carrier, i_rep)
    _q_ip, pi_ip = quotient_algebra(t_src.carrier, iprime)
    _q_k, pi_k = quotient_algebra(t_tgt.carrier, k_rep)
    _q_kp, pi_kp = quotient_algebra(t_tgt.carrier, kprime)
    gamma_i = gamma(delta_i, pi_i, pi_ip)
    gamma_k = gamma(delta_k, pi_k, pi_kp)
    # induced map on the primed quotients
    mid = induced_on_quotient(pi_ip, pi_kp.compose(krho))
    return gamma_k.inverse().compose(mid).compose(gamma_i)


def check_unit(field, dim, sc, unit):
    ut = sparse(unit)
    for j in range(dim):
        bj = {j: field.one}
        if _mul_raw(field, sc, ut, bj) != bj or _mul_raw(field, sc, bj, ut) != bj:
            raise QuivkitError("UNIT_FAIL", f"unit fails on basis element {j}")


def orthogonal(field, sc, unit_terms, terms, code, names):
    """`orthogonal_idempotents` on the sparse unit and elements."""
    total = {}
    for i, et in enumerate(terms):
        if _mul_raw(field, sc, et, et) != et:
            raise QuivkitError(code, f"{names[i]} is not idempotent")
        for j in range(i):
            if _mul_raw(field, sc, et, terms[j]) or _mul_raw(field, sc, terms[j], et):
                raise QuivkitError(code, f"{names[j]} and {names[i]} are not orthogonal")
        el.add_scaled(field, total, field.one, et)
    if total != unit_terms:
        raise QuivkitError(code, "the idempotents do not sum to 1")
    return sum(1 for et in terms if et)


def verify_presentation(field, sc, unit_terms, idem_terms, arrows):
    """Check that the idempotents are orthogonal, sum to 1 and that each
    arrow lies in exactly one Peirce block e_t A e_s of theirs, all sparse;
    return how many idempotents are nonzero."""
    count = orthogonal(field, sc, unit_terms, idem_terms, "NOT_POINTED",
                       [f"class {i}" for i in range(len(idem_terms))])
    for k, xt in enumerate(arrows):
        # with sum e_t = 1, one nonzero e_t x and one nonzero x e_s give
        # x = e_t x = x e_s = e_t x e_s
        left = sum(1 for et in idem_terms if _mul_raw(field, sc, et, xt))
        right = sum(1 for et in idem_terms if _mul_raw(field, sc, xt, et))
        if left != 1 or right != 1:
            raise QuivkitError("BIMODULE_CONDITION_FAIL",
                               f"arrow {k} does not lie in one Peirce block")
    return count


def arrow_blocks(field, sc, idem_terms, arrows):
    """The block (s, t) of each arrow x, as `make_splitting` found it by
    multiplying: the first s with x e_s != 0 and the first t with e_t x != 0."""
    return [(next(s for s, e in enumerate(idem_terms) if _mul_raw(field, sc, x, e)),
             next(t for t, e in enumerate(idem_terms) if _mul_raw(field, sc, e, x)))
            for x in arrows]


def presented_algebra(field, labels, sc, unit, radical, classes, arrows):
    """`presented_algebra` with the unit checked first on its own products:
    u g = g = g u for each generator g, the basis scanned after a failure to
    name the first b_j, then `_admit`."""
    if any(_mul_raw(field, sc, unit, g) != g or _mul_raw(field, sc, g, unit) != g
           for g in classes + arrows):
        check_unit(field, len(labels), sc, el.dense(field, len(labels), unit))
    return _admit(field, labels, sc, unit, radical, classes, arrows)


def is_ideal(a, space):
    """Closure of `space` under every basis vector on both sides."""
    return all(space.contains(a.mul(a.basis_vector(i), v))
               and space.contains(a.mul(v, a.basis_vector(i)))
               for v in space.basis for i in range(a.dim))


def as_sparse(field, n, v, name="vector"):
    """`exactlin._as_sparse` with every value read through the field."""
    if isinstance(v, dict):
        bad = [k for k in v if type(k) is not int or not 0 <= k < n]
        if bad:
            raise QuivkitError("BAD_SHAPE", f"{name} names index {bad[0]!r}, "
                                            f"outside 0..{n - 1}")
        items = v.items()
    else:
        try:
            size, items = len(v), enumerate(v)
        except TypeError:
            raise QuivkitError("BAD_ARGUMENT", f"{name} {v!r} is not a vector") from None
        if size != n:
            raise QuivkitError("BAD_SHAPE", f"{name} has length {size}, expected {n}")
    out = {}
    for k, x in items:
        x = el._field_value(field, x, f"{name} entry %d", k)
        if x:
            out[k] = x
    return out


def quotient_table(field, sc, sub):
    """A/sub, for a subspace `sub` of A with table `sc`, as
    (idx, table, proj, cols).

    The classes of the basis vectors b_i, i in `idx`, are a basis of A/sub,
    `table` is its table in the stored sparse form and `proj` takes
    coordinates in A to coordinates in A/sub; `cols` are proj's columns,
    sparse, for `_combine`.
    """
    reps, proj = el.quotient_basis(el.Subspace.full(field, len(sc)), sub)
    # the reps complement a subspace of k^n, so they are basis vectors b_i and
    # their products are table rows, each projected over its terms only
    idx = [r_vec.index(field.one) for r_vec in reps]
    cols = [sparse(c) for c in proj.columns()]
    table = [[tuple(sorted(_combine(field, cols, sc[i][j]).items())) for j in idx]
             for i in idx]
    return idx, table, proj, cols


# -- elements as they were before quivkit held them sparse ----------------------

def table_generators(field, dim, sc, unit, j_space):
    """(classes, idempotents, arrows) of a raw table with the dense `unit`,
    as `table_algebra` made them: the splitter on dense vectors of A/J, the
    cubic lift on dense products, and the dense bases of the Peirce blocks
    of J in key order."""
    idx, qsc, cols = _quotient_table(field, sc, j_space)
    qdim = len(idx)

    def qmul(u, v):
        return dense_mul(field, qsc, u, v)

    idems = [el.dense(field, qdim, _combine(field, cols, sparse(unit).items()))]
    for x in range(qdim):
        new_idems = []
        for u in idems:
            y = qmul(u, el.vec_unit(field, qdim, x))
            powers = [u, y]
            while el.Subspace.span(field, qdim, powers).dim == len(powers):
                powers.append(qmul(powers[-1], y))
            d = len(powers) - 1
            if d == 1:
                new_idems.append(u)
                continue
            # the monic minimal polynomial: y^d minus its combination of the
            # lower powers
            sol = el.solve(el.Mat.from_cols(field, powers[:-1], rows=qdim), powers[-1])
            roots = roots_if_split(field, [field.neg(c) for c in sol] + [field.one])
            for r_val in roots:
                piece = u
                for other in roots:
                    if other != r_val:
                        shifted = vec_sub(field, y, vec_scale(field, other, u))
                        piece = vec_scale(field, field.inv(field.sub(r_val, other)),
                                          qmul(piece, shifted))
                new_idems.append(piece)
        idems = new_idems
    idems.sort(key=tuple)
    classes = []
    for u in idems:
        c = vec_zero(field, dim)
        for i, ui in zip(idx, u):
            c[i] = ui
        classes.append(c)
    three, two = field.of(3), field.of(2)
    lifted, frame = [], list(unit)
    for c in classes:
        x = dense_mul(field, sc, frame, dense_mul(field, sc, c, frame))
        for _ in range((j_space.dim + 1).bit_length() + 2):
            sq = dense_mul(field, sc, x, x)
            if sq == x:
                break
            x = vec_sub(field, vec_scale(field, three, sq),
                        vec_scale(field, two, dense_mul(field, sc, sq, x)))
        lifted.append(x)
        frame = vec_sub(field, frame, x)
    blocks = _peirce_blocks(field, dim, sc, [sparse(e) for e in lifted], j_space)
    return classes, lifted, [v for block in blocks.values() for v in block.basis]


def vqmap_generator_images(rho, n, idems, arrow_bases):
    """The generator images of rho's source as length-n vectors, from the
    dense `idems` and `arrow_bases` of its target."""
    f, vm = rho.field, rho.vertex_map
    idem_images = {v: vec_zero(f, n) if vm[v] == POINT else idems[vm[v]]
                   for v in rho.source.vertices}
    arrow_images = {}
    for (src, tgt), labs in rho.source.spaces.items():
        ws, wt = vm[src], vm[tgt]
        killed = rho.target.dim(ws, wt) == 0
        for j, lab in enumerate(labs):
            arrow_images[lab] = vec_zero(f, n) if killed else \
                vec_combination(f, n, rho.block(src, tgt).col(j), arrow_bases[(ws, wt)])
    return idem_images, arrow_images


def conjugation(a, w):
    """x -> (1+w) x (1+w)^{-1} on dense vectors, by dense products, with the
    inverse summed as the geometric series."""
    f, unit = a.field, as_dense(a, a.unit)
    one_plus, inv, term = vec_add(f, unit, w), unit, unit
    for _ in range(a.truncation_level + 1):
        term = vec_scale(f, f.neg(f.one), a.mul(term, w))
        if el.vec_is_zero(f, term):
            break
        inv = vec_add(f, inv, term)
    return lambda x: a.mul(one_plus, a.mul(x, inv))


def eval_expr(expr, algebra):
    """A DSL expression as a dense vector: each word a product of basis
    vectors, the unit for the empty word."""
    f = algebra.field
    pieces = []
    for term in expr.terms:
        piece = as_dense(algebra, algebra.unit)
        for k, label in enumerate(term.word):
            vec = algebra.element(label)
            piece = vec if k == 0 else algebra.mul(piece, vec)
        pieces.append(piece)
    return vec_combination(f, algebra.dim, [f.of(t.coeff) for t in expr.terms], pieces)
