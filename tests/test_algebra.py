"""Algebra validation, radicals, morphisms, ideals, quotients."""

import random
from fractions import Fraction

import pytest

import quivkit as qk
import quivkit.exactlin as el
from quivkit.algebra import (
    _check_unit,
    _mul_raw,
    _semisimple_pointed_classes,
    induced_on_quotient,
    presented_algebra,
    table_algebra,
)
from quivkit.dsl import parse
from quivkit.errors import QuivkitError
from quivkit.pathalg import universal_map
from quivkit.poly import _mul as poly_mul, roots_if_split

from dense_oracle import (
    check_unit as multiplied_check_unit,
    induced_on_quotient as solved_induced_on_quotient,
    quotient_section,
    rref as dense_rref,
)
from dense_oracle import mat_scale, mat_sub, vec_add, vec_combination, vec_scale, vec_sub, vec_zero
from corpus import (
    QQ,
    F2,
    F5,
    algebra_corpus,
    double_loop_vq,
    lower_triangular,
    semisimple,
    triangle_algebra,
    triangle_mod_cb,
    truncated_power_series,
    two_vq,
    vq_corpus,
)
from test_certificates import _presented_cases
from test_sparse_echelon import _changed_basis_cases, _filtration_cases


def test_validate_semisimple_product():
    a = semisimple(QQ, 2)
    assert a.radical.dim == 0
    assert a.truncation_level == 1


def test_validate_lower_triangular():
    a = lower_triangular(QQ)
    assert a.radical.dim == 1
    assert a.radical.contains(a.element("E21"))
    # hand oracle: the trace form on E21 vanishes against everything
    assert qk.trace_form_radical(a) == a.radical


def test_full_matrix_algebra_rejected():
    pos = [(1, 1), (1, 2), (2, 1), (2, 2)]

    def prod(i, j):
        (a, b), (c, d) = pos[i], pos[j]
        out = [0] * 4
        if b == c:
            out[pos.index((a, d))] = 1
        return out

    sc = [[prod(i, j) for j in range(4)] for i in range(4)]
    with pytest.raises(QuivkitError) as exc:
        qk.validate_algebra(QQ, ["E11", "E12", "E21", "E22"], sc, [1, 0, 0, 1])
    assert exc.value.code == "NOT_POINTED"


def test_non_associative_rejected():
    sc = [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]
    with pytest.raises(QuivkitError) as exc:
        qk.validate_algebra(QQ, ["e", "x"], sc, [1, 0])
    assert exc.value.code in ("ASSOCIATIVITY_FAIL", "UNIT_FAIL")


def test_bad_unit_rejected():
    sc = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(QuivkitError) as exc:
        qk.validate_algebra(QQ, ["e", "x"], sc, [1, 0])
    assert exc.value.code == "UNIT_FAIL"


def _unit_mutants(field, unit):
    """The unit, the unit plus each basis vector, the unit without each of
    its terms, and twice the unit."""
    out = [unit]
    for k, c in enumerate(unit):
        out.append(unit[:k] + [field.add(c, field.one)] + unit[k + 1:])
        if c:
            out.append(unit[:k] + [field.zero] + unit[k + 1:])
    return out + [[field.add(c, c) for c in unit]]


def test_unit_check_matches_the_product_oracle():
    # with non-monomial tables, whose units are not sums of basis vectors
    changed = [(name, b) for name, _a, b in _changed_basis_cases()]
    assert all(any(len(terms) > 1 for row in b.structconst for terms in row)
               for _name, b in changed)
    tables = _filtration_cases() + changed
    sides = set()
    for name, a in tables:
        f, sc = a.field, a.structconst
        for u in _unit_mutants(f, el.dense(f, a.dim, a.unit)):
            try:
                multiplied_check_unit(f, a.dim, sc, u)
            except QuivkitError as ref:
                with pytest.raises(QuivkitError) as exc:
                    _check_unit(f, a.dim, sc, el.sparse(u))
                assert (exc.value.code, str(exc.value)) == ("UNIT_FAIL", str(ref)), name
                # which side fails at the first failing basis vector
                j = int(str(ref).rsplit(" ", 1)[1])
                bj, ut = {j: f.one}, el.sparse(u)
                sides.add((_mul_raw(f, sc, ut, bj) != bj, _mul_raw(f, sc, bj, ut) != bj))
            else:
                _check_unit(f, a.dim, sc, el.sparse(u))
    assert sides == {(True, False), (False, True), (True, True)}


@pytest.mark.parametrize("field", (QQ, F2, F5, el.GF(101)), ids=repr)
def test_presented_unit_check_matches_the_product_oracle(field):
    # presented_algebra checks the unit on the generators and names the
    # first basis vector it fails on, as the basis scan does
    failed = 0
    for name, a, j, _how in _presented_cases(field):
        sc = a.structconst
        for u in _unit_mutants(field, el.dense(field, a.dim, a.unit)):
            args = (field, a.basis_labels, sc, el.sparse(u), j, a.ss_classes, a.arrows)
            try:
                multiplied_check_unit(field, a.dim, sc, u)
            except QuivkitError as ref:
                with pytest.raises(QuivkitError) as exc:
                    presented_algebra(*args)
                assert (exc.value.code, str(exc.value)) == ("UNIT_FAIL", str(ref)), name
                failed += 1
            else:
                assert presented_algebra(*args).same_as(a), name
    assert failed >= 100


def test_a_unit_fixing_generators_that_do_not_span_fails_their_certificate():
    # k^2 presented by the one class e1, with unit e1: the unit fixes every
    # generator, so the failure is the certificate's; the raw table that
    # scans the basis fails the unit on b1
    sc = [[((0, 1),), ()], [(), ((1, 1),)]]
    with pytest.raises(QuivkitError) as exc:
        presented_algebra(QQ, ["e1", "e2"], sc, {0: 1}, el.Subspace.span(QQ, 2, []),
                          [{0: 1}], [])
    assert (exc.value.code, exc.value.message) == (
        "NOT_POINTED", "1 of 1 classes are nonzero, dim A/J is 2")
    with pytest.raises(QuivkitError) as exc:
        table_algebra(QQ, ["e1", "e2"], sc, {0: 1})
    assert (exc.value.code, exc.value.message) == ("UNIT_FAIL", "unit fails on basis element 1")


def test_field_extension_not_pointed():
    # F4 over F2: basis 1, t with t^2 = t + 1 (simple but not split)
    sc = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]
    with pytest.raises(QuivkitError) as exc:
        qk.validate_algebra(qk.GF(3), ["one", "t"],
                            [[[1, 0], [0, 1]], [[0, 1], [2, 0]]], [1, 0])
    # t^2 = 2 = -1 over F3 has no root, so A/J is a quadratic field
    assert exc.value.code == "NOT_POINTED"
    del sc


def test_char_too_small_guard():
    sc = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    with pytest.raises(QuivkitError) as exc:
        qk.validate_algebra(F2, ["e", "x"], sc, [1, 0])
    assert exc.value.code == "CHAR_TOO_SMALL"
    # same data over a big enough prime is fine
    a = qk.validate_algebra(qk.GF(7), ["e", "x"], sc, [1, 0])
    assert a.radical.dim == 1


def test_radical_triangle():
    t = triangle_algebra()
    a = t.carrier
    expected = el.Subspace.span(QQ, 7, [a.element(l) for l in ("a", "b", "c", "cb")])
    assert a.radical == expected
    assert qk.radical(a) == expected
    assert qk.trace_form_radical(a) == expected


def test_radical_power_series():
    a = truncated_power_series(QQ, 2).carrier
    assert a.radical == el.Subspace.span(QQ, 2, [a.element("x")])
    jet = truncated_power_series(QQ, 4).carrier
    for n in range(4):
        expected = el.Subspace.span(
            QQ, 4, [jet.element("x" * m) for m in range(max(n, 1), 4)])
        if n == 0:
            expected = el.Subspace.full(QQ, 4)
        assert qk.radical_power(jet, n) == expected
    assert qk.radical_power(jet, 4).dim == 0
    assert qk.radical_power(jet, 9).dim == 0


def test_radical_powers_triangle():
    a = triangle_algebra().carrier
    assert qk.radical_power(a, 0).dim == 7
    assert qk.radical_power(a, 2) == el.Subspace.span(QQ, 7, [a.element("cb")])
    assert qk.radical_power(a, 3).dim == 0


def test_morphism_identity_valid():
    a = triangle_algebra().carrier
    m = qk.identity_morphism(a)
    assert m.surjective


def test_diagonal_inclusion_into_product_rejected():
    k1 = semisimple(QQ, 1)
    k2 = semisimple(QQ, 2)
    mat = el.Mat(QQ, 2, 1, [[Fraction(1)], [Fraction(1)]])
    with pytest.raises(QuivkitError) as exc:
        qk.validate_morphism(k1, k2, mat)
    assert exc.value.code == "RADICAL_QUOTIENT_NOT_SURJECTIVE"


def test_diagonal_into_lower_triangular_valid():
    k2 = semisimple(QQ, 2)
    lt = lower_triangular(QQ)
    cols = [lt.element("E11"), lt.element("E22")]
    m = qk.validate_morphism(k2, lt, el.Mat.from_cols(QQ, cols, rows=3))
    assert not m.surjective
    # image of the (zero) radical misses J(B)
    assert qk.image_of_radical_check(m) is False


def test_not_multiplicative_rejected():
    a = truncated_power_series(QQ, 2).carrier
    bad = el.Mat.from_sparse_cols(QQ, [a.unit, a.unit], 2)
    with pytest.raises(QuivkitError) as exc:
        qk.validate_morphism(a, a, bad)
    assert exc.value.code == "NOT_MULTIPLICATIVE"


def test_not_unital_rejected():
    a = semisimple(QQ, 1)
    bad = el.Mat(QQ, 1, 1, [[Fraction(2)]])
    with pytest.raises(QuivkitError) as exc:
        qk.validate_morphism(a, a, bad)
    assert exc.value.code == "NOT_UNITAL"


def test_image_of_radical_check_for_projection():
    t, ideal, quotient, pi = triangle_mod_cb()
    assert qk.image_of_radical_check(pi) is True


def test_surjections_map_radical_layers_onto_radical_layers():
    # every surjective morphism in sight satisfies the layerwise equality
    from corpus import algebra_corpus

    t, ideal, quotient, pi = triangle_mod_cb()
    assert qk.image_of_radical_check(pi)
    for name, a in algebra_corpus():
        assert qk.image_of_radical_check(qk.identity_morphism(a)), name
        cu = qk.counit(a)
        assert qk.image_of_radical_check(cu.morphism), name


def test_quotient_by_zero_is_isomorphic():
    a = triangle_algebra().carrier
    zero = qk.IdealSubspace(a, el.Subspace.zero(QQ, a.dim))
    q, pi = qk.quotient_algebra(a, zero)
    assert q.dim == a.dim
    assert pi.surjective


def test_quotient_triangle_mod_cb():
    t, ideal, quotient, pi = triangle_mod_cb()
    assert quotient.dim == 6
    assert quotient.truncation_level == 2
    assert el.kernel(pi.matrix) == ideal.space
    # J(A/I) = image of J(A)
    img = el.Subspace.span(QQ, 6, [pi.apply(v) for v in t.carrier.radical.basis])
    assert quotient.radical == img


def test_quotient_power_series():
    jet = truncated_power_series(QQ, 4)
    ideal = qk.ideal_generated_by(jet.carrier, [jet.carrier.element("xx")])
    q, pi = qk.quotient_algebra(jet.carrier, ideal)
    assert q.dim == 2
    assert q.truncation_level == 2


def test_quotient_rejects_non_ideal():
    # span{c} is not an ideal: c*b = cb falls outside it
    a = triangle_algebra().carrier
    sub = el.Subspace.span(QQ, 7, [a.element("c")])
    with pytest.raises(QuivkitError) as exc:
        qk.quotient_algebra(a, qk.IdealSubspace(a, sub))
    assert exc.value.code == "NOT_AN_IDEAL"


def test_ideal_generated_by_cb():
    a = triangle_algebra().carrier
    ideal = qk.ideal_generated_by(a, [a.element("cb")])
    assert ideal.space == el.Subspace.span(QQ, 7, [a.element("cb")])
    assert qk.is_relation_ideal(ideal)


def test_ideal_generated_by_arrow_is_not_relation():
    a = triangle_algebra().carrier
    ideal = qk.ideal_generated_by(a, [a.element("a")])
    assert not qk.is_relation_ideal(ideal)
    assert ideal.space.contains(a.element("a"))


def test_zero_ideal_is_relation_ideal():
    a = triangle_algebra().carrier
    zero = qk.ideal_generated_by(a, [])
    assert zero.dim == 0
    assert qk.is_relation_ideal(zero)


def test_radical_quotient_commutes_with_quotient():
    # J(A/I) = (J(A)+I)/I for a relation ideal
    t, ideal, quotient, pi = triangle_mod_cb()
    lifted = t.carrier.radical.sum(ideal.space)
    img = el.Subspace.span(QQ, 6, [pi.apply(v) for v in lifted.basis])
    assert img == quotient.radical


def test_f5_presented_algebra_radical():
    # presented algebras know their radical in any characteristic
    t = triangle_algebra(F5)
    assert t.carrier.radical.dim == 4
    # the trace criterion refuses p <= dim ...
    with pytest.raises(QuivkitError) as exc:
        qk.trace_form_radical(t.carrier)
    assert exc.value.code == "CHAR_TOO_SMALL"
    # ... and agrees with the arrow ideal when p > dim
    jet = truncated_power_series(F5, 3).carrier
    assert qk.trace_form_radical(jet) == jet.radical


# -- sparse multiply kernel against the dense reference loop ---------------

def _dense_table(a):
    """Dense coordinate vectors of the products b_i b_j of `a`."""
    f = a.field
    table = []
    for row in a.structconst:
        dense_row = []
        for terms in row:
            assert [m for m, _ in terms] == sorted({m for m, _ in terms})
            assert all(c for _, c in terms)
            v = vec_zero(f, a.dim)
            for m, c in terms:
                v[m] = c
            dense_row.append(v)
        table.append(dense_row)
    return table


def _reference_mul(f, dim, sc, x, y):
    out = vec_zero(f, dim)
    for i, xi in enumerate(x):
        if xi == f.zero:
            continue
        for j, yj in enumerate(y):
            if yj == f.zero:
                continue
            c = f.mul(xi, yj)
            for m, cm in enumerate(sc[i][j]):
                if cm != f.zero:
                    out[m] = f.add(out[m], f.mul(c, cm))
    return out


def _reference_bad_pair(source, target, matrix):
    """First basis pair, in validate_morphism's order, where matrix fails."""
    src_sc = _dense_table(source)
    tgt_sc = _dense_table(target)
    cols = matrix.columns()
    for i in range(source.dim):
        for j in range(source.dim):
            lhs = matrix.matvec(src_sc[i][j])
            rhs = _reference_mul(target.field, target.dim, tgt_sc, cols[i], cols[j])
            if lhs != rhs:
                return source.basis_labels[i], source.basis_labels[j]
    return None


def _loop_parallel_algebra(field):
    vq = qk.VQuiver(["1", "2"], {("1", "1"): ["x"], ("1", "2"): ["a", "b"],
                                 ("2", "1"): ["c"]})
    return qk.build_kvq(field, vq, 4)


def _loop_parallel_quotient(field):
    a = _loop_parallel_algebra(field).carrier
    rel = vec_sub(field, a.mul(a.element("x"), a.element("x")),
                  a.mul(a.element("c"), a.element("a")))
    q, _pi = qk.quotient_algebra(a, qk.ideal_generated_by(a, [rel]))
    return q


def _random_element(rng, f, dim):
    return [f.of(rng.choice((0, 0, 0, 1, -1, 2, -3))) for _ in range(dim)]


_ORACLE_ALGEBRAS = {
    "kvq_Q": lambda: _loop_parallel_algebra(QQ).carrier,
    "kvq_F5": lambda: _loop_parallel_algebra(F5).carrier,
    "quotient_Q": lambda: _loop_parallel_quotient(QQ),
    "quotient_F5": lambda: _loop_parallel_quotient(F5),
    "lower_tri": lambda: lower_triangular(QQ),
}


@pytest.mark.parametrize("name", list(_ORACLE_ALGEBRAS))
def test_mul_matches_dense_reference(name):
    a = _ORACLE_ALGEBRAS[name]()
    dense = _dense_table(a)
    rng = random.Random(f"mul-oracle-{name}")
    for _ in range(25):
        x = _random_element(rng, a.field, a.dim)
        y = _random_element(rng, a.field, a.dim)
        assert a.mul(x, y) == _reference_mul(a.field, a.dim, dense, x, y)
    for i in range(a.dim):
        for j in range(a.dim):
            bi, bj = a.basis_vector(i), a.basis_vector(j)
            assert a.mul(bi, bj) == _reference_mul(a.field, a.dim, dense, bi, bj)


def test_perturbed_psi_names_reference_pair():
    q = _loop_parallel_quotient(QQ)
    cu = qk.counit(q)
    t = cu.source_algebra
    m = cu.morphism.matrix.copy()
    # a path of length 2 must go to the product of its arrows' images
    col = t.grading[2][0]
    m.data[0][col] = QQ.add(m.data[0][col], QQ.one)
    pair = _reference_bad_pair(t.carrier, q, m)
    assert pair is not None
    with pytest.raises(QuivkitError) as exc:
        qk.validate_morphism(t.carrier, q, m)
    assert exc.value.code == "NOT_MULTIPLICATIVE"
    assert exc.value.message == f"fails on basis pair ({pair[0]}, {pair[1]})"


def _raw_upper_triangular(field):
    """Upper triangular 3 x 3 matrices as a raw table in a shuffled basis,
    admitted with its certificate (the trace form would refuse F2 and F5)."""
    labels = ["E12", "E22", "E13", "E23", "E11", "E33"]
    index = {lab: k for k, lab in enumerate(labels)}
    terms = [[((index[f"E{x[1]}{y[2]}"], field.one),) if x[2] == y[1] else ()
              for y in labels] for x in labels]
    unit = {k: field.one for k, lab in enumerate(labels) if lab[1] == lab[2]}
    vec = {lab: {k: field.one} for lab, k in index.items()}
    radical = el.Subspace.span(field, 6, [vec["E12"], vec["E13"], vec["E23"]])
    return presented_algebra(field, labels, terms, unit, radical,
                             [vec["E11"], vec["E22"], vec["E33"]], [vec["E12"], vec["E23"]])


def _quotient_cases():
    """(name, A, I): every corpus algebra modulo J^2 and J, and quotients
    whose representatives are not the earliest basis vectors of A."""
    cases = []
    for name, a in algebra_corpus():
        for key, space in (("J2", a.radical_power(2)), ("J", a.radical)):
            if space.dim:
                cases.append((f"{name}/{key}", a, qk.IdealSubspace(a, space)))
    for field in (QQ, F2, F5):
        for name, a, gen in (("triangle/(a)", triangle_algebra(field).carrier, "a"),
                             ("TWO/(x)", qk.build_kvq(field, two_vq(), 3).carrier, "x"),
                             ("upper3/(E12)", _raw_upper_triangular(field), "E12")):
            ideal = qk.ideal_generated_by(a, [a.element(gen)])
            cases.append((f"{name} {field!r}", a, ideal))
    return cases


def test_quotient_section_matches_one_solve_per_column():
    skipped = 0
    for name, a, ideal in _quotient_cases():
        q, pi = qk.quotient_algebra(a, ideal)
        section = quotient_section(pi)
        # the loop the solved section replaced: one solve per basis vector
        assert section == [el.solve(pi.matrix, q.basis_vector(i)) for i in range(q.dim)], name
        assert section == [a.element(lab) for lab in q.basis_labels], name
        skipped += q.basis_labels != a.basis_labels[:q.dim]
    # quotients whose representatives skip an earlier basis vector
    assert skipped >= 9


def test_induced_on_quotient_factors_through_the_projection():
    cases = _quotient_cases()
    assert len(cases) >= 25
    for name, a, ideal in cases:
        q, pi = qk.quotient_algebra(a, ideal)
        further = qk.ideal_generated_by(a, ideal.space.basis + a.radical_power(2).basis)
        cu = qk.counit(q)
        pi_k = qk.quotient_algebra(cu.source_algebra.carrier, cu.kernel_ideal)[1]
        for p, h in ((pi, pi), (pi, qk.quotient_algebra(a, further)[1]),
                     (pi_k, cu.morphism)):
            g = induced_on_quotient(p, h)
            admitted = qk.validate_morphism(p.target, h.target, g.matrix)
            assert g == admitted == solved_induced_on_quotient(p, h), name
            assert g.surjective == (len(dense_rref(g.matrix)[1]) == h.target.dim), name
            assert g.compose(p).matrix == h.matrix, name


def test_induced_on_quotient_refuses_what_is_not_a_projection():
    t = triangle_algebra()
    a = t.carrier
    q, pi = qk.quotient_algebra(a, qk.ideal_generated_by(a, [a.element("a")]))
    # same labels, but the class of a is sent to a + cb
    shifted = dict(t.generators()[1], a=vec_add(QQ, a.element("a"), a.element("cb")))
    aut = universal_map(t, a, t.generators()[0], shifted)
    # the table's labels are not labels of its counit's source
    cu = qk.counit(_raw_upper_triangular(QQ))
    # h must start where pi does
    for p, h in ((aut, pi), (cu.morphism, cu.morphism), (pi, cu.morphism)):
        with pytest.raises(QuivkitError) as exc:
            induced_on_quotient(p, h)
        assert exc.value.code == "BAD_ARGUMENT"


# -- splitting A/J: the characteristic-polynomial oracle and sympy -------------

def _charpoly(m):
    """det(t I - m), by relative Krylov iteration.

    Each standard basis vector outside the m-stable subspace W found so far
    starts a chain v, m v, m^2 v, ...  The first power m^d v that lies in W
    plus the chain gives m^d v = w + sum x_i m^i v, and t^d - sum x_i t^i is
    the characteristic polynomial of m on (W + chain) / W.
    """
    f, n = m.field, m.rows
    stable, out = [], [f.one]
    for j in range(n):
        v = el.vec_unit(f, n, j)
        if stable and el.Subspace.span(f, n, stable).contains(v):
            continue
        chain = [v]
        while True:
            w = m.matvec(chain[-1])
            x = el.solve(el.Mat.from_cols(f, stable + chain, rows=n), w)
            if x is not None:
                break
            chain.append(w)
        out = poly_mul(f, out, [f.neg(c) for c in x[len(stable):]] + [f.one])
        stable += chain
    return out


def _block_coords(block, v):
    """Coefficients of v in the RREF basis of `block`, which must hold it."""
    assert block.contains(v)
    return [v[pc] for pc in block.pivots]


def _charpoly_classes(field, dim, sc, unit, j_space):
    """The splitter A/J had before it read minimal polynomials on its own
    table, kept as the oracle: multiply in A/J by lifting to A and projecting
    back, and split each block by the roots of the characteristic polynomial
    of a multiplication matrix, after a diagonalisability probe.  The unit
    is sparse; the classes are dense."""
    reps, proj = el.quotient_basis(el.Subspace.full(field, dim), j_space)
    unit = el.dense(field, dim, unit)
    qdim = len(reps)

    def lift(u):
        return vec_combination(field, dim, u, reps)

    def qmul(u, v):
        prod = _mul_raw(field, sc, el.sparse(lift(u)), el.sparse(lift(v)))
        return proj.matvec(el.dense(field, dim, prod))

    def unit_vec(i):
        return el.vec_unit(field, qdim, i)

    for i in range(qdim):
        for j in range(i):
            if qmul(unit_vec(i), unit_vec(j)) != qmul(unit_vec(j), unit_vec(i)):
                raise QuivkitError("NOT_POINTED", "A/J is not commutative")
    idems = [proj.matvec(unit)]
    for x_idx in range(qdim):
        new_idems = []
        for u in idems:
            block = el.Subspace.span(field, qdim, [qmul(u, unit_vec(j)) for j in range(qdim)])
            if block.dim <= 1:
                new_idems.append(u)
                continue
            ux = qmul(u, unit_vec(x_idx))
            m = el.Mat.from_cols(field, [_block_coords(block, qmul(ux, b)) for b in block.basis],
                                 rows=block.dim)
            roots = roots_if_split(field, _charpoly(m))
            if roots is None:
                raise QuivkitError("NOT_POINTED", "A/J has a simple factor larger than k")
            ident = el.Mat.identity(field, block.dim)
            probe = ident
            for r_val in roots:
                probe = probe.matmul(mat_sub(m, mat_scale(ident, r_val)))
            if not probe.is_zero():
                raise QuivkitError("NOT_POINTED", "A/J is not semisimple over k")
            if len(roots) == 1:
                new_idems.append(u)
                continue
            for r_val in roots:
                piece = _block_coords(block, u)
                for other in roots:
                    if other != r_val:
                        piece = vec_scale(field, field.inv(field.sub(r_val, other)),
                                          mat_sub(m, mat_scale(ident, other)).matvec(piece))
                new_idems.append(vec_combination(field, qdim, piece, block.basis))
        idems = [u for u in new_idems if any(u)]
    assert len(idems) == qdim
    idems.sort(key=tuple)
    return [lift(u) for u in idems]


def _sympy_charpoly(field, m):
    """sympy's det(t I - m), lowest degree first, as field values."""
    import sympy

    lam = sympy.Symbol("lam")
    sm = sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m.data[i][j]))
    coeffs = sm.charpoly(lam).all_coeffs()[::-1]
    return [field.of(Fraction(int(c.p), int(c.q))) for c in coeffs]


def _sympy_split_eigenvalues(field, m):
    """The sympy charpoly + factor_list splitter, kept as the oracle."""
    import sympy

    lam = sympy.Symbol("lam")
    if field.char == 0:
        sm = sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m.data[i][j]))
        factors = sympy.Poly(sm.charpoly(lam).as_expr(), lam, domain="QQ").factor_list()[1]
    else:
        sm = sympy.Matrix(m.rows, m.cols, lambda i, j: int(m.data[i][j]))
        factors = sympy.Poly(sm.charpoly(lam).as_expr(), lam,
                             modulus=field.char).factor_list()[1]
    roots = set()
    for fac, _mult in factors:
        if fac.degree() > 1:
            return None
        c1, c0 = fac.all_coeffs()
        if field.char == 0:
            roots.add(-Fraction(str(c0)) / Fraction(str(c1)))
        else:
            roots.add(-int(c0) * pow(int(c1), -1, field.char) % field.char)
    return sorted(roots)


def _conjugated_diagonal(field, rng, eigenvalues):
    """P D P^-1 for a seeded invertible P, with Jordan 1s between equal
    neighbours of D now and then."""
    n = len(eigenvalues)
    while True:
        p = el.Mat(field, n, n, [[field.of(rng.randint(-3, 3)) for _ in range(n)]
                                 for _ in range(n)])
        if el.rank(p) == n:
            break
    d = el.Mat.zeros(field, n, n)
    for i, ev in enumerate(eigenvalues):
        d.data[i][i] = ev
        if i and ev == eigenvalues[i - 1] and rng.random() < 0.5:
            d.data[i - 1][i] = field.one
    return p.matmul(d).matmul(el.invert(p))


@pytest.mark.parametrize("field", [QQ, F2, qk.GF(3), F5, qk.GF(101), qk.GF(10**20 + 39)],
                         ids=lambda f: f.name[:6])
def test_split_eigenvalues_matches_sympy(field):
    rng = random.Random(f"split:{field.char}")
    for _ in range(40):
        n = rng.randint(1, 6)
        if field.char == 0:
            evs = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n)]
        else:
            evs = [field.of(rng.randint(0, 6)) for _ in range(n)]
        m = _conjugated_diagonal(field, rng, evs)
        coeffs = _sympy_charpoly(field, m)
        assert _charpoly(m) == coeffs
        roots = roots_if_split(field, coeffs)
        assert roots == sorted(set(evs))
        assert roots == _sympy_split_eigenvalues(field, m)
        # a random matrix usually does not split
        r = el.Mat(field, n, n, [[field.of(rng.randint(-5, 5)) for _ in range(n)]
                                 for _ in range(n)])
        coeffs = _sympy_charpoly(field, r)
        assert _charpoly(r) == coeffs
        assert roots_if_split(field, coeffs) == _sympy_split_eigenvalues(field, r)


@pytest.mark.parametrize("field, c0", [(QQ, 1), (qk.GF(3), 1), (QQ, -2)],
                         ids=["t2+1/Q", "t2+1/F3", "t2-2/Q"])
def test_split_eigenvalues_refuses_irreducible_quadratics(field, c0):
    # companion matrix of t^2 + c0
    m = el.Mat(field, 2, 2, [[field.zero, field.of(-c0)], [field.one, field.zero]])
    assert roots_if_split(field, _sympy_charpoly(field, m)) is None
    assert _sympy_split_eigenvalues(field, m) is None


def test_jordan_block_has_its_root_and_is_not_semisimple():
    for field in (QQ, F5):
        three = field.of(3)
        m = el.Mat(field, 3, 3, [[three, field.one, field.zero],
                                 [field.zero, three, field.one],
                                 [field.zero, field.zero, three]])
        assert roots_if_split(field, _sympy_charpoly(field, m)) == [three]
    # k[x]/(x^2) with J taken as 0: x has minimal polynomial t^2
    a = qk.validate_algebra(QQ, ["e", "x"], [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])
    with pytest.raises(QuivkitError) as exc:
        _semisimple_pointed_classes(QQ, 2, a.structconst, a.unit, el.Subspace.zero(QQ, 2))
    assert (exc.value.code, exc.value.message) == ("NOT_POINTED",
                                                   "A/J is not semisimple over k")


def test_associativity_is_checked_where_only_the_right_side_is_nonzero():
    # b1 b2 = 0, so (b1 b2) b3 = 0, while b1 (b2 b3) = b1 b4 = b3
    labels = ["one", "x", "y", "z", "w"]
    products = {(1, 4): 3, (2, 3): 4}
    sc = [[[0] * 5 for _ in range(5)] for _ in range(5)]
    for i in range(5):
        sc[0][i][i] = sc[i][0][i] = 1
    for (i, j), m in products.items():
        sc[i][j][m] = 1
    with pytest.raises(QuivkitError) as exc:
        qk.validate_algebra(QQ, labels, sc, [1, 0, 0, 0, 0])
    assert (exc.value.code, exc.value.message) == ("ASSOCIATIVITY_FAIL",
                                                   "(b1 b2) b3 != b1 (b2 b3)")


GAUSSIAN_TABLE = """field {field};
algebra C = table {{
  basis: e, i;
  unit: e;
  e*e = e; e*i = i; i*e = i;
  i*i = -e;
}};
"""


@pytest.mark.parametrize("field", ["Q", "F3", "F5"])
def test_gaussian_table_is_pointed_only_where_i_exists(field):
    text = GAUSSIAN_TABLE.format(field=field)
    if field == "F5":
        assert parse(text).algebras["C"].algebra.dim == 2
        return
    with pytest.raises(QuivkitError) as exc:
        parse(text)
    assert str(exc.value) == ("NOT_POINTED: A/J has a simple factor larger than k"
                              " (line 2, column 1)")


# -- raw tables against the presented form of the same algebra -------------

F101 = qk.GF(101)


def _presented_oracle_cases():
    """Every corpus path algebra and a quotient of each, over Q and F101."""
    cases = []
    for field in (QQ, F101):
        for name, vq in vq_corpus() + [("double_loop", double_loop_vq())]:
            t = qk.build_kvq(field, vq, 4 if name == "loop" else 3)
            cases.append((f"{name}_{field!r}", t.carrier))
            if len(t.grading) > 2:
                # the sum of the paths of length 2 generates a relation ideal
                gen = [field.one if i in t.grading[2] else field.zero
                       for i in range(t.dim)]
                ideal = qk.ideal_generated_by(t.carrier, [gen])
                cases.append((f"{name}_mod_{field!r}",
                              qk.quotient_algebra(t.carrier, ideal)[0]))
        cases.append((f"loop_parallel_{field!r}", _loop_parallel_quotient(field)))
    return cases


def test_raw_table_matches_presented_algebra():
    cases = _presented_oracle_cases()
    assert len(cases) >= 20
    for name, a in cases:
        raw = qk.validate_algebra(a.field, a.basis_labels, _dense_table(a), a.unit)
        assert raw.structconst == a.structconst, name
        assert raw.unit == a.unit, name
        assert raw.radical_filtration == a.radical_filtration, name


def _triangle_presentation():
    a = triangle_algebra().carrier
    return a, [a.field, a.basis_labels, a.structconst, a.unit, a.radical,
               a.ss_classes, a.arrows]


def test_presented_algebra_admits_its_own_presentation():
    a, args = _triangle_presentation()
    b = presented_algebra(*args)
    assert b.same_as(a) and b.radical_filtration == a.radical_filtration


def test_presented_algebra_refuses_a_radical_that_is_not_an_ideal():
    a, args = _triangle_presentation()
    # span{b} is not an ideal: c * b leaves it
    args[4] = el.Subspace.span(QQ, a.dim, [a.element("b")])
    with pytest.raises(QuivkitError) as exc:
        presented_algebra(*args)
    assert exc.value.code == "RADICAL_NOT_NILPOTENT"


def test_presented_algebra_refuses_wrong_classes():
    a, args = _triangle_presentation()
    args[4] = a.radical_power(2)
    with pytest.raises(QuivkitError) as exc:
        presented_algebra(*args)
    assert exc.value.code == "NOT_POINTED"
    a, args = _triangle_presentation()
    args[5] = [{k: 2 * c for k, c in a.ss_classes[0].items()}] + a.ss_classes[1:]
    with pytest.raises(QuivkitError) as exc:
        presented_algebra(*args)
    assert exc.value.code == "NOT_POINTED"
    assert "not idempotent" in str(exc.value)


def test_presented_algebra_refuses_a_wrong_unit():
    a, args = _triangle_presentation()
    args[3] = el.sparse(vec_add(QQ, a.element("e1"), a.element("e2")))
    with pytest.raises(QuivkitError) as exc:
        presented_algebra(*args)
    assert exc.value.code == "UNIT_FAIL"
