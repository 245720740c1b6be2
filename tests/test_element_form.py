"""One element form: every element quivkit stores, passes or returns is a
sparse dict {index: nonzero value}.

Each stored or returned element below must be canonical (int keys inside
the basis, no zero value, every value reduced in the field) and equal
`sparse()` of the dense value quivkit made before it held elements sparse,
which `tests/dense_oracle.py` keeps.  The cases are the corpus path algebras
and quotients and corpus algebras as raw tables in a changed basis, over Q,
F2, F5 and F101.  Public functions that take elements read them dense or
sparse through one normalizer, and refuse what is not an element with a
`QuivkitError`.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import quivkit as qk
import quivkit.exactlin as el
from quivkit.dsl import eval_expr, parse, parse_ast
from quivkit.errors import QuivkitError
from quivkit.generators import random_radical_element, random_vqmap_to_gq
from quivkit.pathalg import vqmap_generator_images
from quivkit.splittings import conjugating_element, conjugation

import dense_oracle as dense
from corpus import (algebra_corpus, in_changed_basis, line_vq, lower_triangular,
                    perfbench_workloads, semisimple)
from test_certificates import _presented_cases

ROOT = Path(__file__).resolve().parents[1]
QQ, F2, F5, F101 = el.QQ, el.GF(2), el.GF(5), el.GF(101)
FIELDS = (QQ, F2, F5, F101)


def assert_canonical(field, n, x, name):
    """x is a dict with int keys in 0..n-1 and no zero value, each value a
    value of the field (over F_p, in 0..p-1)."""
    assert type(x) is dict, name
    for k, c in x.items():
        assert type(k) is int and 0 <= k < n, (name, k)
        assert c and field.of(c) == c, (name, k, c)


def assert_sparse_of(field, n, x, ref, name):
    assert_canonical(field, n, x, name)
    assert x == el.sparse(ref), name


def _cases(field):
    """(name, algebra, its unit, idempotents and arrows as dense vectors
    made the old way): the path algebras of the presented corpus, their
    quotients, and corpus algebras as raw tables in a changed basis where
    the trace form admits them."""
    out, made = [], {}
    one = field.one
    for name, a, _j, how in _presented_cases(field):
        if how is None:
            # a path algebra: vertices first, then the paths of length 1
            nv = a.dim - a.radical.dim
            unit = [one] * nv + [field.zero] * (a.dim - nv)
            classes = [el.vec_unit(field, a.dim, i) for i in range(nv)]
            arrows = [el.vec_unit(field, a.dim, i) for i in sorted(a.radical.pivots)
                      if not a.radical_power(2).contains({i: one})]
            made[id(a)] = (unit, classes, arrows)
        else:
            parent, _ideal, pi = how
            punit, pclasses, parrows = made[id(parent)]
            image = [dense.matvec(pi.matrix, v) for v in [punit] + pclasses + parrows]
            unit = image[0]
            classes = [v for v in image[1:1 + len(pclasses)] if any(v)]
            arrows = [v for v in image[1 + len(pclasses):] if any(v)]
            made[id(a)] = (unit, classes, arrows)
        out.append((name, a, *made[id(a)]))
    bases = [(n, a) for n, a in algebra_corpus() if a.field == field]
    bases += [(f"{n}_{field!r}", a) for n, a, _j, how in _presented_cases(field)[:6]]
    bases.append(("k", semisimple(field, 1)))
    if field.char != 2:
        bases.append(("lower_tri", lower_triangular(field)))
    for name, a in bases:
        if field.char and field.char <= a.dim:
            continue
        labels, table, unit = in_changed_basis(a)
        b = qk.validate_algebra(field, labels, table, unit)
        unit = [field.of(c) for c in unit]
        _classes, idems, arrows = dense.table_generators(field, b.dim, b.structconst, unit,
                                                         b.radical)
        out.append((f"{name}_changed", b, unit, idems, arrows))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_stored_generators_are_the_sparse_forms_of_the_dense_ones(field):
    cases = _cases(field)
    assert sum(name.endswith("_changed") for name, *_r in cases) >= (1 if field == F2 else 5)
    assert sum("_mod_" in name for name, *_r in cases) >= 8
    for name, a, unit, classes, arrows in cases:
        n = a.dim
        assert_sparse_of(field, n, a.unit, unit, name)
        assert len(a.ss_classes) == len(classes) and len(a.arrows) == len(arrows), name
        for x, ref in zip(a.ss_classes + a.arrows, classes + arrows):
            assert_sparse_of(field, n, x, ref, name)
        assert a.generators() == a.ss_classes + a.arrows, name
        # the splitting, the Gabriel quiver's generators and the conjugators
        assert qk.lift_idempotents(a).elements == a.ss_classes, name
        split = qk.make_splitting(a)
        ref_blocks = dense.peirce_complements(a, a.ss_classes)
        assert list(split.blocks) == list(ref_blocks), name
        for key, vecs in split.blocks.items():
            assert len(vecs) == len(ref_blocks[key]), name
            for x, ref in zip(vecs, ref_blocks[key]):
                assert_sparse_of(field, n, x, ref, name)
        g = qk.gq(a)
        idems, bases = g.generators()
        assert list(idems.values()) == a.ss_classes, name
        assert list(bases) == g.vquiver.arrow_labels(), name
        for (i, j), vecs in split.blocks.items():
            labs = g.vquiver.spaces[(g.vertex_names[i], g.vertex_names[j])]
            assert [bases[lab] for lab in labs] == vecs, name


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_returned_elements_are_the_sparse_forms_of_the_dense_ones(field):
    rng = random.Random(f"element-form-{field!r}")
    witnesses = images = 0
    for name, a, *_refs in _cases(field):
        n = a.dim
        dense_classes = [dense.as_dense(a, e) for e in a.ss_classes]
        # conjugation, conjugating_element, conjugator and same_orbit
        w = el.dense(field, n, a.radical.rows[a.radical.pivots[0]]) if a.radical.dim \
            else [field.zero] * n
        conj, ref_conj = conjugation(a, w), dense.conjugation(a, w)
        for e, de in zip(a.ss_classes, dense_classes):
            assert_sparse_of(field, n, conj(e), ref_conj(de), name)
        pairs = [(conj(e), e) for e in a.ss_classes]
        got = conjugating_element(a, pairs)
        ref = dense.conjugating_element(a, pairs)
        assert (got is None) == (ref is None), name
        if got is not None:
            assert_sparse_of(field, n, got, ref, name)
            witnesses += 1
        s1, s2 = qk.make_splitting(a), qk.make_splitting(a, conjugate_by=w)
        ref = dense.conjugating_element(a, zip(s1.idems.elements, s2.idems.elements))
        assert_sparse_of(field, n, qk.conjugator(s1, s2), ref, name)
        for e in a.ss_classes:
            ok, got = qk.same_orbit(a, e, conj(e))
            ref = dense.conjugating_element(a, [(conj(e), e)]) if conj(e) != e else \
                [field.zero] * n
            assert ok, name
            assert_sparse_of(field, n, got, ref, name)
        # psi's generator images, the morphism they make, and its apply
        g = qk.gq(a)
        t = qk.build_kvq(field, g.vquiver, max(2, a.truncation_level))
        didems = {v: dense.as_dense(a, e) for v, e in g.generators()[0].items()}
        dbases = {lab: dense.as_dense(a, x) for lab, x in g.generators()[1].items()}
        for _ in range(2):
            rho = random_vqmap_to_gq(rng, t.vq, g, field)
            got = vqmap_generator_images(rho, *g.generators())
            ref = dense.vqmap_generator_images(rho, n, didems, dbases)
            for got_part, ref_part in zip(got, ref):
                assert list(got_part) == list(ref_part), name
                for key, x in got_part.items():
                    assert_sparse_of(field, n, x, ref_part[key], name)
            alpha = qk.universal_map(t, a, *got)
            for x in [random_radical_element(rng, t, min_length=0) for _ in range(3)]:
                assert_sparse_of(field, n, alpha.apply(x),
                                 dense.matvec(alpha.matrix, el.dense(field, t.dim, x)), name)
                images += 1
        # the path algebra's own generators
        gi, ga = t.generators()
        assert list(ga) == t.vq.arrow_labels(), name
        for v in t.vq.vertices:
            ref = el.vec_unit(field, t.dim, t.vertex_idem[v])
            for x in (t.idempotent(v), gi[v]):
                assert_sparse_of(field, t.dim, x, ref, name)
        for lab, x in ga.items():
            ref = el.vec_unit(field, t.dim, t.arrow_index[lab])
            for y in (t.arrow_element(lab), x):
                assert_sparse_of(field, t.dim, y, ref, name)
    assert witnesses >= 10 and images >= 50


def _documents():
    bench = perfbench_workloads()
    texts = [text for _kind, text in bench["cli_universe"](str(ROOT)).values()]
    return texts + [(ROOT / "tests" / "golden" / "table_t4.quiv").read_text(encoding="utf-8")]


def test_eval_expr_gives_the_sparse_form_of_the_dense_sum():
    """Every relation and generator image of the demo, the benchmark's CLI
    documents and the golden table document, evaluated in its algebra."""
    checked = 0
    for text in _documents():
        doc = parse(text)
        for stmt in parse_ast(text).statements:
            if stmt.kind == "algebra" and stmt.fields.get("ideal"):
                a = doc.algebras[stmt.name].tensor.carrier
                exprs = stmt.ideal
            elif stmt.kind == "morphism":
                a = doc.algebras[stmt.target].algebra
                exprs = [expr for _gen, expr in stmt.images]
            else:
                continue
            for expr in exprs:
                assert_sparse_of(a.field, a.dim, eval_expr(expr, a), dense.eval_expr(expr, a),
                                 stmt.name)
                checked += 1
    assert checked >= 100


# -- the one normalizer at the boundary ------------------------------------------

def _one_arrow():
    """kvq(1 -> 2, level 3) over F5: basis e1, e2, a."""
    return qk.build_kvq(F5, qk.VQuiver(["1", "2"], {("1", "2"): ["a"]}), 3).carrier


def _refused(call):
    with pytest.raises(QuivkitError) as exc:
        call()
    return exc.value.code, exc.value.message


def test_an_element_equal_to_zero_in_the_field_is_zero():
    a = _one_arrow()
    assert qk.ideal_generated_by(a, [[5, 0, 0]]).dim == 0
    assert a.radical.contains([5, 0, 0]) and a.radical.contains({0: 10})


def test_a_fraction_is_read_through_the_field():
    a = _one_arrow()
    # 1/2 is 3 over F5: the ideal of 3 e1 is A e1 A = span(e1, a)
    assert qk.ideal_generated_by(a, [[Fraction(1, 2), 0, 0]]).space == \
        qk.ideal_generated_by(a, [[1, 0, 0]]).space
    assert not a.radical.contains([Fraction(1, 2), 0, 0])
    assert a.radical.contains([0, 0, Fraction(1, 2)])
    assert _refused(lambda: a.radical.contains([Fraction(1, 5), 0, 0])) == (
        "BAD_ARGUMENT", "vector entry 0 is Fraction(1, 5), not a value of F5")


def test_a_float_is_read_as_its_exact_fraction():
    # 0.5 and 2.5 are 1/2 and 5/2, that is 3 and 0 over F5, as QQ reads 1/2
    assert (F5.of(0.5), F5.of(2.5), QQ.of(0.5)) == (3, 0, Fraction(1, 2))
    assert F5.of(-7) == 3 and F5.of(Fraction(-1, 2)) == 2
    assert el._as_sparse(F5, 3, [0.5, 2.5, 1]) == {0: 3, 2: 1}
    assert el.Subspace.span(F5, 2, [[0.5, 0]]).dim == 1
    assert _refused(lambda: el._as_sparse(F2, 1, [0.5])) == (
        "BAD_ARGUMENT", "vector entry 0 is 0.5, not a value of F2")
    assert _refused(lambda: el._as_sparse(F5, 1, ["x"])) == (
        "BAD_ARGUMENT", "vector entry 0 is 'x', not a value of F5")


def test_rational_sums_and_products_are_ints_where_integral():
    half = Fraction(1, 2)
    for x in (QQ.add(half, half), QQ.sub(Fraction(3, 2), half), QQ.mul(2, half),
              QQ.mul(Fraction(-2, 3), Fraction(3, 2))):
        assert type(x) is int and x in (1, -1)
    assert QQ.add(half, 1) == Fraction(3, 2) and type(QQ.mul(half, 3)) is Fraction
    # line's path algebra as a table in a changed basis: its arrows and
    # radical rows are made from Fractions, and held integral Fractions
    a = qk.build_kvq(QQ, line_vq(), 3).carrier
    b = qk.validate_algebra(QQ, *in_changed_basis(a))
    table = [c for row in b.structconst for terms in row for _m, c in terms]
    stored = [c for x in [b.unit] + b.ss_classes + b.arrows for c in x.values()]
    stored += [c for s in b.radical_filtration for r in s.rows.values() for c in r.values()]
    assert all(type(c) is int for c in table)
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in stored)
    assert any(type(c) is Fraction for c in stored)


def test_a_value_outside_the_field_is_bad_argument():
    a = _one_arrow()
    want = ("BAD_ARGUMENT", "vector entry 0 is 'x', not a value of F5")
    assert _refused(lambda: qk.ideal_generated_by(a, [["x", 0, 0]])) == want
    assert _refused(lambda: a.radical.contains(["x", 0, 0])) == want
    assert _refused(lambda: a.radical.contains(7))[0] == "BAD_ARGUMENT"


def test_an_index_outside_the_basis_is_bad_shape():
    a = _one_arrow()
    want = ("BAD_SHAPE", "vector names index 6, outside 0..2")
    assert _refused(lambda: el.Subspace.span(F5, 3, [{6: 1}])) == want
    assert _refused(lambda: qk.ideal_generated_by(a, [{6: 1}])) == want
    assert _refused(lambda: a.radical.contains({-1: 1}))[0] == "BAD_SHAPE"
    assert _refused(lambda: a.radical.contains({"0": 1}))[0] == "BAD_SHAPE"


def test_a_wrong_length_is_bad_shape():
    a = _one_arrow()
    assert _refused(lambda: qk.ideal_generated_by(a, [[1, 0]])) == (
        "BAD_SHAPE", "vector has length 2, expected 3")


def test_public_functions_take_elements_dense_or_sparse():
    a = _one_arrow()
    t = qk.build_kvq(F5, qk.VQuiver(["1", "2"], {("1", "2"): ["a"]}), 3)
    idems, arrows = t.generators()
    sparse_map = qk.universal_map(t, a, idems, arrows)
    dense_map = qk.universal_map(t, a, {v: el.dense(F5, 3, x) for v, x in idems.items()},
                                 {lab: el.dense(F5, 3, x) for lab, x in arrows.items()})
    assert sparse_map == dense_map == qk.identity_morphism(a)
    assert sparse_map.apply([0, 0, 6]) == sparse_map.apply({2: 1}) == {2: 1}
    assert qk.same_orbit(a, [1, 0, 0], {0: 1, 2: 3}) == (True, {2: 3})
    # an idempotent image given as a dict is no longer read as its keys
    assert qk.universal_map(t, a, {"1": {0: 1}, "2": {1: 1}}, {"a": {2: 6}}) == sparse_map
    assert _refused(lambda: qk.universal_map(t, a, {"1": {0: 1}, "2": {1: 1}},
                                             {"a": {3: 1}}))[0] == "BAD_SHAPE"


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_zero_entries_are_read_as_the_field_reads_them(field):
    # the int 0 is skipped unread; every other zero-like value is read
    # through the field as before, so the result and each refusal are the
    # reader's that reads every value
    def outcome(reader, v):
        try:
            return "ok", sorted((k, type(c), c) for k, c in reader(field, 4, v).items())
        except QuivkitError as exc:
            return exc.code, exc.message

    values = (0, False, 0.0, Fraction(0), "0", None, "", 0j, float("nan"), 1, True, 2.5)
    checked = 0
    for x in values:
        for y in values:
            for v in ([x, y, 0, 3], [0, x, 1, y], {0: x, 2: y}, {1: 0, 3: x}):
                assert outcome(el._as_sparse, v) == outcome(dense.as_sparse, v), (x, y, v)
                checked += 1
    assert checked == 4 * len(values) ** 2
