"""The sparse echelon of `Subspace` against the dense forms it replaced.

Every subspace operation, and `rref`, `rank`, `solve_multi`, `invert` and
`kernel`, must give the same pivots and equal values as the dense pivot
loop in `dense_oracle`, over Q (with non-integral values), F2, F5 and F101,
on lists that may be empty and may hold zero and repeated vectors.  The
radical filtration, grown in one echelon, must equal the layer-by-layer
spans and sums on corpus algebras, quotients and raw tables.  Its walk on
basis indices must equal that echelon walk level for level, be the one
taken for path algebras and their quotients by top-layer elements, and
hand over to the echelon walk when a word is not one basis path.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

import quivkit as qk
import quivkit.algebra as alg
import quivkit.exactlin as el
from quivkit.algebra import _echelon_filtration, _radical_filtration, table_algebra
from quivkit.vquiver import Quiver

import dense_oracle as dense
from dense_oracle import vec_add, vec_scale
from corpus import (
    algebra_corpus,
    double_loop_vq,
    in_changed_basis,
    line_vq,
    lower_triangular,
    triangle_mod_cb,
    triangle_vq,
    two_vq,
    upper_triangular,
    vq_corpus,
)
from test_certificates import _presented_cases

QQ, F2, F5, F101 = el.QQ, el.GF(2), el.GF(5), el.GF(101)
FIELDS = (QQ, F2, F5, F101)


def _scalars(field):
    if field.char == 0:
        return st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3])) \
            .map(QQ.of)
    # about half zeros, so that vectors are sparse
    return st.one_of(st.just(0), st.integers(0, field.char - 1))


@st.composite
def vector_lists(draw, count=2):
    """(field, n, [vectors] * count): each list may be empty and may hold a
    zero vector and repeats of its own vectors."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 7))
    vec = st.lists(_scalars(field), min_size=n, max_size=n)
    lists = []
    for _ in range(count):
        vecs = draw(st.lists(vec, max_size=6))
        if vecs:
            vecs += draw(st.lists(st.sampled_from(vecs), max_size=2))
        if draw(st.booleans()):
            vecs.append(dense.vec_zero(field, n))
        lists.append(draw(st.permutations(vecs)))
    return field, n, lists


def _span(field, n, vecs):
    return el.Subspace.span(field, n, vecs)


@seed(1701)
@settings(max_examples=80, deadline=None)
@given(vector_lists())
def test_span_and_sum_match_the_dense_rref(case):
    field, n, (vs, ws) = case
    u, w = _span(field, n, vs), _span(field, n, ws)
    assert dense.form(u) == dense.echelon(field, n, vs)
    assert dense.form(u.sum(w)) == dense.form(w.sum(u)) == dense.echelon(field, n, vs + ws)
    # sparse input spans the same rows
    assert dense.form(_span(field, n, [el.sparse(v) for v in vs])) == dense.form(u)


@seed(1702)
@settings(max_examples=80, deadline=None)
@given(vector_lists())
def test_reduce_and_contains_match_the_dense_elimination(case):
    field, n, (vs, ws) = case
    u = _span(field, n, vs)
    rows, piv = dense.echelon(field, n, vs)
    for v in ws + vs + [dense.vec_zero(field, n)]:
        rem = dense.eliminate(field, rows, piv, v)
        assert u.reduce(v) == rem
        assert u.reduce(el.sparse(v)) == el.sparse(rem)
        assert u.contains(v) == u.contains(el.sparse(v)) == (not any(rem))
    for v in vs:
        assert u.contains(v)
    assert u.contains_subspace(u) and u.sum(_span(field, n, ws)).contains_subspace(u)


@seed(1703)
@settings(max_examples=80, deadline=None)
@given(vector_lists())
def test_complement_and_quotient_basis_match_the_dense_forms(case):
    field, n, (vs, ws) = case
    sub = _span(field, n, ws)
    for ambient in (_span(field, n, vs + ws), el.Subspace.full(field, n)):
        amb, sb = dense.form(ambient), dense.form(sub)
        assert dense.form(el.complement(ambient, sub)) == dense.complement(field, n, amb, sb)
        reps, proj = el.quotient_basis(ambient, sub)
        ref_reps, ref_proj = dense.quotient_basis(field, n, amb, sb)
        assert reps == ref_reps
        assert proj.rows == len(reps) and proj.cols == n and proj.data == ref_proj


@seed(1704)
@settings(max_examples=60, deadline=None)
@given(vector_lists())
def test_equal_subspaces_are_equal_and_hash_alike(case):
    field, n, (vs, ws) = case
    u = _span(field, n, vs)
    same = [_span(field, n, vs[::-1]), _span(field, n, u.basis),
            u.sum(el.Subspace.zero(field, n)), el.Subspace.zero(field, n).sum(u),
            _span(field, n, [el.sparse(v) for v in vs]),
            u.sum(_span(field, n, vs[: len(vs) // 2]))]
    if vs:
        # the solutions of m x = 0 for m whose rows span u's annihilator
        ann = el.kernel(el.Mat.from_rows(field, vs, cols=n))
        same.append(el.kernel(el.Mat.from_rows(field, ann.basis, cols=n))
                    if ann.dim else el.Subspace.full(field, n))
    for other in same:
        assert other == u and hash(other) == hash(u)
    full, zero = el.Subspace.full(field, n), el.Subspace.zero(field, n)
    units = [el.vec_unit(field, n, i) for i in range(n)]
    assert _span(field, n, units[::-1]) == full and hash(_span(field, n, units)) == hash(full)
    assert _span(field, n, []) == zero == _span(field, n, [dense.vec_zero(field, n)])
    assert hash(_span(field, n, [])) == hash(zero)
    assert el.kernel(el.Mat.identity(field, n)) == zero
    assert el.kernel(el.Mat.zeros(field, 1, n)) == full
    same_rref = dense.echelon(field, n, vs) == dense.echelon(field, n, ws)
    assert (u == _span(field, n, ws)) == same_rref


def _vector(field, n):
    return st.lists(_scalars(field), min_size=n, max_size=n)


@st.composite
def matrices(draw):
    """(field, m): 0 to 6 columns and 0 to 7 rows, wide, square or tall,
    and often rank-deficient, with a row that combines two others."""
    field = draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    data = draw(st.lists(_vector(field, cols), min_size=rows, max_size=rows))
    if data and draw(st.booleans()):
        u, w = draw(st.sampled_from(data)), draw(st.sampled_from(data))
        row = vec_add(field, u, vec_scale(field, draw(_scalars(field)), w))
        data.insert(draw(st.integers(0, len(data))), row)
    return field, el.Mat(field, len(data), cols, data)


@seed(1705)
@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_matrix_functions_match_the_dense_pivot_loop(case, data):
    field, m = case
    red, piv = dense.rref(m)
    assert el.rref(m) == (red, piv)
    assert el.rank(m) == len(piv)
    assert dense.form(el.kernel(m)) == dense.echelon(field, m.cols, dense.kernel(m))
    # images m x are consistent; free vectors are often not
    bs = [m.matvec(x) for x in data.draw(st.lists(_vector(field, m.cols), max_size=3))]
    bs += data.draw(st.lists(_vector(field, m.rows), max_size=3)) + [dense.vec_zero(field, m.rows)]
    bs = data.draw(st.permutations(bs))
    assert el.solve_multi(m, bs) == dense.solve_multi(m, bs)
    assert el.solve(m, bs[0]) == dense.solve_multi(m, bs[:1])[0]
    if m.rows != m.cols:
        with pytest.raises(qk.QuivkitError) as exc:
            el.invert(m)
        assert exc.value.code == "BAD_SHAPE"
        return
    try:
        ref = dense.invert(m)
    except qk.QuivkitError as ref_exc:
        assert ref_exc.code == "SINGULAR"
        with pytest.raises(qk.QuivkitError) as exc:
            el.invert(m)
        assert exc.value.code == "SINGULAR"
    else:
        assert el.invert(m) == ref


# -- the radical filtration in one echelon -------------------------------------------

def _filtration_cases():
    out = [(name, a) for name, a in algebra_corpus()]
    for field in (QQ, F2, F5, F101):
        out += [(f"{name}_{field!r}", a) for name, a, _j, _how in _presented_cases(field)]
    for field in (QQ, F101):
        out += [(f"T{n}_{field!r}", upper_triangular(field, n, shuffle=True)) for n in (3, 4, 5)]
    return out


def _spy(monkeypatch):
    """The argument lists of the calls that reach `_echelon_filtration`."""
    calls, real = [], alg._echelon_filtration

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(alg, "_echelon_filtration", spy)
    return calls


def test_radical_filtration_matches_the_layer_by_layer_spans(monkeypatch):
    cases = _filtration_cases()
    calls = _spy(monkeypatch)
    walks = []
    for name, a in cases:
        f, sc = a.field, a.structconst
        ref = dense.radical_filtration(f, a.dim, sc, [el.dense(f, a.dim, x) for x in a.arrows])
        assert [dense.form(s) for s in a.radical_filtration] == ref, name
        # each layer holds its own rows, not the echelon's later state
        assert a.radical_filtration == [el.Subspace.span(f, a.dim, rows) for rows, _p in ref], name
        # from another set of words spanning J: its own basis
        before = len(calls)
        again = _radical_filtration(f, a.dim, sc, list(a.radical.rows.values()))
        walks.append(len(calls) > before)
        assert [dense.form(s) for s in again] == \
            dense.radical_filtration(f, a.dim, sc, a.radical.basis), name
    quotients = [name for name, _a in cases if "_mod_" in name]
    assert len(cases) >= 60 and len(quotients) >= 30
    # both walks were compared with the dense oracle
    assert any(walks) and not all(walks)


# -- the walk on basis indices -------------------------------------------------------

def _corpus_path_algebras(field):
    """(name, TruncatedTensorAlgebra): kvq and cpa of every corpus quiver."""
    out = []
    for name, vq in vq_corpus() + [("double_loop", double_loop_vq()), ("TWO", two_vq())]:
        level = 4 if name in ("loop", "TWO") else 3
        q = Quiver(vq.vertices, [(lab, src, tgt) for (src, tgt), labs in vq.spaces.items()
                                 for lab in labs])
        out += [(f"kvq_{name}", qk.build_kvq(field, vq, level)),
                (f"cpa_{name}", qk.cpa(field, q, level))]
    return out


def _top_layer_quotients(t):
    """t's algebra modulo one path of the top layer, and modulo a combination
    of two top-layer paths in each Peirce block that holds two."""
    a, f = t.carrier, t.field
    if len(t.grading) < 2:
        return []
    blocks = {}
    for p in t.grading[-1]:
        blocks.setdefault((t.paths[p].start, t.paths[p].end), []).append(p)
    combos = [el.add_scaled(f, {ps[0]: f.one}, f.of(3), {ps[1]: f.one})
              for ps in blocks.values() if len(ps) > 1]
    out = []
    for kind, gens in (("path", [{t.grading[-1][0]: f.one}]), ("combos", combos)):
        if gens:
            ideal = qk.ideal_generated_by(a, [el.dense(f, a.dim, g) for g in gens])
            out.append((kind, qk.quotient_algebra(a, ideal)[0]))
    return out


def _monomial_cases(field):
    """(name, algebra): the corpus path algebras and their top-layer quotients."""
    out = []
    for name, t in _corpus_path_algebras(field):
        out.append((name, t.carrier))
        out += [(f"{name}_mod_{kind}", q) for kind, q in _top_layer_quotients(t)]
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_path_algebras_and_top_layer_quotients_take_the_index_walk(field, monkeypatch):
    calls = _spy(monkeypatch)
    cases = _monomial_cases(field)
    # every admission of the construction ran the index walk to its end
    assert calls == []
    for name, a in cases:
        words = list(a.arrows)
        walk = _radical_filtration(field, a.dim, a.structconst, words)
        assert calls == [], name
        assert walk == a.radical_filtration == \
            _echelon_filtration(field, a.dim, a.structconst, words), name
    assert sum("_mod_combos" in name for name, _a in cases) >= 8
    assert sum("_mod_path" in name for name, _a in cases) >= 10


def _changed_basis_cases():
    """(name, algebra, its raw table in a changed basis, admitted)."""
    out = []
    for field in (QQ, F101):
        for name, a in (("line", qk.build_kvq(field, line_vq(), 3).carrier),
                        ("triangle", qk.build_kvq(field, triangle_vq(), 3).carrier),
                        ("TWO", qk.build_kvq(field, two_vq(), 3).carrier),
                        ("lower_tri", lower_triangular(field)),
                        ("triangle_mod_cb", triangle_mod_cb(field)[2])):
            out.append((f"{name}_changed_{field!r}", a,
                        qk.validate_algebra(field, *in_changed_basis(a))))
    return out


def test_index_walk_matches_the_echelon_walk_level_for_level():
    cases = _filtration_cases() + [c for f in FIELDS for c in _monomial_cases(f)] + \
        [(name, b) for name, _a, b in _changed_basis_cases()]
    for name, a in cases:
        f, sc = a.field, a.structconst
        for words in (list(a.arrows), list(a.radical.rows.values())):
            assert _radical_filtration(f, a.dim, sc, words) == \
                _echelon_filtration(f, a.dim, sc, words), name


def test_a_table_in_a_changed_basis_takes_the_echelon_walk(monkeypatch):
    calls = _spy(monkeypatch)
    for name, a, b in _changed_basis_cases():
        before = len(calls)
        words = list(b.arrows)
        assert b.radical_filtration == _radical_filtration(b.field, b.dim, b.structconst, words)
        assert len(calls) == before + 1, name
        assert [s.dim for s in b.radical_filtration] == [s.dim for s in a.radical_filtration]


@pytest.mark.parametrize("field", (QQ, F101), ids=repr)
def test_an_explicit_zero_term_is_not_a_basis_path(field):
    a = qk.build_kvq(field, line_vq(), 3).carrier
    canon = table_algebra(field, a.basis_labels, a.structconst, a.unit)
    # a product of arrows that is 0, written as the term (e1, 0)
    i = next(iter(a.arrows[0]))
    assert a.structconst[i][i] == ()
    sc = [list(row) for row in a.structconst]
    sc[i][i] = ((0, field.zero),)
    b = table_algebra(field, a.basis_labels, sc, a.unit)
    assert (b.radical_filtration, b.ss_classes, b.arrows, b.unit) == \
        (canon.radical_filtration, canon.ss_classes, canon.arrows, canon.unit)


def test_non_nilpotent_words_are_refused_as_before(monkeypatch):
    calls = _spy(monkeypatch)
    a = qk.build_kvq(QQ, qk.VQuiver(["1"], {("1", "1"): ["x"]}), 3).carrier
    # one-term words: e1 stays e1, and b1 -> b2 -> b1 -> ... never stops
    cycle = [[() for _ in range(3)] for _ in range(3)]
    cycle[1][1], cycle[2][1] = ((2, 1),), ((1, 1),)
    for dim, sc, words in ((a.dim, a.structconst, [dict(a.unit)]), (3, cycle, [{1: 1}])):
        for walk in (_radical_filtration, _echelon_filtration):
            with pytest.raises(qk.QuivkitError) as exc:
                walk(QQ, dim, sc, words)
            assert exc.value.code == "RADICAL_NOT_NILPOTENT"
    assert calls == []
