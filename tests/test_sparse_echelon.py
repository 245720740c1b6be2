"""The sparse echelon of `Subspace` against the dense forms it replaced.

Every subspace operation must give the same pivots and equal values as the
dense `rref` reference in `dense_oracle`, over Q (with non-integral
values), F2, F5 and F101, on lists that may be empty and may hold zero and
repeated vectors.  The radical filtration, grown in one echelon, must equal
the layer-by-layer spans and sums on corpus algebras, quotients and raw
tables.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

import quivkit as qk
import quivkit.exactlin as el
from quivkit.algebra import _radical_filtration

import dense_oracle as dense
from corpus import algebra_corpus, upper_triangular
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
            vecs.append(el.vec_zero(field, n))
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
    for v in ws + vs + [el.vec_zero(field, n)]:
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
    assert _span(field, n, []) == zero == _span(field, n, [el.vec_zero(field, n)])
    assert hash(_span(field, n, [])) == hash(zero)
    assert el.kernel(el.Mat.identity(field, n)) == zero
    assert el.kernel(el.Mat.zeros(field, 1, n)) == full
    same_rref = dense.echelon(field, n, vs) == dense.echelon(field, n, ws)
    assert (u == _span(field, n, ws)) == same_rref


# -- the radical filtration in one echelon -------------------------------------------

def _filtration_cases():
    out = [(name, a) for name, a in algebra_corpus()]
    for field in (QQ, F2, F5, F101):
        out += [(f"{name}_{field!r}", a) for name, a, _j, _how in _presented_cases(field)]
    for field in (QQ, F101):
        out += [(f"T{n}_{field!r}", upper_triangular(field, n, shuffle=True)) for n in (3, 4, 5)]
    return out


def test_radical_filtration_matches_the_layer_by_layer_spans():
    cases = _filtration_cases()
    for name, a in cases:
        f, sc = a.field, a.structconst
        ref = dense.radical_filtration(f, a.dim, sc, a.arrows)
        assert [dense.form(s) for s in a.radical_filtration] == ref, name
        # each layer holds its own rows, not the echelon's later state
        assert a.radical_filtration == [el.Subspace.span(f, a.dim, rows) for rows, _p in ref], name
        # from another set of words spanning J: its own basis
        again = _radical_filtration(f, a.dim, sc, list(a.radical.rows.values()))
        assert [dense.form(s) for s in again] == \
            dense.radical_filtration(f, a.dim, sc, a.radical.basis), name
    quotients = [name for name, _a in cases if "_mod_" in name]
    assert len(cases) >= 60 and len(quotients) >= 30


def test_non_nilpotent_words_are_refused_as_before():
    a = qk.build_kvq(QQ, qk.VQuiver(["1"], {("1", "1"): ["x"]}), 3).carrier
    with pytest.raises(qk.QuivkitError) as exc:
        _radical_filtration(QQ, a.dim, a.structconst, [el.sparse(a.unit)])
    assert exc.value.code == "RADICAL_NOT_NILPOTENT"
