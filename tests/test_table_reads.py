"""Admission's checks on the products, against the product oracles.

Admission's idempotent and Peirce-block checks multiply out every product,
apart from one read: when each idempotent is a basis vector, as vertex
idempotents are, `orthogonal_idempotents` reads their products off the
structure constants.  Their products also serve a construction's unit
check and give each arrow's Peirce block, which the splitting reads.  The
quotient table combines every entry over the projection's columns.  Each
test here compares one of them with the product path kept in
`dense_oracle`, on corpus inputs and on inputs mutated to fail, in Q, F2,
F5 and F101, and one counts the products a construction op makes.  Raw
sparse tables are refused when malformed and
stored in the canonical form, with every value read through the field, and
the counit, `check_sim_n` and `factor_delta` at the size bound and `check
adjunction` at dim 126 finish in bounded CPU time; `check_sim_n` makes one
membership test per generator at every level.
"""

import random
import sys
import time
from fractions import Fraction

import pytest

import quivkit as qk
import quivkit.algebra as alg
import quivkit.cli as cli
import quivkit.dsl as dsl
import quivkit.exactlin as el
from quivkit.adjunction import factor_delta, psi
from quivkit.algebra import _quotient_table, _verify_presentation, orthogonal_idempotents, table_algebra
from quivkit.errors import QuivkitError
from quivkit.generators import random_identity_class_automorphism
from quivkit.vquiver import identity_vqmap

import dense_oracle as dense
from dense_oracle import vec_add
from corpus import (
    algebra_corpus,
    in_changed_basis,
    lower_triangular,
    two_vq,
    upper_triangular,
)
from support import is_identity
from test_algebra import _unit_mutants
from test_certificates import _presented_cases
from test_sparse_echelon import (_changed_basis_cases, _corpus_path_algebras, _monomial_cases,
                                 _top_layer_quotients)

QQ, F2, F5, F101 = el.QQ, el.GF(2), el.GF(5), el.GF(101)
FIELDS = (QQ, F2, F5, F101)


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except QuivkitError as exc:
        return exc.code, exc.message


def _canonical(vec):
    return tuple(sorted(el.sparse(vec).items()))


def _rebased(a, cols):
    """a's table in the basis `cols` (dense elements of a), canonical, and
    the map from a's sparse elements to their new sparse coordinates."""
    to_new = el.invert(el.Mat.from_cols(a.field, cols, rows=a.dim))
    table = [[_canonical(to_new.matvec(a.mul(x, y))) for y in cols] for x in cols]
    return table, lambda v: el.sparse(to_new.matvec(el.dense(a.field, a.dim, v)))


def _shifted_basis(a, k, m):
    """The basis of a with b_k replaced by b_k + b_m."""
    cols = [a.basis_vector(i) for i in range(a.dim)]
    cols[k] = vec_add(a.field, cols[k], cols[m])
    return cols


def _unitriangular_basis(a):
    """c_k = b_k + sum over i < k of n_ik b_i, seeded, as in `in_changed_basis`."""
    f, rng = a.field, random.Random(f"table-reads-{a.dim}")
    return [[f.one if i == k else f.of(rng.randint(1, 3)) if i < k else f.zero
             for i in range(a.dim)] for k in range(a.dim)]


# -- presentations: (name, table, unit, idempotents, arrows, radical), sparse ---

def _as_is(name, a):
    return (name, a.structconst, a.unit, list(a.ss_classes), list(a.arrows), a.radical)


def _in_basis(name, a, cols, idems=None, arrows=None):
    """a's presentation in the basis `cols`; `idems` and `arrows`, sparse in
    the new basis, replace a's generators when given."""
    sc, to_new = _rebased(a, cols)
    radical = el.Subspace.span(a.field, a.dim, [to_new(r) for r in a.radical.rows.values()])
    return (name, sc, to_new(a.unit), idems or [to_new(e) for e in a.ss_classes],
            arrows or [to_new(x) for x in a.arrows], radical)


def _presentations(field):
    """Every corpus path algebra and quotient as admitted; each path algebra
    in a unitriangular basis, where no generator is one basis vector; and in
    two bases that keep the generators one-term but break the presentation:
    b_t + x for the idempotent at x's end, which is idempotent and meets the
    idempotent at x's start on one side only, and x + y for arrows x and y in
    different Peirce blocks, one basis vector in two blocks."""
    out = []
    for name, t in _corpus_path_algebras(field):
        a = t.carrier
        out.append(_as_is(name, a))
        out += [_as_is(f"{name}_mod_{kind}", q) for kind, q in _top_layer_quotients(t)]
        out.append(_in_basis(f"{name}_unitriangular", a, _unitriangular_basis(a)))
        arrows = [(lab, s, e) for (s, e), labs in t.vq.spaces.items() for lab in labs]
        one = field.one
        vertices = [{t.vertex_idem[v]: one} for v in t.vq.vertices]
        for lab, s, e in arrows:
            if s != e:
                k, m = t.vertex_idem[e], t.arrow_index[lab]
                out.append(_in_basis(f"{name}_e{e}+{lab}", a, _shifted_basis(a, k, m),
                                     idems=vertices))
                break
        for (lx, sx, ex), (ly, sy, ey) in zip(arrows, arrows[1:]):
            if (sx, ex) != (sy, ey):
                k, m = t.arrow_index[lx], t.arrow_index[ly]
                rest = [{i: one} for i in t.grading[1] if i != k]
                out.append(_in_basis(f"{name}_{lx}+{ly}", a, _shifted_basis(a, k, m),
                                     arrows=[{k: one}] + rest))
                break
    out += [_as_is(name, a) for name, a, _j, how in _presented_cases(field) if how]
    return out


def _mutants(field, idems, arrows):
    """(kind, idempotents, arrows): the presentation, and the presentation
    mutated to fail each check."""
    out = [("as is", idems, arrows), ("reversed", idems[::-1], arrows)]
    if arrows:
        out.append(("arrow as idempotent", [arrows[0]] + idems[1:], arrows))
    if field.char != 2:
        two = field.of(2)
        out.append(("coefficient 2", [{k: field.mul(two, c) for k, c in idems[0].items()}]
                    + idems[1:], arrows))
    if len(idems) > 1:
        out.append(("one dropped", idems[:-1], arrows))
        out.append(("two merged", [el.add_scaled(field, dict(idems[0]), field.one, idems[1])]
                    + idems[2:], arrows))
    if len(arrows) > 1:
        both = el.add_scaled(field, dict(arrows[0]), field.one, arrows[-1])
        out.append(("first plus last arrow", idems, arrows + [both]))
    if idems:
        out.append(("idempotent as arrow", idems, arrows + [idems[0]]))
    return out


def _sides(field, sc, idems, message):
    """(e_j e_i != 0, e_i e_j != 0) for the pair a "not orthogonal" message names."""
    j, i = (int(w) for w in message.replace(" and", "").split() if w.isdigit())
    ei, ej = idems[i], idems[j]
    return bool(alg._mul_raw(field, sc, ej, ei)), bool(alg._mul_raw(field, sc, ei, ej))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_presentation_checks_match_the_product_oracle(field):
    seen = set()
    for name, sc, unit, idems, arrows, _j in _presentations(field):
        for kind, es, xs in _mutants(field, idems, arrows):
            names = [f"class {i}" for i in range(len(es))]
            ref = _outcome(dense.orthogonal, field, sc, unit, es, "NOT_POINTED", names)
            assert _outcome(orthogonal_idempotents, field, sc, unit, es, "NOT_POINTED", names) == ref, \
                (name, kind)
            # the count against the product oracle, the blocks against theirs
            ref = _outcome(dense.verify_presentation, field, sc, unit, es, xs)
            got = _outcome(_verify_presentation, field, sc, unit, es, xs)
            if ref[0] == "ok":
                assert got == ("ok", (ref[1], dense.arrow_blocks(field, sc, es, xs))), (name, kind)
            else:
                assert got == ref, (name, kind)
            one_term = all(len(e) == 1 and field.one in e.values() for e in es)
            what = ref[0] if ref[0] == "ok" else ref[1].split(" ", 2)[-1]
            if what.endswith("are not orthogonal"):
                what = _sides(field, sc, es, ref[1])
            seen.add((one_term, what))
    # each idempotent check failed first on the table read and on the
    # products, the Peirce-block check failed first, and two one-term
    # idempotents met on the left only and on the right only
    for one_term in (True, False):
        assert {(one_term, w) for w in ("ok", "is not idempotent", "do not sum to 1")} <= seen
    assert any(w == "does not lie in one Peirce block" for _t, w in seen)
    assert {(True, (True, False)), (True, (False, True))} <= seen


def _null_summand(field, sc, unit, radical, idems, arrows):
    """The presentation on A + k n, where n n = 0 and n kills A on both
    sides, with the arrow x + n added for the first arrow x: each class and
    each arrow passes the idempotent and Peirce-block counts and the words
    span the radical, but u (x + n) = x."""
    n = len(sc)
    table = [list(row) + [()] for row in sc] + [[()] * (n + 1)]
    radical = el.Subspace.span(field, n + 1, list(radical.rows.values()) + [{n: field.one}])
    return table, unit, radical, idems, arrows + [{**arrows[0], n: field.one}]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_presented_unit_check_matches_the_generator_first_oracle(field):
    # presented_algebra reads "u fixes G" off the presentation checks and
    # names a unit failure before any other, as checking u on G first did;
    # the cases: each unit mutant, each generator mutant with the unit and
    # with the sum of its idempotents as unit, and a null summand
    seen, null = set(), 0
    for name, sc, unit, idems, arrows, j in _presentations(field):
        if field == QQ and name.endswith("TWO_unitriangular"):
            continue  # 0.3 s an admission, for its growing fractions; F_p runs it
        dim = len(sc)
        cases = [(f"unit {k}", sc, el.sparse(u), j, idems, arrows)
                 for k, u in enumerate(_unit_mutants(field, el.dense(field, dim, unit)))]
        for kind, es, xs in _mutants(field, idems, arrows):
            total = {}
            for e in es:
                el.add_scaled(field, total, field.one, e)
            cases += [(kind, sc, unit, j, es, xs), (f"{kind}, their sum as unit", sc, total, j, es, xs)]
        if arrows:
            cases.append(("null summand", *_null_summand(field, sc, unit, j, idems, arrows)))
        done = []
        for kind, table, *args in cases:
            if (table, args) in done:
                continue
            done.append((table, args))
            labels = [f"b{i}" for i in range(len(table))]
            ref = _outcome(dense.presented_algebra, field, labels, table, *args)
            got = _outcome(alg.presented_algebra, field, labels, table, *args)
            if ref[0] == "ok":
                assert got[0] == "ok" and got[1].same_as(ref[1]), (name, kind)
                assert got[1].arrow_blocks == ref[1].arrow_blocks, (name, kind)
            else:
                assert got == ref, (name, kind)
            seen.add(ref[0])
            null += kind == "null summand" and ref[0] == "UNIT_FAIL"
    assert {"ok", "UNIT_FAIL", "NOT_POINTED", "BIMODULE_CONDITION_FAIL"} <= seen
    assert null >= 20


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_arrow_blocks_are_the_blocks_the_products_find(field):
    # on corpus path algebras and quotients and on raw tables in a changed
    # basis; conjugation by 1 + w keeps each block, so a conjugated
    # splitting reads them too
    rng = random.Random(f"arrow-blocks-{field!r}")
    cases = [(name, a) for name, a, _j, _how in _presented_cases(field)] + _monomial_cases(field)
    cases += [(name, b) for name, _a, b in _changed_basis_cases() if b.field == field]
    conjugated = 0
    for name, a in cases:
        f, sc = a.field, a.structconst
        assert a.arrow_blocks == dense.arrow_blocks(f, sc, a.ss_classes, a.arrows), name
        w = {}
        for row in a.radical.rows.values():
            el.add_scaled(f, w, f.of(rng.randint(0, 2)), row)
        conj = qk.splittings.conjugation(a, w)
        es = list(map(conj, a.ss_classes))
        assert dense.arrow_blocks(f, sc, es, list(map(conj, a.arrows))) == a.arrow_blocks, name
        blocks = qk.make_splitting(a, conjugate_by=w).blocks
        assert all(alg._mul_raw(f, sc, es[j], alg._mul_raw(f, sc, x, es[i])) == x
                   for (i, j), xs in blocks.items() for x in xs), name
        conjugated += bool(w) and es != a.ss_classes
    assert len(cases) >= 40 and conjugated >= 10


def _count_calls(monkeypatch, *names):
    """Count calls of the `quivkit.algebra` functions `names` from every
    quivkit module that holds them."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(alg, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("quivkit") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_each_generator_fact_is_proved_once(monkeypatch):
    # TWO at level 3 over F5 (dim 14) modulo two top-layer relations, as a
    # construction op runs it.  Admission's products serve the unit check,
    # the arrows' Peirce blocks that the splitting reads, and the quotient
    # takes its ideal as closed: 16 products to build, none for gq, 16 to
    # admit the quotient and no closure scan.  A cold run also builds the
    # counit's source (16 more); a warm one reads both path algebras from
    # build_kvq's memo
    counts = _count_calls(monkeypatch, "_mul_raw", "_closed_under")

    def run():
        steps = {}

        def step(label, call, *args):
            counts.update(dict.fromkeys(counts, 0))
            out = call(*args)
            steps[label] = (counts["_mul_raw"], counts["_closed_under"])
            return out

        a = step("build", qk.build_kvq, F5, two_vq(), 3).carrier
        step("gq", qk.gq, a)
        rels = [el.dense(F5, a.dim, {a._label_index["ax"]: 1}),
                el.dense(F5, a.dim, {a._label_index["ca"]: 2, a._label_index["cb"]: 3})]
        ideal = step("ideal", qk.ideal_generated_by, a, rels)
        q = step("quotient", qk.quotient_algebra, a, ideal)[0]
        step("gq of the quotient", qk.gq, q)
        step("counit", qk.counit, q)
        return steps

    assert run() == {"build": (16, 0), "gq": (0, 0), "ideal": (24, 0), "quotient": (16, 0),
                     "gq of the quotient": (0, 0), "counit": (32, 0)}
    assert run() == {"build": (0, 0), "gq": (0, 0), "ideal": (24, 0), "quotient": (16, 0),
                     "gq of the quotient": (0, 0), "counit": (16, 0)}


# -- quotient tables -------------------------------------------------------------

def _block_sums(t):
    """For each Peirce block and length holding two or more paths, the sum of
    those paths: its ideal's projection columns have several terms."""
    a, f = t.carrier, t.field
    groups = {}
    for i, p in enumerate(t.paths):
        if p.length:
            groups.setdefault((p.start, p.end, p.length), []).append(i)
    return [el.dense(f, a.dim, {i: f.one for i in ps}) for ps in groups.values() if len(ps) > 1]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_quotient_table_matches_the_combined_table(field):
    cases = [(name, parent, ideal) for name, _a, _j, how in _presented_cases(field) if how
             for parent, ideal, _pi in [how]]
    for name, t in _corpus_path_algebras(field):
        a = t.carrier
        gens = [[a.basis_vector(t.grading[-1][0])]] if len(t.grading) > 1 else []
        gens += [[v] for v in _block_sums(t)]
        for k, vs in enumerate(gens):
            ideal = qk.ideal_generated_by(a, vs)
            if ideal.dim < a.dim:
                cases.append((f"{name}_{k}", a, ideal))
    several = 0
    for name, a, ideal in cases:
        idx, table, cols = _quotient_table(field, a.structconst, ideal.space)
        ref_idx, ref_table, _proj, ref_cols = dense.quotient_table(field, a.structconst,
                                                                   ideal.space)
        assert (idx, table, cols) == (ref_idx, ref_table, ref_cols), name
        several += any(len(c) > 1 for c in cols)
    assert len(cases) >= 40 and several >= 5


# -- the counit ------------------------------------------------------------------

def _counit_cases():
    """Corpus algebras and raw tables, each at its own level and one above."""
    tables = [("upper3", upper_triangular(QQ, 3, shuffle=True)),
              ("upper4_f101", upper_triangular(F101, 4, shuffle=True)),
              ("lower_f5", lower_triangular(F5))]
    tables += [(name, b) for name, _a, b in _changed_basis_cases()]
    return [(name, a, level) for name, a in algebra_corpus() + tables
            for level in (None, max(2, a.truncation_level) + 1)]


def test_counit_is_psi_of_the_identity_with_its_kernel():
    nonzero = 0
    for name, a, level in _counit_cases():
        cu = qk.counit(a, level=level)
        g, t = cu.gq_result, cu.source_algebra
        assert cu.morphism == psi(t, identity_vqmap(g.vquiver, a.field), g), name
        assert cu.kernel_ideal.space == el.kernel(cu.morphism.matrix), name
        nonzero += cu.kernel_ideal.dim > 0
    assert nonzero >= 8


def test_counit_at_the_size_bound_finishes_in_bounded_cpu_time():
    # TWO at level 7 has 254 paths, the largest build_kvq admits; the three
    # steps took 0.008-0.015 s of CPU time over F5 (medians of 5 runs in 3
    # processes: 0.009-0.013 s) on a 2-core x86-64 VM, so 3x the median is
    # under the 0.1 s floor the deadline keeps
    start = time.process_time()
    a = qk.build_kvq(F5, two_vq(), 7).carrier
    qk.gq(a)
    cu = qk.counit(a)
    assert time.process_time() - start < 0.1
    assert a.dim == 254 and cu.morphism.surjective


def _size_bound_automorphism():
    t = qk.build_kvq(F5, two_vq(), 7)
    return t, random_identity_class_automorphism(random.Random("size-bound"), t)


def test_sim1_at_the_size_bound_finishes_in_bounded_cpu_time():
    # 0.004 s of CPU time (medians of 5 runs in 3 processes) on a 2-core
    # x86-64 VM, so 3x the median is under the 0.1 s floor; the dense
    # difference took 0.53 s
    t, aut = _size_bound_automorphism()
    ident = qk.identity_morphism(t.carrier)
    start = time.process_time()
    congruent = qk.check_sim_n(aut, ident, 1)
    assert time.process_time() - start < 0.1
    assert congruent and t.dim == 254


def test_sim_n_makes_one_membership_test_per_generator(monkeypatch):
    # ~n is decided on the 2 idempotents and 4 arrows at every level
    t, aut = _size_bound_automorphism()
    ident = qk.identity_morphism(t.carrier)
    calls, contains = [], el.Subspace.contains

    def counted(self, v):
        calls.append(v)
        return contains(self, v)

    monkeypatch.setattr(el.Subspace, "contains", counted)
    for n in (0, 1, 2, 6, 10 ** 8):
        calls.clear()
        assert qk.check_sim_n(aut, ident, n)
        assert len(calls) == len(t.carrier.generators()) == 6, n


def test_adjunction_at_dim_126_finishes_in_bounded_cpu_time():
    # 0.18-0.21 s of CPU time (medians of 5 to 7 runs in 4 processes) on a
    # 2-core x86-64 VM, so the deadline is 3x that; the check's k[[TWO]] is
    # built cold, not read from the memo entry that parsing A left
    doc = dsl.parse("field F5;\n"
                    "vquiver TWO { vertices: 1, 2; space 1 -> 1 = [x];\n"
                    "  space 1 -> 2 = [a, b]; space 2 -> 1 = [c]; }\n"
                    "algebra A = kvq(TWO, level=6);\ncheck adjunction(TWO, A);\n")
    qk.pathalg._KVQ_MEMO.clear()
    start = time.process_time()
    result = cli._run_check(doc, doc.checks[0], random.Random("adjunction-126"))
    assert time.process_time() - start < 0.6
    assert doc.algebras["A"].algebra.dim == 126
    assert result["pass"] and result["psi_phi_samples"] == 25


def test_factor_delta_at_the_size_bound_finishes_in_bounded_cpu_time():
    # 0.137-0.142 s of CPU time (medians of 5 runs in 3 processes) on a
    # 2-core x86-64 VM, so the deadline is 3x that; dense products took 2.4 s
    t, aut = _size_bound_automorphism()
    ident = qk.identity_morphism(t.carrier)
    start = time.process_time()
    delta = factor_delta(t, aut, ident)
    assert time.process_time() - start < 0.42
    assert delta == aut


# -- malformed raw tables --------------------------------------------------------

def _one_arrow_table():
    a = qk.build_kvq(F5, qk.VQuiver(["1", "2"], {("1", "2"): ["x"]}), 2).carrier
    return a, [list(row) for row in a.structconst]


@pytest.mark.parametrize("case, message", [
    ("missing row", "the table has 2 rows, expected 3"),
    ("short row", "table row 1 has 2 entries, expected 3"),
    ("index too large", "entry (0, 0) names basis index 3, outside 0..2"),
    ("negative index", "entry (0, 0) names basis index -1, outside 0..2"),
    ("repeated index", "entry (0, 0) names basis index 0 twice"),
])
def test_malformed_tables_are_bad_shape(case, message):
    a, sc = _one_arrow_table()
    if case == "missing row":
        sc = sc[:-1]
    elif case == "short row":
        sc[1] = sc[1][:-1]
    else:
        sc[0][0] = {"index too large": ((3, 1),), "negative index": ((-1, 1),),
                    "repeated index": ((0, 3), (0, 3))}[case]
    with pytest.raises(QuivkitError) as exc:
        table_algebra(F5, a.basis_labels, sc, a.unit)
    assert (exc.value.code, exc.value.message) == ("BAD_SHAPE", message)


def test_tables_are_stored_canonically():
    # the changed-basis table has entries of several terms: write each in
    # descending index order, behind an explicit zero term where an index is
    # free for it
    a = qk.build_kvq(F5, qk.VQuiver(["1", "2"], {("1", "2"): ["x"]}), 2).carrier
    labels, dense_table, unit = in_changed_basis(a)
    canon = qk.validate_algebra(F5, labels, dense_table, unit)
    assert any(len(terms) > 1 for row in canon.structconst for terms in row)

    def scrambled(terms):
        free = set(range(len(labels))) - {m for m, _c in terms}
        return tuple((m, 0) for m in sorted(free)[:1]) + tuple(reversed(terms))

    sc = [[scrambled(terms) for terms in row] for row in canon.structconst]
    assert any(c == 0 for row in sc for terms in row for _m, c in terms)
    b = table_algebra(F5, labels, sc, canon.unit)
    assert b.same_as(canon) and b.structconst == canon.structconst


def test_table_values_are_read_through_the_field():
    # over F5, 6 and -4 are 1 and a coefficient 5 is no term at all
    a, sc = _one_arrow_table()
    lifted = [[tuple((m, c + 5 if k % 2 else c - 5) for m, c in terms) for terms in row]
              for k, row in enumerate(sc)]
    lifted[0][1] += ((2, 5),)
    b = table_algebra(F5, a.basis_labels, lifted, [c + 5 for c in el.dense(F5, a.dim, a.unit)])
    assert any(c == 6 for row in lifted for terms in row for _m, c in terms)
    assert any(c == -4 for row in lifted for terms in row for _m, c in terms)
    assert b.same_as(a) and b.structconst == a.structconst and b.unit == a.unit
    dense_table = [[el.dense(F5, a.dim, dict(terms)) for terms in row] for row in sc]
    assert qk.validate_algebra(F5, a.basis_labels, dense_table, a.unit).same_as(a)


@pytest.mark.parametrize("case, message", [
    ("sparse", "entry (0, 1) at index 2 is Fraction(1, 5), not a value of F5"),
    ("dense", "entry (0, 1) at index 2 is Fraction(1, 5), not a value of F5"),
    ("unit", "unit entry 1 is Fraction(1, 5), not a value of F5"),
    ("text", "entry (0, 1) at index 2 is 'x', not a value of F5"),
])
def test_values_outside_the_field_are_bad_argument(case, message):
    a, sc = _one_arrow_table()
    bad = "x" if case == "text" else Fraction(1, 5)
    unit = el.dense(F5, a.dim, a.unit)
    if case == "unit":
        unit[1] = bad
    else:
        sc[0][1] = ((2, bad),)
    with pytest.raises(QuivkitError) as exc:
        if case == "dense":
            dense_table = [[el.dense(F5, a.dim, dict(terms)) for terms in row] for row in sc]
            qk.validate_algebra(F5, a.basis_labels, dense_table, unit)
        else:
            table_algebra(F5, a.basis_labels, sc, unit)
    assert (exc.value.code, exc.value.message) == ("BAD_ARGUMENT", message)


def test_morphism_matrices_are_read_through_the_field():
    a = _one_arrow_table()[0]
    ident = qk.identity_morphism(a)
    m = el.Mat.identity(F5, a.dim)
    m.data[1][1], m.data[0][2] = 6, 5
    f = qk.validate_morphism(a, a, m)
    assert f == ident and is_identity(f) and f.matrix == ident.matrix
    m.data[2][0] = Fraction(1, 5)
    with pytest.raises(QuivkitError) as exc:
        qk.validate_morphism(a, a, m)
    assert (exc.value.code, exc.value.message) == (
        "BAD_ARGUMENT", "matrix entry (2, 0) is Fraction(1, 5), not a value of F5")
