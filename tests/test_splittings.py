"""Idempotent lifting, splittings, conjugators, orbit decisions."""

import random
from pathlib import Path

import pytest

import quivkit as qk
import quivkit.exactlin as el
from quivkit.adjunction import conjugation_automorphism
from quivkit.algebra import _peirce_blocks, orthogonal_idempotents
from quivkit.dsl import parse
from quivkit.errors import QuivkitError
from quivkit.gabriel import inner_conjugation_witness
from quivkit.generators import random_scalar, seeded_rng
from quivkit.splittings import conjugate_element, conjugating_element, conjugation

from corpus import (
    F2,
    F3,
    F5,
    QQ,
    algebra_corpus,
    lower_triangular,
    perfbench_workloads,
    presented_corpus,
    semisimple,
    triangle_algebra,
    truncated_power_series,
    upper_triangular,
)
import dense_oracle as dense
from dense_oracle import peirce_complements, vec_add
from support import (
    random_identity_class_automorphism,
    random_radical_element,
    random_relation_ideal,
    random_vquiver,
    s_apply,
    splitting_variant,
)
from test_algebra import _dense_table

ROOT = Path(__file__).resolve().parents[1]
F101 = qk.GF(101)
FIELDS = (QQ, F2, F3, F5, F101)


def test_lift_on_product_of_fields():
    a = semisimple(QQ, 2)
    idems = qk.lift_idempotents(a)
    got = sorted(tuple(el.dense(QQ, a.dim, e)) for e in idems.elements)
    assert got == [(QQ.of(0), QQ.of(1)), (QQ.of(1), QQ.of(0))]


def test_lift_on_lower_triangular():
    a = lower_triangular(QQ)
    idems = qk.lift_idempotents(a)
    assert len(idems) == 2
    for e in idems.elements:
        assert el.sparse(a.mul(e, e)) == e


def test_lift_on_local_algebra():
    a = truncated_power_series(QQ, 2).carrier
    idems = qk.lift_idempotents(a)
    assert idems.elements == [a.unit]


def test_lift_invariants_across_corpus():
    for name, a in algebra_corpus():
        idems = qk.lift_idempotents(a)
        assert len(idems) == a.dim - a.radical.dim, name


def test_splitting_reads_the_admitted_idempotents():
    """lift_idempotents reads a.ss_classes without checking them again: the
    splitting's idempotents are the admitted classes, and the checker that
    admission ran counts dim A/J nonzero ones among them."""
    for name, a in algebra_corpus():
        elems = qk.make_splitting(a).idems.elements
        assert elems == a.ss_classes, name
        count = orthogonal_idempotents(a.field, a.structconst, a.unit, elems,
                                       "NOT_VALIDATED", [str(i) for i in range(len(elems))])
        assert count == len(elems) == a.dim - a.radical.dim, name


def test_make_splitting_triangle_blocks():
    t = triangle_algebra()
    split = qk.make_splitting(t.carrier)
    assert split.rank == 3
    # blocks carry a, b, c; the J^2 element cb is not a block representative
    all_vecs = [tuple(el.dense(QQ, t.dim, v)) for vecs in split.blocks.values() for v in vecs]
    a = t.carrier
    assert tuple(a.element("a")) in all_vecs
    assert tuple(a.element("b")) in all_vecs
    assert tuple(a.element("c")) in all_vecs
    assert tuple(a.element("cb")) not in all_vecs


def test_splitting_is_section():
    for name, a in algebra_corpus():
        split = qk.make_splitting(a)
        # s followed by the projection is the identity on A/J coordinates
        for pos, e in enumerate(split.idems.elements):
            coords = [QQ.of(0)] * split.rank if a.field.char == 0 else \
                [a.field.zero] * split.rank
            coords[pos] = a.field.one
            assert s_apply(split, coords) == e
        # t lands in J and complements J^2 blockwise
        j1, j2 = a.radical, a.radical_power(2)
        total = 0
        for vecs in split.blocks.values():
            for v in vecs:
                assert j1.contains(v)
                assert not j2.contains(v)
            total += len(vecs)
        assert total == j1.dim - j2.dim, name


def test_power_series_section_is_canonical():
    t = truncated_power_series(QQ, 4)
    split = qk.make_splitting(t.carrier)
    assert split.blocks[(0, 0)] == [el.sparse(t.carrier.element("x"))]


def test_conjugator_same_splitting_is_valid():
    a = lower_triangular(QQ)
    s1 = qk.make_splitting(a)
    w = qk.conjugator(s1, s1)
    for e in s1.idems.elements:
        assert conjugation(a, w)(e) == e


def test_conjugator_shifted_splitting():
    a = lower_triangular(QQ)
    s1 = qk.make_splitting(a)
    s2 = splitting_variant(a, a.element("E21"))
    w = qk.conjugator(s1, s2)
    assert a.radical.contains(w)
    for e1, e2 in zip(s1.idems.elements, s2.idems.elements):
        assert conjugation(a, w)(e2) == e1


def test_conjugator_on_commutative_local_algebra_is_zero():
    a = truncated_power_series(QQ, 2).carrier
    s1 = qk.make_splitting(a)
    s2 = qk.make_splitting(a)
    assert qk.conjugator(s1, s2) == {}


def test_same_orbit_reflexive():
    a = lower_triangular(QQ)
    e = a.element("E11")
    ok, w = qk.same_orbit(a, e, e)
    assert ok and w == {}


def test_same_orbit_shifted_idempotent():
    a = lower_triangular(QQ)
    e = a.element("E11")
    f = vec_add(QQ, e, a.element("E21"))
    ok, w = qk.same_orbit(a, e, f)
    assert ok
    assert conjugate_element(a, w, e) == f and conjugation(a, w)(el.sparse(e)) == el.sparse(f)


def test_same_orbit_distinct_factors():
    a = semisimple(QQ, 2)
    ok, w = qk.same_orbit(a, a.element("e1"), a.element("e2"))
    assert not ok and w is None


def test_orbit_count_equals_radical_quotient_dim():
    # orbits of a complete family together with conjugated copies
    for name, a in algebra_corpus():
        if a.radical.dim == 0:
            continue
        idems = qk.lift_idempotents(a)
        w = a.radical.basis[0]
        translated = [conjugate_element(a, w, e) for e in idems.elements]
        reps = []
        for e in idems.elements + translated:
            if not any(qk.same_orbit(a, e, r)[0] for r in reps):
                reps.append(e)
        assert len(reps) == a.dim - a.radical.dim, name


def test_orbit_relation_is_symmetric_and_transitive():
    a = triangle_algebra().carrier
    e = a.element("e1")
    f1 = conjugate_element(a, a.element("a"), e)
    f2 = conjugate_element(a, a.element("b"), e)
    assert qk.same_orbit(a, e, f1)[0]
    assert qk.same_orbit(a, f1, e)[0]
    assert qk.same_orbit(a, f1, f2)[0]


def test_perturbed_splitting_still_valid():
    t = triangle_algebra()
    a = t.carrier

    def shift(i, j, k, j2_block):
        if j2_block.dim:
            return list(j2_block.basis[0])
        return None

    split = splitting_variant(a, shift=shift)
    j2 = a.radical_power(2)
    for vecs in split.blocks.values():
        for v in vecs:
            assert a.radical.contains(v)
    assert split.total_block_dim() == a.radical.dim - j2.dim


KRONECKER = qk.build_kvq(QQ, qk.VQuiver(["1", "2"], {("1", "2"): ["a", "b"]}), 3).carrier
LINE = qk.build_kvq(QQ, qk.VQuiver(["1", "2", "3"], {("1", "2"): ["a"], ("2", "3"): ["b"]}),
                    3).carrier
SQUARES = qk.build_kvq(QQ, qk.VQuiver(["1", "2"], {}), 2).carrier


def _arrows(a):
    """make_splitting's blocks, as lists of the caller's own."""
    return {key: list(vecs) for key, vecs in qk.make_splitting(a).blocks.items()}


# (algebra, idempotents, blocks, code, message) that the Splitting constructor refuses
BAD_SPLITTINGS = {
    "idempotents as a list": (
        KRONECKER, lambda a: qk.make_splitting(a).idems.elements, _arrows,
        "BAD_ARGUMENT", "is not an IdempotentSet of the algebra"),
    "idempotents of another algebra": (
        KRONECKER, lambda a: qk.make_splitting(SQUARES).idems, _arrows,
        "BAD_ARGUMENT", "IdempotentSet(r=2) is not an IdempotentSet of the algebra"),
    "a key that is no pair": (
        KRONECKER, None, lambda a: {0: _arrows(a)[(0, 1)]},
        "BAD_SHAPE", "block key 0 is not a pair of idempotent indices 0..1"),
    "a key off the idempotents": (
        KRONECKER, None, lambda a: {(0, 2): _arrows(a)[(0, 1)]},
        "BAD_SHAPE", "block key (0, 2) is not a pair of idempotent indices 0..1"),
    "a block that is no list": (
        KRONECKER, None, lambda a: {(0, 1): _arrows(a)[(0, 1)][0]},
        "BAD_SHAPE", "block (0, 1) is {2: 1}, not a list of vectors"),
    "a block reversed": (
        KRONECKER, None, lambda a: {(1, 0): _arrows(a)[(0, 1)]},
        "NOT_VALIDATED", "block (1, 0) vector 0 is not in f_0 J f_1"),
    "an idempotent for an arrow": (
        KRONECKER, None, lambda a: {(0, 1): [_arrows(a)[(0, 1)][0], a.unit]},
        "NOT_VALIDATED", "block (0, 1) vector 1 is not in f_1 J f_0"),
    "an arrow twice": (
        KRONECKER, None, lambda a: {(0, 1): [_arrows(a)[(0, 1)][0]] * 2},
        "NOT_VALIDATED", "block (0, 1) vector 1 is dependent modulo J^2 on the vectors before it"),
    "a path in J^2": (
        LINE, None, lambda a: {(0, 1): _arrows(a)[(0, 1)], (0, 2): [a.element("ba")]},
        "NOT_VALIDATED", "block (0, 2) vector 0 is dependent modulo J^2 on the vectors before it"),
    "an arrow short": (
        KRONECKER, None, lambda a: {(0, 1): _arrows(a)[(0, 1)][:1]},
        "NOT_VALIDATED", "1 block vectors, dim J/J^2 is 2"),
}


@pytest.mark.parametrize("case", BAD_SPLITTINGS)
def test_a_splitting_is_a_splitting_by_invariant(case):
    a, idems, blocks, code, message = BAD_SPLITTINGS[case]
    idems = qk.make_splitting(a).idems if idems is None else idems(a)
    with pytest.raises(QuivkitError) as exc:
        qk.Splitting(a, idems, blocks(a))
    assert exc.value.code == code and message in exc.value.message


def test_the_splitting_constructor_takes_what_make_splitting_builds():
    for a in (KRONECKER, LINE, SQUARES):
        split = qk.make_splitting(a)
        again = qk.Splitting(a, split.idems, _arrows(a))
        assert again.blocks == split.blocks
        assert qk.gq(a, again).vquiver == qk.gq(a).vquiver
        assert qk.counit(a, splitting=again).morphism.surjective


def _seeded_radical_element(a, seed):
    rng = random.Random(seed)
    f = a.field
    coeffs = [f.of(rng.choice((-2, -1, 1, 2, 3))) for _ in a.radical.basis]
    return dense.vec_combination(f, a.dim, coeffs, a.radical.basis)


def test_conjugating_element_recovers_a_conjugation():
    for seed, (name, a) in enumerate(algebra_corpus()):
        idems = qk.lift_idempotents(a).elements
        w0 = _seeded_radical_element(a, seed)
        pairs = [(conjugate_element(a, w0, e), e) for e in idems]
        w = conjugating_element(a, pairs)
        assert w is not None, name
        assert a.radical.contains(w), name
        for p, q in pairs:
            assert conjugate_element(a, w, q) == p, name


def test_conjugating_element_none_across_orbits():
    checked = 0
    for name, a in algebra_corpus():
        idems = qk.lift_idempotents(a).elements
        if len(idems) < 2:
            continue
        # distinct primitive idempotents of a complete family differ mod J
        assert not a.radical.contains(el.add_scaled(a.field, dict(idems[0]), a.field.neg(a.field.one),
                                                    idems[1]))
        assert conjugating_element(a, [(idems[1], idems[0])]) is None, name
        w0 = _seeded_radical_element(a, 7)
        moved = conjugate_element(a, w0, idems[1])
        assert conjugating_element(a, [(moved, idems[0])]) is None, name
        checked += 1
    assert checked >= 5


def _conjugates(a, w, pairs):
    """True iff (1+w) q (1+w)^{-1} = p for every (p, q) in pairs."""
    f, n = a.field, a.dim
    return all(conjugation(a, w)(el._as_sparse(f, n, q)) == el._as_sparse(f, n, p)
               for p, q in pairs)


def test_every_conjugation_witness_conjugates_its_pairs():
    """conjugating_element solves the linear system and does not conjugate
    back; the witnesses it hands to same_orbit, conjugator and
    inner_conjugation_witness are checked here by conjugating."""
    witnesses = 0
    for seed, (name, a) in enumerate(algebra_corpus()):
        w0 = _seeded_radical_element(a, seed + 100)
        conj = conjugation(a, w0)
        basis = [el.sparse(a.basis_vector(i)) for i in range(a.dim)]
        for pairs in ([(conj(x), x) for x in basis], [(conj(e), e) for e in a.ss_classes]):
            w = conjugating_element(a, pairs)
            assert w is not None and a.radical.contains(w), name
            assert _conjugates(a, w, pairs), name
            witnesses += 1
        for e in a.ss_classes:
            ok, w = qk.same_orbit(a, e, conj(e))
            assert ok and _conjugates(a, w, [(conj(e), e)]), name
            witnesses += 1
        s1, s2 = qk.make_splitting(a), splitting_variant(a, w0)
        w = qk.conjugator(s1, s2)
        assert _conjugates(a, w, zip(s1.idems.elements, s2.idems.elements)), name
        witnesses += 1
    for name, t in presented_corpus():
        a = t.carrier
        basis = [el.sparse(a.basis_vector(i)) for i in range(a.dim)]
        deltas = [conjugation_automorphism(t, _seeded_radical_element(a, name))]
        deltas += [random_identity_class_automorphism(seeded_rng(k), t) for k in range(4)]
        for k, delta in enumerate(deltas):
            w = inner_conjugation_witness(delta)
            assert w is not None or k > 0, name
            if w is not None:
                assert _conjugates(a, w, [(delta.apply(x), x) for x in basis]), name
                witnesses += 1
    assert witnesses >= 80


def _sparse_or_none(v):
    return None if v is None else el.sparse(v)


def test_witnesses_match_the_dense_basis_systems():
    """conjugating_element's sparse products and inner_conjugation_witness's
    generator pairs give the w of the dense system over the basis pairs."""
    found = none = 0
    for seed, (name, a) in enumerate(algebra_corpus()):
        conj = conjugation(a, _seeded_radical_element(a, seed + 200))
        basis = [el.sparse(a.basis_vector(i)) for i in range(a.dim)]
        idems = a.ss_classes
        for pairs in ([(conj(x), x) for x in basis], [(conj(e), e) for e in idems],
                      [(idems[-1], idems[0])]):
            w = conjugating_element(a, pairs)
            assert w == _sparse_or_none(dense.conjugating_element(a, pairs)), name
            found += w is not None
            none += w is None
    for name, t in presented_corpus():
        a = t.carrier
        deltas = [conjugation_automorphism(t, _seeded_radical_element(a, name))]
        deltas += [random_identity_class_automorphism(seeded_rng(k), t) for k in range(4)]
        for delta in deltas:
            w = inner_conjugation_witness(delta)
            assert w == _sparse_or_none(dense.inner_conjugation_witness(delta)), name
            found += w is not None
            none += w is None
    assert found >= 40 and none >= 10


def _shuffled_table(a, rng):
    """`a` admitted again as a raw table, its basis in a random order."""
    perm = list(range(a.dim))
    rng.shuffle(perm)
    table = _dense_table(a)
    return qk.validate_algebra(a.field, [a.basis_labels[p] for p in perm],
                               [[[table[x][y][p] for p in perm] for y in perm] for x in perm],
                               [el.dense(a.field, a.dim, a.unit)[p] for p in perm])


def _document_algebras(name, text):
    return [(f"{name}:{alg}", entry.algebra) for alg, entry in parse(text).algebras.items()]


def _splitting_cases():
    """(name, algebra) pairs: the corpus; path algebras of random Vquivers at
    levels 2-4 over Q, F2, F3, F5 and F101, their quotients by a random
    relation ideal and by the ideal of a random radical element (which is not
    admissible when the element has an arrow term), some of them admitted
    again as shuffled tables; shuffled upper triangular tables; the demo and
    tests/golden documents; and the algebras of the benchmark's counit corpus
    and CLI documents."""
    cases = algebra_corpus() + [(f"{n}_presented", t.carrier) for n, t in presented_corpus()]
    cases += [(f"T{n}_{f!r}", upper_triangular(f, n, shuffle=True)) for f in (QQ, F5, F101)
              for n in (2, 3, 4) if f.char == 0 or f.char > n * (n + 1) // 2]
    rng = random.Random("splitting-oracle")
    for k in range(45):
        field = FIELDS[k % len(FIELDS)]
        t = qk.build_kvq(field, random_vquiver(rng, max_total_arrows=5), rng.randint(2, 4))
        ideals = [random_relation_ideal(rng, t),
                  qk.ideal_generated_by(t.carrier, [random_radical_element(rng, t)])]
        family = [t.carrier] + [qk.quotient_algebra(t.carrier, i)[0] for i in ideals]
        family += [_shuffled_table(a, rng) for a in family
                   if a.dim <= 16 and (field.char == 0 or field.char > a.dim)]
        cases += [(f"random{k}_{m}_{field!r}", a) for m, a in enumerate(family)]
    for path in (ROOT / "demo" / "triangle.quiv", ROOT / "tests" / "golden" / "table_t4.quiv"):
        cases += _document_algebras(path.name, path.read_text(encoding="utf-8"))
    bench = perfbench_workloads()
    rng = random.Random("counit_scaled:1")
    for field_name, quiver, level, n_rel, _copies in bench["COUNIT_CORPUS"]:
        field = el.field_by_name(field_name)
        rels = bench["_top_relations"](rng, quiver, level, n_rel, field.char)
        cases.append((f"{quiver}/L{level}/{field_name}/r{n_rel}",
                      bench["_present"](field, quiver, level, rels)[1]))
    for doc_id, (_kind, text) in bench["cli_universe"](str(ROOT)).items():
        cases += _document_algebras(doc_id, text)
    return cases


def _assert_valid_section(a, split, name):
    """Each vector lies in J and in its Peirce block of the splitting's
    idempotents, and the classes are a basis of J/J^2."""
    elems, j2 = split.idems.elements, a.radical_power(2)
    vecs = []
    for (i, j), block in split.blocks.items():
        for v in block:
            assert a.radical.contains(v), name
            assert el.sparse(a.mul(elems[j], a.mul(v, elems[i]))) == v, name
            vecs.append(v)
    assert len(vecs) == a.radical.dim - j2.dim, name
    assert el.Subspace.span(a.field, a.dim, j2.basis + vecs).dim == a.radical.dim, name


def _combination(rng, a, vecs):
    return dense.vec_combination(a.field, a.dim, [random_scalar(rng, a.field) for _ in vecs], vecs)


def test_splitting_reads_the_peirce_complements_off_the_arrows():
    """make_splitting keeps the admitted arrows independent of J^2 and of the
    arrows before them; its blocks are, vector for vector and key for key,
    the complements of the J^2 blocks in the Peirce blocks of J that it took
    before.  Conjugated and shifted splittings are checked for validity, and
    the shift sees each kept block's J^2 block, in key order."""
    cases = _splitting_cases()
    assert len(cases) >= 200
    assert {a.field for _name, a in cases} == set(FIELDS)
    rng = random.Random("splitting-knobs")
    for name, a in cases:
        blocks = qk.make_splitting(a).blocks
        assert list(blocks.items()) == [(key, list(map(el.sparse, vecs))) for key, vecs in
                                        peirce_complements(a, a.ss_classes).items()], name
        w = _combination(rng, a, a.radical.basis)
        _assert_valid_section(a, splitting_variant(a, w), name)
        for conj in (None, w):
            calls = []

            def shift(i, j, k, sub):
                calls.append((i, j, k, sub))
                return _combination(rng, a, sub.basis) if sub.dim and rng.random() < 0.7 else None

            split = splitting_variant(a, conj, shift)
            _assert_valid_section(a, split, name)
            j2_blocks = _peirce_blocks(a.field, a.dim, a.structconst, split.idems.elements,
                                       a.radical_power(2))
            assert [c[:3] for c in calls] == [(i, j, k) for (i, j), vecs in blocks.items()
                                              for k in range(len(vecs))], name
            assert all(sub == j2_blocks[(i, j)] for i, j, _k, sub in calls), name
