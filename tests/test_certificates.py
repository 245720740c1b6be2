"""Generator certificates against the basis-pair checks they replace.

Presented algebras are admitted, and morphisms out of them checked, over
their generators (vertex idempotents and arrows) instead of over all basis
pairs.  `universal_map`, `quotient_algebra`, `IdempotentSet` and
`make_splitting` trust what their inputs certify instead of re-proving it.
Each test here keeps the earlier, basis-wide version as its oracle.
"""

import random

import pytest

import quivkit as qk
import quivkit.exactlin as el
import quivkit.pathalg as pathalg
from quivkit.adjunction import conjugated_images
from quivkit.algebra import _first_unmultiplied, _peirce_blocks, presented_algebra
from quivkit.errors import QuivkitError
from quivkit.generators import (
    random_identity_class_automorphism,
    random_radical_element,
    random_vqmap_to_gq,
)
from quivkit.pathalg import universal_map, vqmap_generator_images

from corpus import (
    QQ,
    F2,
    F3,
    F5,
    double_loop_vq,
    lower_triangular,
    triangle_algebra,
    two_vq,
    vq_corpus,
)

F101 = qk.GF(101)
FIELDS = (QQ, F2, F3, F5, F101)
TWO = two_vq()


# -- oracles: the basis-pair loops of the checks before certificates -------

def _basis_pair_filtration(a, j_space):
    """[A, J, J^2, ..., 0] with J^(n+1) = span(J * J^n) over basis pairs."""
    filtration = [el.Subspace.full(a.field, a.dim), j_space]
    cur = j_space
    while cur.dim > 0:
        prods = [a.mul(x, y) for x in j_space.basis for y in cur.basis]
        nxt = el.Subspace.span(a.field, a.dim, prods)
        assert nxt.dim < cur.dim
        filtration.append(nxt)
        cur = nxt
    return filtration


def _is_ideal_over_basis(a, space):
    return all(space.contains(a.mul(a.basis_vector(i), v))
               and space.contains(a.mul(v, a.basis_vector(i)))
               for v in space.basis for i in range(a.dim))


def _basis_closure(a, vectors):
    cur = el.Subspace.span(a.field, a.dim, vectors)
    while True:
        prods = [p for v in cur.basis for i in range(a.dim)
                 for p in (a.mul(a.basis_vector(i), v), a.mul(v, a.basis_vector(i)))]
        nxt = el.Subspace.span(a.field, a.dim, cur.basis + prods)
        if nxt.dim == cur.dim:
            return nxt
        cur = nxt


def _full_scan_pair(source, target, matrix):
    """First basis pair (b_i, b_j), i outer, with f(b_i b_j) != f(b_i) f(b_j)."""
    cols = matrix.columns()
    for i in range(source.dim):
        for j in range(source.dim):
            lhs = matrix.matvec(source.mul(source.basis_vector(i), source.basis_vector(j)))
            if lhs != target.mul(cols[i], cols[j]):
                return source.basis_labels[i], source.basis_labels[j]
    return None


def _old_complement(ambient, sub):
    """The unconstrained complement loop that re-spanned after each row."""
    f, n = ambient.field, ambient.ambient_dim
    added, cur_rows = [], list(sub.basis)
    cur = el.Subspace.span(f, n, cur_rows)
    for row in ambient.basis:
        if cur.dim == ambient.dim:
            break
        if not cur.contains(row):
            added.append(row)
            cur_rows.append(row)
            cur = el.Subspace.span(f, n, cur_rows)
    return el.Subspace.span(f, n, added)


# -- corpus ------------------------------------------------------------------

def _layer_sum(t, lengths):
    f = t.field
    return [f.one if t.paths[i].length in lengths else f.zero for i in range(t.dim)]


def _presented_cases(field):
    """(name, algebra, radical it was admitted with, (parent, ideal, pi) for
    a quotient or None): every corpus path algebra, a graded and a
    mixed-degree quotient of each, and a quotient of a quotient."""
    cases = []
    for name, vq in vq_corpus() + [("double_loop", double_loop_vq()), ("TWO", TWO)]:
        t = qk.build_kvq(field, vq, 4 if name in ("loop", "TWO") else 3)
        a, j = t.carrier, t.paths_of_length_at_least(1)
        cases.append((name, a, j, None))
        if len(t.grading) < 3:
            continue
        rels = {"graded": {2}, "mixed": {2, 3} if len(t.grading) > 3 else {1, 2}}
        for kind, lengths in rels.items():
            ideal = qk.ideal_generated_by(a, [_layer_sum(t, lengths)])
            if ideal.dim == a.dim:
                continue
            q, pi = qk.quotient_algebra(a, ideal)
            j_q = el.Subspace.span(field, q.dim, [pi.apply(v) for v in j.basis])
            cases.append((f"{name}_mod_{kind}", q, j_q, (a, ideal, pi)))
            if kind == "graded" and q.truncation_level > 2:
                top = [pi.apply(_layer_sum(t, {len(t.grading) - 1}))]
                ideal2 = qk.ideal_generated_by(q, top)
                q2, pi2 = qk.quotient_algebra(q, ideal2)
                j_q2 = el.Subspace.span(field, q2.dim, [pi2.apply(v) for v in j_q.basis])
                cases.append((f"{name}_mod_{kind}_twice", q2, j_q2, (q, ideal2, pi2)))
    return cases


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_certified_filtration_matches_basis_pairs(field):
    cases = _presented_cases(field)
    assert len(cases) >= 15
    for name, a, j, _how in cases:
        assert a.arrows is not None, name
        assert _is_ideal_over_basis(a, j), name
        assert a.radical_filtration == _basis_pair_filtration(a, j), name


def test_path_algebra_radical_powers_are_path_lengths():
    for field in FIELDS:
        t = qk.build_kvq(field, TWO, 5)
        for n in range(t.level + 1):
            assert t.carrier.radical_power(n) == t.paths_of_length_at_least(n)


# -- morphisms ---------------------------------------------------------------

def _perturbed(rng, m, skip):
    """m with one or two entries moved in columns outside `skip`."""
    f = m.field
    out = m.copy()
    cols = [c for c in range(m.cols) if c not in skip]
    for _ in range(rng.choice((1, 2))):
        r, c = rng.randrange(m.rows), rng.choice(cols)
        out.data[r][c] = f.add(out.data[r][c], f.of(rng.choice((1, -1, 2))))
    return out


def _psi_cases(field, rng):
    """(source, target, matrix): psi morphisms out of path algebras into the
    presented corpus, and identities on its quotients and on a raw table."""
    out = []
    targets = [a for _n, a, _j, _how in _presented_cases(field)]
    for a in targets[::2]:
        g = qk.gq(a)
        t = qk.build_kvq(field, g.vquiver, max(2, a.truncation_level))
        for _ in range(2):
            rho = random_vqmap_to_gq(rng, g.vquiver, g, field)
            if rho is not None:
                out.append((t.carrier, a, qk.psi(t, rho, g).matrix))
    for q in targets[1::2]:
        out.append((q, q, el.Mat.identity(field, q.dim)))
    if field.char == 0 or field.char > 3:
        raw = lower_triangular(field)
        out.append((raw, raw, el.Mat.identity(field, raw.dim)))
    return out


@pytest.mark.parametrize("field", (QQ, F3, F101), ids=repr)
def test_generator_check_raises_exactly_when_the_full_scan_does(field):
    rng = random.Random(f"perturbed-psi-{field!r}")
    failing = passing = 0
    for source, target, matrix in _psi_cases(field, rng):
        unit_cols = {i for i, c in enumerate(source.unit) if c}
        if len(unit_cols) == source.dim:
            continue
        for m in (matrix, _perturbed(rng, matrix, unit_cols),
                  _perturbed(rng, matrix, unit_cols)):
            pair = _full_scan_pair(source, target, m)
            first = _first_unmultiplied(source, target, [el.sparse(c) for c in m.columns()],
                                        source.generators())
            assert (pair is None) == (first is None)
            if pair is None:
                passing += 1
                try:
                    qk.validate_morphism(source, target, m)
                except QuivkitError as exc:
                    assert exc.code != "NOT_MULTIPLICATIVE"
                continue
            failing += 1
            with pytest.raises(QuivkitError) as exc:
                qk.validate_morphism(source, target, m)
            assert exc.value.code == "NOT_MULTIPLICATIVE"
            assert exc.value.message == f"fails on basis pair ({pair[0]}, {pair[1]})"
    assert failing >= 20 and passing >= 10


# -- refusals ------------------------------------------------------------------

def _triangle_args():
    a = triangle_algebra().carrier
    return a, [a.field, a.basis_labels, a.structconst, a.unit, a.radical,
               list(a.ss_classes), list(a.arrows)]


def _refusal(args):
    with pytest.raises(QuivkitError) as exc:
        presented_algebra(*args)
    return exc.value


def test_generators_missing_an_arrow_are_refused():
    a, args = _triangle_args()
    args[6] = [a.element("a"), a.element("b")]
    err = _refusal(args)
    assert err.code == "BAD_ARGUMENT"
    assert "span 2 dimensions, the radical 4" in err.message


def test_an_arrow_outside_its_peirce_block_is_refused():
    a, args = _triangle_args()
    # a: 1 -> 2 and b: 1 -> 3, so a + b has two target vertices
    args[6][0] = el.vec_add(QQ, a.element("a"), a.element("b"))
    assert _refusal(args).code == "BIMODULE_CONDITION_FAIL"


def test_non_orthogonal_idempotents_are_refused():
    a, args = _triangle_args()
    # e1 + a is idempotent and orthogonal to e2 modulo J, but e2 (e1 + a) = a
    args[5][0] = el.vec_add(QQ, a.element("e1"), a.element("a"))
    err = _refusal(args)
    assert err.code == "NOT_POINTED" and "not orthogonal" in err.message


def test_a_non_nilpotent_arrow_is_refused():
    a, args = _triangle_args()
    args[6].append(a.element("e1"))
    assert _refusal(args).code == "RADICAL_NOT_NILPOTENT"


@pytest.mark.parametrize("hint, code", [
    ("J^2", "NOT_POINTED"),
    ("span b", "RADICAL_NOT_NILPOTENT"),
    ("A", "RADICAL_NOT_NILPOTENT"),
    ("J + e1", "RADICAL_NOT_NILPOTENT"),
    ("ideal of e1", "RADICAL_NOT_NILPOTENT"),
])
def test_a_wrong_radical_hint_is_refused(hint, code):
    a, args = _triangle_args()
    args[4] = {
        "J^2": a.radical_power(2),
        "span b": el.Subspace.span(QQ, a.dim, [a.element("b")]),
        "A": el.Subspace.full(QQ, a.dim),
        "J + e1": a.radical.sum(el.Subspace.span(QQ, a.dim, [a.element("e1")])),
        # span{e1, a, b, cb}: an ideal of the radical's dimension
        "ideal of e1": qk.ideal_generated_by(a, [a.element("e1")]).space,
    }[hint]
    assert _refusal(args).code == code


# -- ideals and complements --------------------------------------------------

@pytest.mark.parametrize("field", (QQ, F2, F5), ids=repr)
def test_ideal_generated_by_matches_the_basis_closure(field):
    rng = random.Random(f"ideal-closure-{field!r}")
    algebras = [a for _n, a, _j, _how in _presented_cases(field)]
    if field == QQ:
        algebras.append(lower_triangular(QQ))
    for a in algebras:
        for count in (1, 2):
            vecs = [[field.of(rng.choice((0, 0, 0, 1, -1))) for _ in range(a.dim)]
                    for _ in range(count)]
            ideal = qk.ideal_generated_by(a, vecs)
            assert ideal.space == _basis_closure(a, vecs)
            assert _is_ideal_over_basis(a, ideal.space)


def test_ideal_tests_over_generators_match_the_basis_test():
    rng = random.Random("ideal-test")
    for _n, a, _j, _how in _presented_cases(QQ):
        spans = [el.Subspace.span(QQ, a.dim, [[QQ.of(rng.choice((0, 0, 1, -1)))
                                               for _ in range(a.dim)]])
                 for _ in range(3)]
        for space in spans + [a.radical, a.radical_power(2)]:
            if _is_ideal_over_basis(a, space):
                assert qk.algebra.ideal_subspace(a, space).space == space
            else:
                with pytest.raises(QuivkitError) as exc:
                    qk.algebra.ideal_subspace(a, space)
                assert exc.value.code == "NOT_AN_IDEAL"


def test_complement_matches_the_respanning_loop():
    rng = random.Random("complement")
    checked = 0
    for field in (QQ, F3):
        for _n, a, _j, _how in _presented_cases(field):
            full = el.Subspace.full(field, a.dim)
            mixed = el.Subspace.span(field, a.dim, [
                [field.of(rng.choice((0, 1, -1, 2))) for _ in range(a.dim)]
                for _ in range(max(1, a.dim // 2))])
            pairs = [(full, a.radical), (full, a.radical_power(2)),
                     (a.radical, a.radical_power(2)), (full, mixed),
                     (mixed, el.Subspace.zero(field, a.dim))]
            for ambient, sub in pairs:
                assert el.complement(ambient, sub) == _old_complement(ambient, sub)
                checked += 1
    assert checked >= 50


# -- universal_map is its own certificate -------------------------------------

def _path_image_matrix(t, target, idems, arrows):
    """Each path to the product of its generator images."""
    cols = []
    for p in t.paths:
        acc = list(idems[p.start])
        for lab in p.arrows:
            acc = target.mul(arrows[lab], acc)
        cols.append(acc)
    return el.Mat.from_cols(t.field, cols, rows=target.dim)


def _outcome(call):
    try:
        m = call()
    except QuivkitError as exc:
        return exc.code
    return m.matrix, m.surjective


def _merged_images(t, v, w):
    """Identity images with e_v folded into e_w: e_v and the arrows at v go
    to 0, so the map is a morphism that is not onto mod radicals."""
    f = t.field
    idems, arrows = t.identity_images()
    idems[w] = el.vec_add(f, idems[w], idems[v])
    idems[v] = el.vec_zero(f, t.dim)
    for lab in arrows:
        src, tgt, _ = t.vq.arrow_location(lab)
        if v in (src, tgt):
            arrows[lab] = el.vec_zero(f, t.dim)
    return idems, arrows


def _universal_map_inputs(field, rng):
    """(t, target, idem images, arrow images): psi of seeded random maps into
    the presented corpus, conjugation automorphisms of the corpus path
    algebras and their merged images."""
    out = []
    for _n, a, _j, _how in _presented_cases(field):
        g = qk.gq(a)
        t = qk.build_kvq(field, g.vquiver, max(2, a.truncation_level))
        for _ in range(2):
            rho = random_vqmap_to_gq(rng, g.vquiver, g, field)
            if rho is not None:
                out.append((t, a) + vqmap_generator_images(rho, a.dim, *g.generators()))
    for name, vq in vq_corpus() + [("TWO", TWO)]:
        t = qk.build_kvq(field, vq, 4 if name in ("loop", "TWO") else 3)
        w = random_radical_element(rng, t)
        out.append((t, t.carrier) + conjugated_images(t.carrier, w, *t.identity_images()))
        v, *rest = t.vq.vertices
        if rest:
            out.append((t, t.carrier) + _merged_images(t, v, rest[-1]))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_universal_map_agrees_with_validate_morphism(field):
    rng = random.Random(f"universal-map-{field!r}")
    outcomes = []
    for t, target, idems, arrows in _universal_map_inputs(field, rng):
        got = _outcome(lambda: universal_map(t, target, idems, arrows))
        m = _path_image_matrix(t, target, idems, arrows)
        assert got == _outcome(lambda: qk.validate_morphism(t.carrier, target, m))
        outcomes.append(got if isinstance(got, str) else got[1])
    for _ in range(4):
        t = qk.build_kvq(field, TWO, 4)
        delta = random_identity_class_automorphism(rng, t)
        full = qk.validate_morphism(t.carrier, t.carrier, delta.matrix)
        assert (full.matrix, full.surjective) == (delta.matrix, delta.surjective)
    assert outcomes.count(True) >= 10 and outcomes.count(False) >= 2
    assert outcomes.count("RADICAL_QUOTIENT_NOT_SURJECTIVE") >= 4


@pytest.mark.parametrize("field", (QQ, F2, F5), ids=repr)
def test_universal_map_builds_each_path_from_its_prefix(field, monkeypatch):
    """The matrix is the product of images, and beyond the framing check's two
    products per arrow each path of length >= 2 costs one product."""
    rng = random.Random(f"prefix-columns-{field!r}")
    calls = []
    real_mul, real_raw = qk.FinAlgebra.mul, pathalg._mul_raw
    monkeypatch.setattr(qk.FinAlgebra, "mul",
                        lambda a, x, y: calls.append(1) or real_mul(a, x, y))
    # the path columns are sparse products, made by the kernel under FinAlgebra.mul
    monkeypatch.setattr(pathalg, "_mul_raw",
                        lambda *args: calls.append(1) or real_raw(*args))
    built = longer = 0
    for t, target, idems, arrows in _universal_map_inputs(field, rng):
        calls.clear()
        try:
            m = universal_map(t, target, idems, arrows).matrix
        except QuivkitError:
            continue
        products = len(calls)
        assert m == _path_image_matrix(t, target, idems, arrows)
        long_paths = [p for p in t.paths if p.length >= 2]
        assert products - 2 * len(arrows) == len(long_paths) <= len(t.paths)
        built += 1
        longer += sum(p.length - 1 for p in long_paths) > len(t.paths)
    assert built >= 10 and longer >= 2


@pytest.mark.parametrize("case, code", [
    ("no vertex image", "BIMODULE_CONDITION_FAIL"),
    ("not idempotent", "BIMODULE_CONDITION_FAIL"),
    ("not orthogonal", "BIMODULE_CONDITION_FAIL"),
    ("not summing to 1", "BIMODULE_CONDITION_FAIL"),
    ("e2 and a to 0", "RADICAL_QUOTIENT_NOT_SURJECTIVE"),
])
def test_bad_images_keep_their_codes(case, code):
    """Blocks, radical and level refusals are in tests/test_pathalg.py."""
    t = qk.build_kvq(QQ, qk.VQuiver(["1", "2"], {("1", "2"): ["a"]}), 3)
    a = t.carrier
    e1, e2, x = a.element("e1"), a.element("e2"), a.element("a")
    zero = el.vec_zero(QQ, a.dim)
    idems, arrows = {"1": e1, "2": e2}, {"a": x}
    if case == "no vertex image":
        del idems["2"]
    elif case == "not idempotent":
        idems["1"] = el.vec_scale(QQ, 2, e1)
    elif case == "not orthogonal":
        idems["1"] = el.vec_add(QQ, e1, x)
    elif case == "not summing to 1":
        idems["2"] = zero
    else:
        idems, arrows = {"1": a.unit, "2": zero}, {"a": zero}
    with pytest.raises(QuivkitError) as exc:
        universal_map(t, a, idems, arrows)
    assert exc.value.code == code, exc.value.message
    if case in ("not idempotent", "not orthogonal"):
        assert case in exc.value.message


# -- primitivity by counting ---------------------------------------------------

def _is_primitive(a, e):
    """The basis-wide test the count replaced: e A e is local."""
    eae = a.peirce_block(e, e, el.Subspace.full(a.field, a.dim))
    eje = a.peirce_block(e, e, a.radical)
    return eae.dim - eje.dim == 1


@pytest.mark.parametrize("field", (QQ, F2, F5), ids=repr)
def test_counting_decides_primitivity_as_the_peirce_test_does(field):
    algebras = [a for _n, a, _j, _how in _presented_cases(field)]
    if field == QQ:
        algebras.append(lower_triangular(QQ))
    accepted = refused = 0
    for a in algebras:
        elems = qk.lift_idempotents(a).elements
        sets = [elems]
        for i in range(1, len(elems)):
            merged = el.vec_add(field, elems[0], elems[i])
            sets.append([merged] + [e for k, e in enumerate(elems) if k not in (0, i)])
        for idems in sets:
            primitive = all(_is_primitive(a, e) for e in idems)
            try:
                qk.IdempotentSet(a, idems)
            except QuivkitError as exc:
                assert exc.code == "NOT_VALIDATED" and not primitive
                refused += 1
            else:
                assert primitive
                accepted += 1
    assert accepted == len(algebras) and refused >= 10


# -- Peirce blocks split once ----------------------------------------------------

def test_split_once_blocks_equal_peirce_block():
    rng = random.Random("peirce-blocks")
    checked = 0
    for field in (QQ, F3):
        algebras = [a for _n, a, _j, _how in _presented_cases(field)]
        if field == QQ:
            algebras.append(lower_triangular(QQ))
        for a in algebras:
            w = el.vec_combination(field, a.dim, [field.of(rng.choice((0, 1, -1, 2)))
                                                  for _ in a.radical.basis], a.radical.basis)
            elems = qk.make_splitting(a, conjugate_by=w).idems.elements
            for space in (el.Subspace.full(field, a.dim), a.radical, a.radical_power(2)):
                blocks = _peirce_blocks(field, a.dim, a.structconst, elems, space)
                assert len(blocks) == len(elems) ** 2
                for (i, j), block in blocks.items():
                    assert block == a.peirce_block(elems[j], elems[i], space)
                    checked += 1
    assert checked >= 300


# -- quotients -------------------------------------------------------------------

def _dense_quotient(a, ideal):
    """Labels and table the way quotient_algebra wrote them before: a dense
    projection of each product of representatives."""
    f = a.field
    reps, proj = el.quotient_basis(el.Subspace.full(f, a.dim), ideal.space)
    labels = []
    for r_vec in reps:
        nz = [i for i, c in enumerate(r_vec) if c != f.zero]
        if len(nz) == 1 and r_vec[nz[0]] == f.one:
            labels.append(a.basis_labels[nz[0]])
        else:
            labels.append(f"q{len(labels)}")
    if len(set(labels)) != len(reps):
        labels = [f"q{i}" for i in range(len(reps))]
    table = [[tuple((m, c) for m, c in enumerate(proj.matvec(a.mul(ri, rj))) if c)
              for rj in reps] for ri in reps]
    return labels, table


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_quotient_table_and_projection_match_the_dense_path(field):
    quotients = [(name, how) for name, _a, _j, how in _presented_cases(field) if how]
    assert len(quotients) >= 8 and any(name.endswith("_twice") for name, _ in quotients)
    for name, (parent, ideal, pi) in quotients:
        # quotient_algebra does not re-check that its projection kills the ideal
        assert el.kernel(pi.matrix) == ideal.space, name
        q = pi.target
        assert (q.basis_labels, q.structconst) == _dense_quotient(parent, ideal)
        full = qk.validate_morphism(parent, q, pi.matrix)
        assert full.surjective and pi.surjective
