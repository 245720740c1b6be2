"""Raw tables are admitted through the generator certificate.

`validate_algebra` lifts the classes that split A/J to exact idempotents
and takes bases of the Peirce blocks of J as arrows, so every algebra holds
the same kind of generators.  The tests here keep the earlier forms as
oracles: the lifting loop that `lift_idempotents` ran on demand, and the
rank test of the induced map A/J(A) -> B/J(B) that `validate_morphism` ran
before it counted nonzero images of idempotents.
"""

import random

import pytest

import quivkit as qk
import quivkit.exactlin as el
from quivkit.algebra import _semisimple_pointed_classes, table_algebra
from quivkit.errors import QuivkitError
from quivkit.generators import random_vqmap_to_gq
from quivkit.splittings import conjugation

from corpus import (
    QQ,
    lower_triangular,
    remark_pair,
    semisimple,
    triangle_algebra,
    triangle_mod_cb,
    upper_triangular,
)
from test_algebra import _charpoly_classes, _dense_table, _presented_oracle_cases
from dense_oracle import as_dense, vec_add, vec_combination, vec_scale, vec_sub, vec_zero

F101 = qk.GF(101)
F257 = qk.GF(257)
NOT_ONTO = "RADICAL_QUOTIENT_NOT_SURJECTIVE"


# -- admission ---------------------------------------------------------------------

def _lift_by_mul(a, seeds):
    """The lifting loop as it ran on an admitted algebra: frame each seed away
    from the idempotents lifted before it, then x <- 3x^2 - 2x^3."""
    f = a.field
    three, two = f.of(3), f.of(2)
    lifted, prev_sum = [], vec_zero(f, a.dim)
    for seed in seeds:
        frame = vec_sub(f, as_dense(a, a.unit), prev_sum)
        x = a.mul(frame, a.mul(seed, frame))
        for _ in range(a.truncation_level.bit_length() + 2):
            sq = a.mul(x, x)
            if sq == x:
                break
            x = vec_sub(f, vec_scale(f, three, sq), vec_scale(f, two, a.mul(sq, x)))
        assert a.mul(x, x) == x
        lifted.append(x)
        prev_sum = vec_add(f, prev_sum, x)
    return lifted


def _rebased(a, rng):
    """The table of `a` in a random basis b'_i = sum_k P[k][i] b_k, so that
    the classes that split A/J are no longer idempotents."""
    f = a.field
    while True:
        p = el.Mat(f, a.dim, a.dim, [[f.of(rng.randrange(-2, 3)) for _ in range(a.dim)]
                                     for _ in range(a.dim)])
        if el.rank(p) == a.dim:
            break
    p_inv, cols = el.invert(p), p.columns()
    table = [[p_inv.matvec(a.mul(x, y)) for y in cols] for x in cols]
    return qk.validate_algebra(f, [f"b{i}" for i in range(a.dim)], table,
                               p_inv.matvec(as_dense(a, a.unit)))


def _raw_tables():
    rng = random.Random("rebased-tables")
    out = []
    for field in (QQ, F101):
        for n in (3, 4, 5, 6):
            out.append((f"T{n}_{field!r}", upper_triangular(field, n, shuffle=n % 2 == 0)))
        for name, a in (("T3", upper_triangular(field, 3)), ("lower", lower_triangular(field)),
                        ("triangle", triangle_algebra(field).carrier)):
            out.append((f"{name}_rebased_{field!r}", _rebased(a, rng)))
    for name, a in _presented_oracle_cases():
        out.append((name, qk.validate_algebra(a.field, a.basis_labels, _dense_table(a),
                                              a.unit)))
    return out


def test_raw_tables_hold_lifted_idempotents_and_peirce_arrows():
    cases = _raw_tables()
    assert len(cases) >= 34
    lifted_away = 0
    for name, a in cases:
        f = a.field
        seeds = _semisimple_pointed_classes(f, a.dim, a.structconst, a.unit, a.radical)
        assert a.ss_classes == [el.sparse(x) for x in _lift_by_mul(a, seeds)], name
        lifted_away += a.ss_classes != seeds
        assert qk.lift_idempotents(a).elements == a.ss_classes, name
        assert len(a.arrows) == a.radical.dim, name
        assert el.Subspace.span(f, a.dim, a.arrows) == a.radical, name
        for x in a.arrows:
            pieces = [(i, j) for i, ei in enumerate(a.ss_classes)
                      for j, ej in enumerate(a.ss_classes) if any(a.mul(ej, a.mul(x, ei)))]
            assert len(pieces) == 1, name
            i, j = pieces[0]
            assert el.sparse(a.mul(a.ss_classes[j], a.mul(x, a.ss_classes[i]))) == x, name
    assert lifted_away >= 4


def _k_power(field, n):
    """k^n as a table in the stored sparse form: orthogonal idempotents
    e_i with e_i e_i = e_i, summing to the unit."""
    sc = [[((i, field.one),) if i == j else () for j in range(n)] for i in range(n)]
    return table_algebra(field, [f"e{i}" for i in range(n)], sc, [field.one] * n)


def test_minimal_polynomial_splitter_matches_the_charpoly_oracle():
    rng = random.Random("charpoly-oracle")
    cases = _raw_tables()
    for n in (3, 4, 5, 6):
        cases.append((f"T{n}_F257", upper_triangular(F257, n, shuffle=n % 2 == 0)))
    for name, a in (("T3", upper_triangular(F257, 3)), ("lower", lower_triangular(F257)),
                    ("triangle", triangle_algebra(F257).carrier)):
        cases.append((f"{name}_rebased_F257", _rebased(a, rng)))
    for field in (QQ, F101, F257):
        cases += [(f"k{n}_{field!r}", _k_power(field, n)) for n in (1, 2, 7, 16)]
    for name, a in cases:
        args = (a.field, a.dim, a.structconst, a.unit, a.radical)
        assert _semisimple_pointed_classes(*args) == \
            [el.sparse(c) for c in _charpoly_classes(*args)], name


_MATRIX_UNITS = [(1, 1), (1, 2), (2, 1), (2, 2)]


@pytest.mark.parametrize("field, dense, unit, message", [
    (QQ, [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], [1, 0],
     "A/J has a simple factor larger than k"),
    (qk.GF(3), [[[1, 0], [0, 1]], [[0, 1], [2, 0]]], [1, 0],
     "A/J has a simple factor larger than k"),
    (QQ, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0], "A/J is not semisimple over k"),
    (QQ, [[[int(b == c and (a, d) == p) for p in _MATRIX_UNITS] for (c, d) in _MATRIX_UNITS]
          for (a, b) in _MATRIX_UNITS], [1, 0, 0, 1], "A/J is not commutative"),
], ids=["gaussian_Q", "gaussian_F3", "dual_numbers_J0", "matrices_2x2"])
def test_both_splitters_refuse_alike(field, dense, unit, message):
    """With J taken as 0, each splitter names the same obstruction."""
    dim = len(unit)
    sc = [[tuple((m, field.of(c)) for m, c in enumerate(v) if c) for v in row]
          for row in dense]
    args = (field, dim, sc, el.sparse([field.of(c) for c in unit]), el.Subspace.zero(field, dim))
    for split in (_semisimple_pointed_classes, _charpoly_classes):
        with pytest.raises(QuivkitError) as exc:
            split(*args)
        assert (exc.value.code, exc.value.message) == ("NOT_POINTED", message)


def test_quotient_by_a_vertex_drops_its_idempotent():
    """The classes of the quotient are the images of the idempotents that
    survive mod its radical, which for idempotents means nonzero ones."""
    rng = random.Random("vertex-quotients")
    checked = 0
    for field in (QQ, F101):
        for a in (upper_triangular(field, 3, shuffle=True),
                  _rebased(upper_triangular(field, 3), rng), triangle_algebra(field).carrier):
            for e in a.ss_classes:
                q, pi = qk.quotient_algebra(a, qk.ideal_generated_by(a, [e]))
                images = [pi.apply(c) for c in a.ss_classes]
                assert q.ss_classes == [x for x in images if not q.radical.contains(x)]
                assert len(q.ss_classes) == len(a.ss_classes) - 1
                assert qk.validate_morphism(a, q, pi.matrix).surjective
                assert el.kernel(pi.matrix) == qk.ideal_generated_by(a, [e]).space
                checked += 1
    assert checked == 18


# -- onto mod radicals -------------------------------------------------------------

def _onto_by_rank(source, target, matrix):
    """The induced map A/J(A) -> B/J(B) is onto: proj_t . f . reps_s has rank
    dim B/J(B), in the canonical quotient bases."""
    f = source.field
    reps_s, _ = el.quotient_basis(el.Subspace.full(f, source.dim), source.radical)
    _, proj_t = el.quotient_basis(el.Subspace.full(f, target.dim), target.radical)
    r_t = target.dim - target.radical.dim
    cols = [proj_t.matvec(matrix.matvec(r)) for r in reps_s]
    return el.rank(el.Mat.from_cols(f, cols, rows=r_t)) == r_t


def _through_semisimple(rng, a, b, phi):
    """A -> A/J(A) = k^s -> B: idempotent class i of A goes to the sum of the
    idempotents t of B with phi[t] == i, then everything is conjugated by
    1 + w for a random w in J(B).  A morphism; onto mod radicals iff phi is
    injective."""
    f = a.field
    system = el.Mat.from_cols(f, [as_dense(a, e) for e in a.ss_classes] + a.radical.basis,
                              rows=a.dim)
    coords = el.solve_multi(system, [a.basis_vector(i) for i in range(a.dim)])
    images = []
    for i in range(len(a.ss_classes)):
        img = vec_zero(f, b.dim)
        for t, e in enumerate(b.ss_classes):
            if phi[t] == i:
                img = vec_add(f, img, as_dense(b, e))
        images.append(img)
    w = vec_combination(f, b.dim, [f.of(rng.randrange(-2, 3)) for _ in b.radical.basis],
                           b.radical.basis)
    conj = conjugation(b, w)
    cols = [conj(el.sparse(vec_combination(f, b.dim, c[:len(images)], images))) for c in coords]
    return el.Mat.from_sparse_cols(f, cols, b.dim)


def _morphism_cases(field, rng):
    """(name, source, target, matrix): every one a unital multiplicative map."""
    lt = lower_triangular(field)
    k1, k2 = semisimple(field, 1), semisimple(field, 2)
    out = [
        ("diagonal k -> k x k", k1, k2, el.Mat.from_sparse_cols(field, [k2.unit], 2)),
        ("k -> lower triangular", k1, lt, el.Mat.from_sparse_cols(field, [lt.unit], 3)),
        ("k x k -> lower triangular", k2, lt,
         el.Mat.from_cols(field, [lt.element("E11"), lt.element("E22")], rows=3)),
    ]
    _src, _tgt, alpha, beta = remark_pair(field)
    out += [("remark alpha", alpha.source, alpha.target, alpha.matrix),
            ("remark beta", beta.source, beta.target, beta.matrix)]
    sources = [("k", k1), ("k x k", k2), ("lower triangular", lt),
               ("T3", upper_triangular(field, 3)), ("T4", upper_triangular(field, 4, True)),
               ("triangle", triangle_algebra(field).carrier),
               ("triangle mod cb", triangle_mod_cb(field)[2])]
    targets = [("k", k1), ("k x k", k2), ("k^3", semisimple(field, 3)),
               ("k^4", semisimple(field, 4)), ("lower triangular", lt),
               ("T3", upper_triangular(field, 3, True))]
    for s_name, a in sources:
        out.append((f"identity of {s_name}", a, a, el.Mat.identity(field, a.dim)))
        for t_name, b in targets:
            s, t = len(a.ss_classes), len(b.ss_classes)
            phis = [[rng.randrange(s) for _ in range(t)]]
            if t <= s:
                phis.append(rng.sample(range(s), t))
            for phi in phis:
                out.append((f"{s_name} -> {t_name} by {phi}", a, b,
                            _through_semisimple(rng, a, b, phi)))
    return out


def _phi_cases(field, rng):
    """right_adjoint_phi of random maps gq(T) -> gq(T), for raw tables T3 and
    T4, with the matrix of each morphism it builds."""
    out = []
    for n in (3, 4):
        a = upper_triangular(field, n, shuffle=n == 4)
        g = qk.gq(a)
        for _ in range(3):
            alpha = qk.right_adjoint_phi(random_vqmap_to_gq(rng, g.vquiver, g, field), g)
            out.append((f"phi of T{a.dim}", a, alpha.target, alpha.matrix))
    return out


def _keeps_radical(source, target, matrix):
    """f(J(A)) lies in J(B), checked over a basis of J(A)."""
    return all(target.radical.contains(matrix.matvec(v)) for v in source.radical.basis)


def _outcome(source, target, matrix):
    try:
        m = qk.validate_morphism(source, target, matrix)
    except QuivkitError as exc:
        return exc.code
    return m.surjective


@pytest.mark.parametrize("field", (QQ, F101), ids=repr)
def test_onto_mod_radicals_agrees_with_the_rank_test(field):
    rng = random.Random(f"onto-{field!r}")
    cases = _morphism_cases(field, rng) + _phi_cases(field, rng)
    outcomes = []
    for name, source, target, matrix in cases:
        got = _outcome(source, target, matrix)
        assert got in (True, False, NOT_ONTO), (name, got)
        assert (got != NOT_ONTO) == _onto_by_rank(source, target, matrix), name
        # validate_morphism has no radical check: every case is unital and
        # multiplicative into a pointed algebra, so it keeps J(A) in J(B)
        assert _keeps_radical(source, target, matrix), name
        outcomes.append(got)
    assert outcomes[:3] == [NOT_ONTO, NOT_ONTO, False]
    assert sum(name.startswith("phi of") for name, *_ in cases) == 6
    assert outcomes.count(NOT_ONTO) >= 20
    assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10
