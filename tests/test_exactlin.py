"""Exact linear algebra: examples plus hypothesis property checks."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import quivkit.exactlin as el
from quivkit.errors import QuivkitError
from quivkit.generators import seeded_rng

from corpus import algebra_corpus, presented_corpus
from dense_oracle import intersect, rref as dense_rref
from dense_oracle import vec_add, vec_combination, vec_scale, vec_zero
from support import random_identity_class_automorphism

QQ = el.QQ
F2 = el.GF(2)
F5 = el.GF(5)


def mat(field, rows):
    return el.Mat.from_rows(field, [[field.of(x) for x in r] for r in rows],
                            cols=len(rows[0]) if rows else 0)


def test_field_basics():
    assert QQ.of("3") == Fraction(3)
    assert QQ.fmt(Fraction(-3, 7)) == "-3/7"
    assert F5.of(Fraction(1, 2)) == 3
    assert F5.fmt(2) == "2 mod 5"
    assert F5.inv(3) == 2
    with pytest.raises(QuivkitError):
        el.GF(6)
    assert el.field_by_name("F5") == F5
    assert el.field_by_name("Q") == QQ


def test_rref_identity():
    m = el.Mat.identity(QQ, 2)
    red, piv = el.rref(m)
    assert red == m and piv == [0, 1]


def test_rref_rank_one_rational():
    red, piv = el.rref(mat(QQ, [[2, 4], [1, 2]]))
    assert red.data == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]]
    assert piv == [0]


def test_rref_mod_two():
    red, piv = el.rref(mat(F2, [[1, 1], [1, 1]]))
    assert red.data == [[1, 1], [0, 0]]
    assert piv == [0]


def test_kernel_examples():
    assert el.kernel(el.Mat.zeros(QQ, 2, 3)).dim == 3
    assert el.kernel(el.Mat.identity(QQ, 2)).dim == 0
    k = el.kernel(mat(QQ, [[1, 1]]))
    assert k.dim == 1
    assert k.contains([QQ.of(1), QQ.of(-1)])


def test_quotient_basis_examples():
    full2 = el.Subspace.full(QQ, 2)
    reps, proj = el.quotient_basis(full2, el.Subspace.zero(QQ, 2))
    assert len(reps) == 2 and proj.matmul(el.Mat.identity(QQ, 2)) == proj
    line = el.Subspace.span(QQ, 2, [[QQ.of(1), QQ.of(0)]])
    reps, proj = el.quotient_basis(full2, line)
    assert len(reps) == 1
    # the class of (3, 5) equals 5 times the class of the representative
    assert proj.matvec([QQ.of(3), QQ.of(5)]) == [QQ.of(5)]


def test_intersection_of_axes_is_zero():
    x_axis = el.Subspace.span(QQ, 2, [[QQ.of(1), QQ.of(0)]])
    y_axis = el.Subspace.span(QQ, 2, [[QQ.of(0), QQ.of(1)]])
    assert intersect(x_axis, y_axis).dim == 0


def test_complement_examples():
    full2 = el.Subspace.full(QQ, 2)
    assert el.complement(full2, el.Subspace.zero(QQ, 2)) == full2
    diag = el.Subspace.span(QQ, 2, [[QQ.of(1), QQ.of(1)]])
    w = el.complement(full2, diag)
    assert w.dim == 1
    assert w.sum(diag) == full2 and intersect(w, diag).dim == 0
    # deterministic: recomputation gives the same basis
    assert el.complement(full2, diag) == w


def test_complement_requires_containment():
    line = el.Subspace.span(QQ, 2, [[QQ.of(1), QQ.of(0)]])
    other = el.Subspace.span(QQ, 2, [[QQ.of(0), QQ.of(1)]])
    with pytest.raises(QuivkitError) as exc:
        el.complement(line, other)
    assert exc.value.code == "NOT_A_SUBSPACE"


@pytest.mark.parametrize("data", [[[1, 2], [3]], [[1, 2, 3], [4, 5]], [[1, 2]], [[1, 2]] * 3, []],
                         ids=["short-row", "long-row", "too-few-rows", "too-many-rows", "empty"])
def test_matrix_of_the_wrong_shape_is_refused(data):
    with pytest.raises(QuivkitError) as exc:
        el.Mat(QQ, 2, 2, data)
    assert exc.value.code == "BAD_SHAPE"
    assert el.Mat(QQ, 2, 2, [[1, 2], [3, 4]]).data == [[1, 2], [3, 4]]
    assert el.Mat(QQ, 0, 3, []).rows == 0


def test_solve_and_invert():
    m = mat(QQ, [[1, 2], [3, 4]])
    x = el.solve(m, [QQ.of(5), QQ.of(6)])
    assert m.matvec(x) == [QQ.of(5), QQ.of(6)]
    inv = el.invert(m)
    assert m.matmul(inv) == el.Mat.identity(QQ, 2)
    with pytest.raises(QuivkitError):
        el.invert(mat(QQ, [[1, 2], [2, 4]]))
    assert el.solve(mat(QQ, [[1, 1], [1, 1]]), [QQ.of(0), QQ.of(1)]) is None


def _mult_matrix(a, x, left=True):
    """The matrix of y -> x y (or y x) on the algebra a."""
    basis = [a.basis_vector(j) for j in range(a.dim)]
    cols = [a.mul(x, b) if left else a.mul(b, x) for b in basis]
    return el.Mat.from_cols(a.field, cols, rows=a.dim)


def _corpus_matrices():
    """Square matrices from the algebra corpora: multiplications by 1 + w
    and by w for w in J, members of the identity class of the path
    algebras, and random matrices over Q, F2 and F5."""
    rng = random.Random("invert-corpus")
    out = []
    for name, a in algebra_corpus():
        f = a.field
        w = vec_combination(f, a.dim, [f.of(rng.randrange(-3, 4)) for _ in a.radical.basis],
                               a.radical.basis)
        one_w = vec_add(f, el.dense(f, a.dim, a.unit), w)
        out += [(f"L(1+w) on {name}", _mult_matrix(a, one_w)),
                (f"R(1+w) on {name}", _mult_matrix(a, one_w, left=False)),
                (f"L(w) on {name}", _mult_matrix(a, w))]
    for name, t in presented_corpus():
        for k in range(3):
            delta = random_identity_class_automorphism(seeded_rng(k), t)
            out.append((f"identity class {k} of {name}", delta.matrix))
    for f in (QQ, F2, F5):
        for n in range(1, 7):
            for k in range(4):
                rows = [[f.of(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(n)]
                out.append((f"random {n}x{n} {k} over {f!r}", el.Mat.from_rows(f, rows, cols=n)))
    return out


def test_invert_is_exact_across_the_corpora():
    """invert does not multiply back: its columns solve m x = e_i exactly."""
    invertible = singular = 0
    for name, m in _corpus_matrices():
        ident = el.Mat.identity(m.field, m.rows)
        if el.rank(m) == m.rows:
            inv = el.invert(m)
            assert m.matmul(inv) == ident and inv.matmul(m) == ident, name
            invertible += 1
        else:
            with pytest.raises(QuivkitError) as exc:
                el.invert(m)
            assert exc.value.code == "SINGULAR", name
            singular += 1
    assert invertible >= 90 and singular >= 30


def test_small_primality_unchanged():
    assert [n for n in (0, 1, 2, 4, 101) if el._is_prime(n)] == [2, 101]
    for n in (0, 1, 4):
        with pytest.raises(QuivkitError) as exc:
            el.GF(n)
        assert exc.value.code == "NOT_PRIME"
    assert el.GF(2).char == 2 and el.GF(101).char == 101


def test_large_prime_field_is_fast():
    start = time.perf_counter()
    f = el.GF(10**20 + 39)
    assert time.perf_counter() - start < 1.0
    assert f.mul(f.of(2), f.inv(f.of(2))) == 1


def test_semiprime_modulus_rejected():
    with pytest.raises(QuivkitError) as exc:
        el.GF(1000000007 * 1000000009)
    assert exc.value.code == "NOT_PRIME"


def test_primality_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(3000) if el._is_prime(n)] == \
        [n for n in range(3000) if trial(n)]
    # strong pseudoprimes to the first bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747):
        assert not el._is_prime(n)


MERSENNE_PRIME_EXPONENTS = (89, 127, 521, 1279)
# (6k+1)(12k+1)(18k+1) is a Carmichael number when all three factors are prime
CHERNICK_K = (14000240, 14000461)


def test_bpsw_matches_sympy_above_the_miller_rabin_limit():
    import sympy

    cases = []
    for e in MERSENNE_PRIME_EXPONENTS:
        m = 2 ** e - 1
        cases += [m, m - 2, m + 2, m + 4, 2 ** e + 1]
    for k in CHERNICK_K:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        assert all(sympy.isprime(q) for q in factors)
        cases.append(factors[0] * factors[1] * factors[2])
    # strong pseudoprimes to base 2: the Miller-Rabin limit itself (one to
    # every base up to 41) and composite Mersenne numbers 2^q - 1, q prime
    strong = [el._MR_LIMIT] + [2 ** q - 1 for q in (83, 97, 101, 103, 109, 113)]
    for n in strong:
        assert el._strong_probable_prime(n, 2) and not sympy.isprime(n)
    cases += strong
    rng = random.Random(20240901)
    cases += [rng.randrange(10 ** 29, 10 ** rng.randint(30, 400)) | 1 for _ in range(300)]
    # random primes and semiprimes, which random odd numbers seldom are
    for _ in range(20):
        p = sympy.nextprime(rng.randrange(10 ** 29, 10 ** rng.randint(30, 150)))
        cases += [p, p * sympy.nextprime(rng.randrange(10 ** 12, 10 ** 30))]
    assert all(n >= el._MR_LIMIT for n in cases)
    for n in cases:
        assert el._is_prime(n) == sympy.isprime(n), n
    assert all(el._is_prime(2 ** e - 1) for e in MERSENNE_PRIME_EXPONENTS)


# -- property tests ---------------------------------------------------------

fields = st.sampled_from([QQ, F2, F5])


@st.composite
def field_matrix(draw, max_dim=4):
    field = draw(fields)
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    if field.char == 0:
        entry = st.integers(-4, 4).map(Fraction)
    else:
        entry = st.integers(0, field.char - 1)
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return el.Mat.from_rows(field, [[field.of(x) for x in r] for r in data],
                            cols=cols)


@settings(max_examples=80, deadline=None)
@given(field_matrix())
def test_rank_nullity(m):
    assert el.rank(m) + el.kernel(m).dim == m.cols


@settings(max_examples=80, deadline=None)
@given(field_matrix(), field_matrix())
def test_modular_dimension_law(m1, m2):
    if m1.field != m2.field or m1.cols != m2.cols:
        return
    u = el.image(m1.transpose())
    w = el.image(m2.transpose())
    lhs = u.sum(w).dim + intersect(u, w).dim
    assert lhs == u.dim + w.dim


@settings(max_examples=80, deadline=None)
@given(field_matrix())
def test_rref_is_idempotent(m):
    red, _ = el.rref(m)
    red2, _ = el.rref(red)
    assert red2 == red


@settings(max_examples=60, deadline=None)
@given(field_matrix())
def test_complement_properties(m):
    sub = el.image(m.transpose())
    full = el.Subspace.full(m.field, m.cols)
    w = el.complement(full, sub)
    assert w.dim == m.cols - sub.dim
    assert intersect(w, sub).dim == 0
    assert w.sum(sub) == full


@settings(max_examples=60, deadline=None)
@given(field_matrix())
def test_quotient_projection_consistency(m):
    sub = el.image(m.transpose())
    full = el.Subspace.full(m.field, m.cols)
    reps, proj = el.quotient_basis(full, sub)
    assert len(reps) == m.cols - sub.dim
    # classes of representatives map to unit coordinate vectors
    for i, r in enumerate(reps):
        coords = proj.matvec(r)
        expected = el.vec_unit(m.field, len(reps), i)
        assert coords == expected
    # anything in sub projects to zero
    for row in sub.basis:
        assert el.vec_is_zero(m.field, proj.matvec(row))


@st.composite
def matrix_and_vector(draw):
    m = draw(field_matrix())
    f = m.field
    entry = st.integers(-4, 4) if f.char == 0 else st.integers(0, f.char - 1)
    b = [f.of(x) for x in draw(st.lists(entry, min_size=m.rows, max_size=m.rows))]
    return m, b


def _solve_reference(m, b):
    """The single-column solve: the dense rref of [m | b], free variables 0."""
    aug = el.Mat(m.field, m.rows, m.cols + 1,
                 [m.data[i] + [b[i]] for i in range(m.rows)])
    red, piv = dense_rref(aug)
    if piv and piv[-1] == m.cols:
        return None
    x = vec_zero(m.field, m.cols)
    for r_i, pc in enumerate(piv):
        x[pc] = red.data[r_i][m.cols]
    return x


@settings(max_examples=80, deadline=None)
@given(matrix_and_vector())
def test_solve_matches_single_column_reference(mb):
    m, b = mb
    assert el.solve(m, b) == _solve_reference(m, b)
    # the columns of m give consistent systems
    for j in range(m.cols):
        assert el.solve(m, m.col(j)) == _solve_reference(m, m.col(j))


@settings(max_examples=80, deadline=None)
@given(field_matrix(), st.data())
def test_solve_multi_matches_single_column_reference(m, data):
    f = m.field
    entry = st.integers(-4, 4) if f.char == 0 else st.integers(0, f.char - 1)
    bs = []
    for consistent in data.draw(st.lists(st.booleans(), min_size=1, max_size=5)):
        size = m.cols if consistent else m.rows
        v = [f.of(x) for x in data.draw(st.lists(entry, min_size=size, max_size=size))]
        # an image m x is consistent; a free vector may be either
        bs.append(m.matvec(v) if consistent else v)
    sols = el.solve_multi(m, bs)
    assert sols == [_solve_reference(m, b) for b in bs]
    for b, x in zip(bs, sols):
        if x is not None:
            assert m.matvec(x) == b


@settings(max_examples=80, deadline=None)
@given(field_matrix(), st.data())
def test_vec_combination_matches_scaled_sum(m, data):
    f = m.field
    entry = st.integers(-4, 4) if f.char == 0 else st.integers(0, f.char - 1)
    coeffs = [f.of(x) for x in data.draw(
        st.lists(entry, min_size=m.rows, max_size=m.rows))]
    expected = vec_zero(f, m.cols)
    for c, v in zip(coeffs, m.data):
        expected = vec_add(f, expected, vec_scale(f, c, v))
    assert vec_combination(f, m.cols, coeffs, m.data) == expected

