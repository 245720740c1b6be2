"""The Q kernel: integral values are ints, the rest Fractions.

`FractionQ` is the kernel it replaced, with every value a Fraction.  Run side
by side, the two must give equal results with identical printed scalars, and
over integral inputs the constructions must keep every scalar an int.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import quivkit as qk
import quivkit.exactlin as el
from quivkit.exactlin import RationalField
from quivkit.generators import random_scalar, random_vqmap_to_gq
from quivkit.poly import roots_if_split

import dense_oracle
from corpus import QQ, presented_corpus, triangle_mod_cb

TWO = qk.VQuiver(["1", "2"], {("1", "1"): ["x"], ("1", "2"): ["a", "b"],
                              ("2", "1"): ["c"]})


class FractionQ(RationalField):
    """Q with every value a Fraction, as every Q scalar was before."""

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return Fraction(1) / a

    def parse(self, text):
        return Fraction(text.strip())


FQ = FractionQ()


def _scalars(obj):
    """Every field value inside nested results, in a fixed order; labels and
    the basis indices of sparse terms are left out."""
    if isinstance(obj, str):
        return []
    if isinstance(obj, (int, Fraction)):
        return [obj]
    if isinstance(obj, el.Mat):
        return _scalars(obj.data)
    if isinstance(obj, el.Subspace):
        return _scalars(obj.basis)
    if isinstance(obj, qk.FinAlgebra):
        return [c for row in obj.structconst for t in row for _m, c in t] \
            + _scalars([obj.unit, obj.radical_filtration, obj.ss_classes])
    if isinstance(obj, dict):
        return _scalars([obj[k] for k in sorted(obj)])
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in _scalars(item)]
    raise TypeError(type(obj))


def _plain(obj):
    """obj with every FinAlgebra replaced by its data, for comparison."""
    if isinstance(obj, qk.FinAlgebra):
        return [obj.basis_labels, obj.structconst, obj.unit,
                obj.radical_filtration, obj.ss_classes]
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_plain(x) for x in obj]
    return obj


def _same(fast, slow):
    """Equal results and identical printed scalars; returns the oracle's
    scalars."""
    assert _plain(fast) == _plain(slow)
    xs, ys = _scalars(fast), _scalars(slow)
    assert [QQ.fmt(x) for x in xs] == [FQ.fmt(y) for y in ys]
    return ys


def _all_fractions(obj):
    return all(type(x) is Fraction for x in _scalars(obj))


def _all_ints(obj):
    return all(type(x) is int for x in _scalars(obj))


# -- scalars ---------------------------------------------------------------------

def test_integral_values_are_ints():
    for x in (QQ.of("6/3"), QQ.inv(Fraction(-1)), QQ.inv(1),
              QQ.of(Fraction(10, 5)), QQ.zero, QQ.one):
        assert type(x) is int
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert QQ.inv(Fraction(-1, 3)) == -3 and type(QQ.inv(Fraction(-1, 3))) is int
    assert QQ.of("3/7") == Fraction(3, 7) and QQ.fmt(QQ.of("-6/4")) == "-3/2"
    assert FQ == QQ and type(FQ.of(3)) is Fraction
    # (x - 2)(2x + 1)(x + 3): roots -3, -1/2, 2
    roots = roots_if_split(QQ, [QQ.of(c) for c in (-6, -11, 3, 2)])
    assert roots == [-3, Fraction(-1, 2), 2]
    assert [type(r) for r in roots] == [int, Fraction, int]
    rng = random.Random("scalars")
    for x in (random_scalar(rng, QQ) for _ in range(60)):
        assert type(x) is (int if x == int(x) else Fraction)


# -- exactlin against the all-Fraction kernel ----------------------------------------

entries = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))


@st.composite
def rational_rows(draw, max_dim=5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


def _both(rows):
    """The same matrix over QQ (ints where integral) and over FQ."""
    out = []
    for f in (QQ, FQ):
        out.append(el.Mat.from_rows(f, [[f.of(x) for x in r] for r in rows],
                                    cols=len(rows[0])))
    return out


@settings(max_examples=120, deadline=None)
@given(rational_rows(), st.integers(0, 2 ** 16))
def test_linear_algebra_matches_the_fraction_kernel(rows, seed):
    m, m_old = _both(rows)
    red, piv = el.rref(m)
    red_old, piv_old = dense_oracle.rref(m_old)
    assert piv == piv_old
    assert _all_fractions(_same(red, red_old))
    assert _all_fractions(_same(el.kernel(m), el.kernel(m_old)))
    rng = random.Random(seed)
    bs = [[rng.choice(rows)[0] * rng.randint(-2, 2) for _ in range(m.rows)]
          for _ in range(3)] + [m.col(0)]
    sols = el.solve_multi(m, [[QQ.of(x) for x in b] for b in bs])
    sols_old = el.solve_multi(m_old, [[FQ.of(x) for x in b] for b in bs])
    assert [s is None for s in sols] == [s is None for s in sols_old]
    assert sols[-1] is not None
    _same([s for s in sols if s is not None], [s for s in sols_old if s is not None])
    for a, a_old in ((m, m_old), (m.transpose(), m_old.transpose())):
        sub, sub_old = el.image(a), el.image(a_old)
        full, full_old = el.Subspace.full(QQ, a.rows), el.Subspace.full(FQ, a.rows)
        assert _all_fractions(_same(el.complement(full, sub),
                                    el.complement(full_old, sub_old)))
        half, half_old = (el.image(el.Mat.from_cols(f, b.columns()[: b.cols // 2 or 1],
                                                    rows=b.rows))
                          for f, b in ((QQ, a), (FQ, a_old)))
        _same(el.complement(sub, half), el.complement(sub_old, half_old))


# -- constructions against the all-Fraction kernel -----------------------------------

def _constructions(field, vq, level, seed):
    """build_kvq, its quotient by the ideal of a seeded combination of all
    paths of length >= 2, gq and counit of both, and psi and phi of seeded
    maps into gq of the quotient."""
    rng = random.Random(seed)
    t = qk.build_kvq(field, vq, level)
    rel = dense_oracle.vec_zero(field, t.dim)
    for i in (i for layer in t.grading[2:] for i in layer):
        rel[i] = random_scalar(rng, field, nonzero=True)
    ideal = qk.ideal_generated_by(t.carrier, [rel])
    q, pi = qk.quotient_algebra(t.carrier, ideal)
    out = {"kvq": t.carrier, "ideal": ideal.space, "quotient": q, "pi": pi.matrix}
    for name, a in (("a", t.carrier), ("q", q)):
        g = qk.gq(a)
        cu = qk.counit(a)
        out[name] = [g.vquiver.spaces, g.splitting.idems.elements, g.arrow_bases,
                     cu.morphism.matrix, cu.kernel_ideal.space]
    g = qk.gq(q)
    maps = []
    for _ in range(3):
        rho = random_vqmap_to_gq(rng, vq, g, field)
        if rho is not None:
            alpha = qk.psi(t, rho, g)
            back = qk.phi(t, alpha, g)
            maps.append([alpha.matrix, back.vertex_map,
                         {k: m.data for k, m in back.arrow_mats.items()}])
    out["maps"] = maps
    return out


def test_constructions_match_the_fraction_kernel():
    mapped = quotients = non_integral = 0
    for name, t in presented_corpus() + [("TWO", qk.build_kvq(QQ, TWO, 4))]:
        new = _constructions(QQ, t.vq, t.level, f"kernel-{name}")
        old = _constructions(FQ, t.vq, t.level, f"kernel-{name}")
        assert new.keys() == old.keys()
        for key in new:
            assert _all_fractions(_same(new[key], old[key])), (name, key)
        mapped += len(new["maps"])
        quotients += new["ideal"].dim > 0
        non_integral += sum(type(x) is Fraction for x in _scalars(new))
    assert mapped >= 6 and quotients >= 4 and non_integral >= 50


def _upper_triangular(field, n, scale):
    """Upper triangular n x n matrices as a raw table on the basis
    scale(i, j) E_ij, so that scales other than 1 give rational constants."""
    pos = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: k for k, p in enumerate(pos)}
    dim = len(pos)
    sc = []
    for (i, j) in pos:
        row = []
        for (k, l) in pos:
            vec = [0] * dim
            if j == k:
                vec[index[(i, l)]] = Fraction(scale(i, j) * scale(k, l), scale(i, l))
            row.append([field.of(c) for c in vec])
        sc.append(row)
    unit = [field.of(Fraction(1, scale(i, j))) if i == j else field.zero for (i, j) in pos]
    labels = [f"E{i + 1}{j + 1}" for (i, j) in pos]
    return qk.validate_algebra(field, labels, sc, unit)


def test_validate_algebra_matches_the_fraction_kernel():
    for n in (3, 4, 5, 6):
        for scale in (lambda i, j: 1, lambda i, j: Fraction(i + 2, j + 1)):
            new = _upper_triangular(QQ, n, scale)
            _same(new, _upper_triangular(FQ, n, scale))
        assert _all_ints(_upper_triangular(QQ, n, lambda i, j: 1))


# -- the fast path stays on -------------------------------------------------------------

def test_integral_constructions_keep_int_scalars():
    """Over Q with integral inputs no Fraction appears, so a Fraction(0) or
    Fraction(1) slipped back into a construction fails here."""
    _, _, tri_q, _ = triangle_mod_cb()
    algebras = [t.carrier for _n, t in presented_corpus()] \
        + [qk.build_kvq(QQ, TWO, 5).carrier, tri_q]
    for a in algebras:
        g = qk.gq(a)
        cu = qk.counit(a)
        assert _all_ints(a) and _all_ints(a.radical), a
        assert _all_ints([g.splitting.idems.elements, g.splitting.blocks]), a
        assert _all_ints([cu.morphism.matrix, cu.kernel_ideal.space]), a
        assert _all_ints(cu.source_algebra.carrier), a
