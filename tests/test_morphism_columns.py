"""Morphisms held as sparse columns, against the dense matrix operations.

An `AlgMorphism` stores the image of each basis vector as a sparse column,
and `apply`, `image_of`, `compose`, `kernel`, `surjective`, `==`,
`is_identity` and `check_sim_n` work on those columns; `inverse` inverts
the dense view.  Each test here compares them with the dense operations
they replaced, kept in `dense_oracle`, over Q, F2, F5 and F101, on psi
maps, identity-class automorphisms, counits at their level and one above,
quotient projections (including ideals such as (a + b), whose columns have
several terms), maps induced on quotients and `factor_delta` results.
"""

import functools
import random

import pytest

import quivkit as qk
import quivkit.exactlin as el
from quivkit.adjunction import counit_factorization, factor_delta, psi
from quivkit.algebra import induced_on_quotient
from quivkit.generators import random_vqmap_to_gq

import dense_oracle as dense
from corpus import lower_triangular, semisimple, two_vq, vq_corpus
from support import is_identity, random_identity_class_automorphism
from test_table_reads import _block_sums

QQ, F2, F5, F101 = el.QQ, el.GF(2), el.GF(5), el.GF(101)
FIELDS = (QQ, F2, F5, F101)
PARTNERS = 4


@functools.lru_cache(maxsize=None)
def _corpus(field):
    """(name, morphism, kind) over `field`; kind "aut" marks automorphisms."""
    rng = random.Random(f"columns-{field!r}")
    out = []
    for name, vq in vq_corpus() + [("TWO", two_vq())]:
        t = qk.build_kvq(field, vq, 4 if name == "loop" else 3)
        a = t.carrier
        out.append((f"{name}_id", qk.identity_morphism(a), "aut"))
        out += [(f"{name}_aut{k}", random_identity_class_automorphism(rng, t), "aut")
                for k in range(2)]
        top = a.basis_vector(t.grading[-1][0]) if len(t.grading) > 1 else None
        for k, v in enumerate(_block_sums(t) + ([top] if top else [])):
            ideal = qk.ideal_generated_by(a, [v])
            if ideal.dim == a.dim:
                continue
            q, pi = qk.quotient_algebra(a, ideal)
            out.append((f"{name}_pi{k}", pi, "map"))
            if top is not None and not ideal.space.contains(top):
                bigger = qk.ideal_generated_by(a, [v, top])
                _q2, pi2 = qk.quotient_algebra(a, bigger)
                out.append((f"{name}_induced{k}", induced_on_quotient(pi, pi2), "map"))
            g = qk.gq(q)
            rho = random_vqmap_to_gq(rng, vq, g, field)
            if rho is not None:
                out.append((f"{name}_psi{k}", psi(t, rho, g), "map"))
            for level in (None, max(2, q.truncation_level) + 1):
                cu = qk.counit(q, level=level)
                out.append((f"{name}_counit{k}_{level}", cu.morphism, "map"))
                tc = cu.source_algebra
                alpha = cu.morphism.compose(random_identity_class_automorphism(rng, tc))
                out.append((f"{name}_delta{k}_{level}",
                            factor_delta(tc, alpha, cu.morphism), "aut"))
                if level is None:
                    out.append((f"{name}_factor{k}", counit_factorization(cu), "aut"))
    return out


def _vectors(rng, field, n):
    """The basis of k^n and two random vectors."""
    vecs = [el.vec_unit(field, n, i) for i in range(n)]
    for _ in range(2):
        vecs.append([field.of(rng.randint(-3, 3)) for _ in range(n)])
    return vecs


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_single_morphism_operations_match_the_dense_matrix(field):
    rng = random.Random(f"columns-vectors-{field!r}")
    kernels = several = 0
    for name, m, kind in _corpus(field):
        a, b, mat = m.source, m.target, m.matrix
        assert (mat.rows, mat.cols) == (b.dim, a.dim), name
        for v in _vectors(rng, field, a.dim):
            assert m.apply(v) == el.sparse(dense.matvec(mat, v)), name
        for n in range(a.truncation_level + 1):
            space = a.radical_power(n)
            ref = el.Subspace.span(field, b.dim, [dense.matvec(mat, v) for v in space.basis])
            assert m.image_of(space) == ref, name
        assert m.surjective == (dense.rank(mat) == b.dim), name
        ker = m.kernel()
        assert ker == el.Subspace.span(field, a.dim, dense.kernel(mat)), name
        kernels += ker.dim > 0
        several += any(len(c) > 1 for c in m.cols)
        assert is_identity(m) == (a is b and mat == el.Mat.identity(field, a.dim)), name
        again = qk.validate_morphism(a, b, mat)
        assert again == m and hash(again) == hash(m) and again.cols == m.cols, name
        if kind == "aut":
            assert m.inverse().matrix == dense.invert(mat), name
            assert is_identity(m.inverse().compose(m)), name
    assert kernels >= 10 and several >= 10


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_pairs_of_morphisms_match_the_dense_matrices(field):
    """Each morphism g is composed with the first few f out of its target and
    compared with the first few f of its own hom-set."""
    corpus = _corpus(field)
    composed = congruent = differ = only_sim0 = not_sim0 = 0
    for name_g, g, _kind in corpus:
        after = [(n, f) for n, f, _k in corpus if g.target.same_as(f.source)]
        for name_f, f in after[:PARTNERS]:
            assert f.compose(g).matrix == dense.matmul(f.matrix, g.matrix), (name_f, name_g)
            composed += 1
        parallel = [(n, f) for n, f, _k in corpus
                    if g.source.same_as(f.source) and g.target.same_as(f.target)]
        for name_f, f in parallel[:PARTNERS]:
            assert (f == g) == (f.matrix == g.matrix), (name_f, name_g)
            differ += f != g
            sims = []
            for n in range(-1, g.source.truncation_level + 2):
                got = qk.check_sim_n(f, g, n)
                assert got == dense.check_sim_n(f, g, n), (name_f, name_g, n)
                sims.append(got)
            congruent += sims[2]
            only_sim0 += sims[1] and not sims[2]
            not_sim0 += not sims[1]
    with pytest.raises(qk.QuivkitError) as exc:
        corpus[0][1].compose(corpus[-1][1])
    assert exc.value.code == "NOT_COMPOSABLE"
    assert composed >= 200 and differ >= 50 and congruent >= 50
    assert only_sim0 >= 5 and not_sim0 >= 5


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_image_of_radical_check_matches_the_layer_loop(field):
    """Decided at n = 1, against the image of every radical layer; the
    inclusion of k^2 into the lower triangular matrices is onto mod radicals
    but not onto (its raw table is admitted where char k is 0 or above 3)."""
    maps = [m for _name, m, _kind in _corpus(field)]
    if field != F2:
        k2, lt = semisimple(field, 2), lower_triangular(field)
        cols = [lt.element("E11"), lt.element("E22")]
        maps.append(qk.validate_morphism(k2, lt, el.Mat.from_cols(field, cols, rows=3)))
    outcomes = [qk.image_of_radical_check(m) for m in maps]
    assert outcomes == [dense.image_of_radical_check(m) for m in maps]
    assert outcomes.count(False) >= 5 and outcomes.count(True) >= 100
