"""One coordinate map and one morphism builder for the adjunction's hom-sets.

Every class in A/J and J/J^2 is read through the inverse of a Gabriel
quiver's adapted basis, and every morphism out of a path algebra is built by
universal_map from generator images.  The references below are the earlier
readers and builders, kept as oracles: the per-block solve against
[block | J^2], the radical membership loop, the decomposition solve of the
right adjoint, the class coordinates of the semisimple correspondence, and
the column-by-column conjugations.  The sparse class reads are also held
to the dense read, `invert` of the adapted basis and `Mat.matvec`.
"""

import random

import pytest

import quivkit as qk
from quivkit.adjunction import conjugation_automorphism
from quivkit.algebra import identity_morphism, validate_morphism
from quivkit.exactlin import (Mat, invert, solve, solve_multi, vec_add, vec_combination,
                              vec_is_zero, vec_sub, vec_unit, vec_zero)
from quivkit.gabriel import gq0, pointed_set
from quivkit.generators import (random_identity_class_automorphism,
                                random_padm_morphism, random_radical_element,
                                random_scalar, random_vqmap_to_gq)
from quivkit.homsets import enumerate_vquiver_maps
from quivkit.pathalg import build_kvq, universal_map, vqmap_generator_images
from quivkit.splittings import conjugate_element, make_splitting
from quivkit.vquiver import VQuiverMap, identity_vqmap

from corpus import (
    F2,
    F3,
    F5,
    QQ,
    algebra_corpus,
    semisimple,
    triangle_mod_cb,
    truncated_power_series,
    vq_corpus,
)

F101 = qk.GF(101)

# ---------------------------------------------------------------------------
# the earlier readers and builders, as oracles
# ---------------------------------------------------------------------------


def ref_arrow_class_coords(g, src, tgt, radical_vec):
    """Solve against [block vectors | J^2 basis]; None outside the block."""
    a = g.algebra
    f = a.field
    vecs = g.arrow_bases.get((src, tgt), [])
    cols = [list(v) for v in vecs] + [list(v) for v in a.radical_power(2).basis]
    if not cols:
        return [] if vec_is_zero(f, radical_vec) else None
    sol = solve(Mat.from_cols(f, cols, rows=a.dim), list(radical_vec))
    return None if sol is None else sol[:len(vecs)]


def ref_vertex_of_idempotent(g, idem):
    """The first vertex whose splitting idempotent differs from idem by J."""
    a = g.algebra
    for pos, e in enumerate(g.splitting.idems.elements):
        if a.radical.contains(vec_sub(a.field, e, idem)):
            return g.vertex_names[pos]
    return None


def dense_coordinate_map(g):
    """Inverse of the adapted basis by a dense `invert`."""
    a = g.algebra
    cols = list(g.splitting.idems.elements)
    for pair in g.vquiver.spaces:
        cols.extend(g.arrow_bases[pair])
    cols.extend(a.radical_power(2).basis)
    return invert(Mat.from_cols(a.field, cols, rows=a.dim))


def dense_vertex_of_idempotent(g, inverse, idem):
    """The vertex whose unit vector heads the dense coordinates of idem."""
    r = len(g.vertex_names)
    head = inverse.matvec(idem)[:r]
    for pos, name in enumerate(g.vertex_names):
        if head == vec_unit(g.algebra.field, r, pos):
            return name
    return None


def dense_arrow_class_coords(g, inverse, src, tgt, radical_vec):
    """The dense coordinates of the requested block; None when any other
    coordinate below J^2 is nonzero."""
    coords = inverse.matvec(radical_vec)
    lo = len(g.vertex_names)
    for pair, labs in g.vquiver.spaces.items():
        if pair == (src, tgt):
            break
        lo += len(labs)
    hi = lo + g.vquiver.dim(src, tgt)
    j2 = len(g.vertex_names) + g.vquiver.total_arrow_dim()
    if vec_is_zero(g.algebra.field, coords[:lo] + coords[hi:j2]):
        return coords[lo:hi]
    return None


def ref_right_adjoint_matrix(rho, g, k2):
    """Decompose every basis vector over (idempotents, sorted arrow bases,
    J^2) in one solve, and send the parts to their images."""
    a = g.algebra
    f = a.field
    b = k2.carrier
    idem_images, arrow_images = vqmap_generator_images(rho, b.dim, *k2.generators())
    cols = list(g.splitting.idems.elements)
    images = [idem_images[name] for name in g.vertex_names]
    for (src, tgt), vecs in sorted(g.arrow_bases.items()):
        cols.extend(vecs)
        images.extend(arrow_images[lab] for lab in g.vquiver.spaces[(src, tgt)])
    j2 = a.radical_power(2)
    cols.extend(j2.basis)
    images.extend(vec_zero(f, b.dim) for _ in j2.basis)
    all_coords = solve_multi(Mat.from_cols(f, cols, rows=a.dim),
                             [a.basis_vector(i) for i in range(a.dim)])
    assert all(c is not None for c in all_coords)
    out = [vec_combination(f, b.dim, c, images) for c in all_coords]
    return Mat.from_cols(f, out, rows=b.dim)


def ref_class_coordinates(a):
    """Coordinates of each basis vector mod J in the canonical basis of A/J."""
    cols = [list(c) for c in a.ss_classes] + [list(v) for v in a.radical.basis]
    system = Mat.from_cols(a.field, cols, rows=a.dim)
    sols = solve_multi(system, [a.basis_vector(i) for i in range(a.dim)])
    assert all(sol is not None for sol in sols)
    return [sol[:len(a.ss_classes)] for sol in sols]


def ref_semisimple_to_alg_matrix(a, sigma, pset):
    f = a.field
    target_t = build_kvq(f, pset, 2)
    n = target_t.dim
    images = [vec_zero(f, n) if sigma.vertex_map[name] == qk.POINT
              else target_t.idempotent(sigma.vertex_map[name])
              for name in qk.gq(a).vertex_names]
    cols = [vec_combination(f, n, coords, images)
            for coords in ref_class_coordinates(a)]
    return Mat.from_cols(f, cols, rows=n)


def ref_conjugation_automorphism(t, v):
    """Conjugate every basis vector, one column at a time."""
    a = t.carrier
    cols = [conjugate_element(a, v, a.basis_vector(i)) for i in range(a.dim)]
    return validate_morphism(a, a, Mat.from_cols(a.field, cols, rows=a.dim))


def ref_random_padm_morphism(rng, t, gq_a, *, conjugate=True):
    """psi of a random map, then dim column conjugations and a second
    validation."""
    a = gq_a.algebra
    f = t.field
    rho = random_vqmap_to_gq(rng, t.vq, gq_a, f)
    if rho is None:
        return None
    alpha = qk.psi(t, rho, gq_a)
    if conjugate and a.radical.dim > 0 and rng.random() < 0.7:
        coeffs = [f.of(random_scalar(rng, f)) for _ in a.radical.basis]
        w = vec_combination(f, a.dim, coeffs, a.radical.basis)
        cols = [conjugate_element(a, w, col) for col in alpha.matrix.columns()]
        alpha = validate_morphism(t.carrier, a, Mat.from_cols(f, cols, rows=a.dim))
    return alpha


def ref_random_identity_class_automorphism(rng, t):
    """A conjugation, a shift of the arrows, and their composite."""
    f = t.field
    delta = identity_morphism(t.carrier)
    if rng.random() < 0.8 and t.carrier.radical.dim > 0:
        v = random_radical_element(rng, t, min_length=1)
        delta = ref_conjugation_automorphism(t, v)
    if rng.random() < 0.8:
        arrow_images = {}
        for lab in t.vq.arrow_labels():
            src, tgt, _ = t.vq.arrow_location(lab)
            img = t.arrow_element(lab)
            for i in t.deeper_paths(src, tgt):
                if rng.random() < 0.3:
                    img[i] = f.of(random_scalar(rng, f))
            arrow_images[lab] = img
        shift = universal_map(t, t.carrier, t.generators()[0], arrow_images)
        delta = delta.compose(shift)
    return delta


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def _finite_corpus(field):
    out = [(name, build_kvq(field, vq, 3).carrier) for name, vq in vq_corpus()]
    out.append(("triangle_mod_cb", triangle_mod_cb(field)[2]))
    out.append(("jet4", truncated_power_series(field, 4).carrier))
    out.append(("kxk", semisimple(field, 2)))
    return out


def _algebras():
    yield from (("Q", name, a) for name, a in algebra_corpus())
    for field, tag in ((F2, "F2"), (F3, "F3")):
        yield from ((tag, name, a) for name, a in _finite_corpus(field))


def _random_vector(rng, a, vecs):
    f = a.field
    coeffs = [f.of(random_scalar(rng, f)) for _ in vecs]
    return vec_combination(f, a.dim, coeffs, vecs)


def _shift(i, j, k, sub):
    return sub.basis[(i + 2 * j + k) % sub.dim] if sub.dim else None


def _gq_results(a, rng):
    """gq through the default splitting, a conjugated one, and a conjugated
    one whose arrow section is shifted into J^2."""
    out = [qk.gq(a)]
    if a.radical.dim:
        w = _random_vector(rng, a, a.radical.basis)
        out.append(qk.gq(a, make_splitting(a, conjugate_by=w)))
        out.append(qk.gq(a, make_splitting(a, conjugate_by=w, t_shift=_shift)))
    return out


def _cases():
    rng = random.Random(20261018)
    for tag, name, a in _algebras():
        for g in _gq_results(a, rng):
            yield f"{tag}:{name}", rng, g


# ---------------------------------------------------------------------------
# the coordinate map against the readers
# ---------------------------------------------------------------------------


def test_arrow_class_coords_match_the_block_solve():
    checked = nones = 0
    for case, rng, g in _cases():
        a = g.algebra
        j2 = a.radical_power(2).basis
        full = [a.basis_vector(i) for i in range(a.dim)]
        blocks = list(g.arrow_bases.items())
        pairs = [(s, t) for s in g.vertex_names for t in g.vertex_names]
        for src, tgt in pairs:
            vecs = [_random_vector(rng, a, full), _random_vector(rng, a, a.radical.basis),
                    vec_zero(a.field, a.dim)]
            for _pair, block in blocks:
                # an element of a block plus J^2, the right one or a wrong one
                vecs.append(vec_add(a.field, _random_vector(rng, a, block),
                                    _random_vector(rng, a, j2)))
            for x in vecs:
                want = ref_arrow_class_coords(g, src, tgt, x)
                assert g.arrow_class_coords(src, tgt, x) == want, (case, src, tgt)
                checked += 1
                nones += want is None
    assert checked > 1000 and 0 < nones < checked


def test_vertex_of_idempotent_matches_the_radical_loop():
    checked = matched = 0
    for case, rng, g in _cases():
        a = g.algebra
        f = a.field
        idems = g.splitting.idems.elements
        vecs = [vec_zero(f, a.dim), a.unit]
        for e in idems:
            vecs.append(e)
            vecs.append(vec_add(f, e, _random_vector(rng, a, a.radical.basis)))
            vecs.append(vec_add(f, e, _random_vector(rng, a, idems)))
        # idempotents of another splitting of the same algebra
        vecs.extend(qk.gq(a).splitting.idems.elements)
        for x in vecs:
            want = ref_vertex_of_idempotent(g, x)
            assert g.vertex_of_idempotent(x) == want, case
            checked += 1
            matched += want is not None
    assert checked > 300 and 0 < matched < checked


@pytest.mark.parametrize("tag", ["Q", "F2", "F5", "F101"])
def test_sparse_class_reads_match_the_dense_coordinate_map(tag):
    rng = random.Random(f"class-reads-{tag}")
    field = {"Q": QQ, "F2": F2, "F5": F5, "F101": F101}[tag]
    corpus = algebra_corpus() if field is QQ else _finite_corpus(field)
    checked = nones = 0
    for name, a in corpus:
        for g in _gq_results(a, rng):
            inverse = dense_coordinate_map(g)
            assert g.coordinate_map() == inverse, name
            j2 = a.radical_power(2).basis
            idems = g.splitting.idems.elements
            vecs = [vec_zero(field, a.dim), a.unit,
                    _random_vector(rng, a, [a.basis_vector(i) for i in range(a.dim)]),
                    _random_vector(rng, a, a.radical.basis)]
            for e in idems:
                vecs.append(vec_add(field, e, _random_vector(rng, a, a.radical.basis)))
            # block elements plus J^2: in the requested block or out of it
            for block in g.arrow_bases.values():
                vecs.append(vec_add(field, _random_vector(rng, a, block),
                                    _random_vector(rng, a, j2)))
            for x in vecs:
                want = dense_vertex_of_idempotent(g, inverse, x)
                assert g.vertex_of_idempotent(x) == want, name
                for src in g.vertex_names:
                    for tgt in g.vertex_names:
                        want = dense_arrow_class_coords(g, inverse, src, tgt, x)
                        assert g.arrow_class_coords(src, tgt, x) == want, (name, src, tgt)
                        checked += 1
                        nones += want is None
    assert checked > 300 and 0 < nones < checked


def test_right_adjoint_matches_the_decomposition_solve():
    checked = 0
    for case, rng, g in _cases():
        f = g.algebra.field
        rhos = [identity_vqmap(g.vquiver, f),
                random_vqmap_to_gq(rng, g.vquiver, g, f)]
        for rho in rhos:
            k2 = build_kvq(f, rho.target, 2)
            alpha = qk.right_adjoint_phi(rho, g, k2_target=k2)
            assert alpha.matrix == ref_right_adjoint_matrix(rho, g, k2), case
            checked += 1
    assert checked > 100


def test_semisimple_to_alg_matches_the_class_coordinates():
    checked = 0
    for case, _rng, g in _cases():
        a = g.algebra
        f = a.field
        for size in range(1, len(g.vertex_names) + 1):
            pset = pointed_set([f"w{i}" for i in range(size)])
            to_alg, to_pset = qk.semisimple_adjunction_bijection(a, pset, gq_a=g)
            # the maps have no blocks, so F2's enumeration lists them all
            for pm in enumerate_vquiver_maps(F2, gq0(a, g), pset):
                sigma = VQuiverMap(f, pm.source, pset, pm.vertex_map, {})
                alpha = to_alg(sigma)
                assert alpha.matrix == ref_semisimple_to_alg_matrix(a, sigma, pset), case
                assert to_pset(alpha) == sigma, case
                checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# morphisms from generator images against the column-by-column builders
# ---------------------------------------------------------------------------


def _path_algebras():
    for field in (QQ, F2, F3):
        for _name, vq in vq_corpus():
            yield build_kvq(field, vq, 3)
    yield truncated_power_series(QQ, 5)


def test_conjugation_automorphism_matches_basis_conjugation():
    rng = random.Random(7)
    checked = 0
    for t in _path_algebras():
        if not t.carrier.radical.dim:
            continue
        for _ in range(3):
            v = random_radical_element(rng, t)
            assert conjugation_automorphism(t, v) == ref_conjugation_automorphism(t, v)
            checked += 1
    assert checked >= 40


@pytest.mark.parametrize("field", [QQ, F3], ids=["Q", "F3"])
def test_random_padm_morphism_matches_the_parent_construction(field):
    new_rng, ref_rng = random.Random(5), random.Random(5)
    built = 0
    for _tname, tgt_vq in vq_corpus():
        g = qk.gq(build_kvq(field, tgt_vq, 3).carrier)
        for _sname, src_vq in vq_corpus():
            t = build_kvq(field, src_vq, 3)
            for conjugate in (True, False):
                got = random_padm_morphism(new_rng, t, g, conjugate=conjugate)
                want = ref_random_padm_morphism(ref_rng, t, g, conjugate=conjugate)
                assert got == want
                assert new_rng.getstate() == ref_rng.getstate()
                built += got is not None
    assert built > 20


@pytest.mark.parametrize("field", [QQ, F2, F3], ids=["Q", "F2", "F3"])
def test_random_identity_class_automorphism_matches_the_parent_construction(field):
    new_rng, ref_rng = random.Random(11), random.Random(11)
    for t in [build_kvq(field, vq, 3) for _name, vq in vq_corpus()] * 3:
        got = random_identity_class_automorphism(new_rng, t)
        assert got == ref_random_identity_class_automorphism(ref_rng, t)
        assert new_rng.getstate() == ref_rng.getstate()
