"""Seeded random instance generation for property suites.

Everything takes an explicit `random.Random`; the CLI and the tests seed it
from QUIVKIT_SEED (default 20240901) so runs are reproducible.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from .errors import QuivkitError
from .algebra import AlgMorphism, IdealSubspace, _combine, ideal_generated_by
from .adjunction import conjugated_images
from .exactlin import Mat
from .gabriel import GabrielQuiverResult
from .pathalg import TruncatedTensorAlgebra, universal_map, vqmap_generator_images
from .vquiver import POINT, VQuiver, VQuiverMap

DEFAULT_SEED = 20240901


def seeded_rng(seed=None) -> random.Random:
    if seed is None:
        value = os.environ.get("QUIVKIT_SEED", DEFAULT_SEED)
        try:
            seed = int(value)
        except ValueError:
            raise QuivkitError("BAD_ARGUMENT", f"QUIVKIT_SEED={value!r} is not an integer") from None
    return random.Random(seed)


def random_scalar(rng: random.Random, field, *, nonzero=False):
    if field.char == 0:
        while True:
            num = rng.randint(-3, 3)
            den = rng.choice([1, 1, 1, 2, 3])
            if not nonzero or num != 0:
                return field.of(Fraction(num, den))
    while True:
        v = rng.randrange(field.char)
        if not nonzero or v != 0:
            return v


def random_vquiver(rng: random.Random, *, max_vertices=4, max_total_arrows=4,
                   prefix="v") -> VQuiver:
    n = rng.randint(1, max_vertices)
    vertices = [f"{prefix}{i + 1}" for i in range(n)]
    total = rng.randint(0, max_total_arrows)
    spaces = {}
    for k in range(total):
        src = rng.choice(vertices)
        tgt = rng.choice(vertices)
        spaces.setdefault((src, tgt), []).append(f"{prefix}x{k}")
    return VQuiver(vertices, spaces)


def random_radical_element(rng, t: TruncatedTensorAlgebra, *, min_length=1):
    """A sparse element on the paths of length >= min_length."""
    f = t.field
    out = {}
    for layer in t.grading[min_length:]:
        for i in layer:
            if rng.random() < 0.4 and (c := random_scalar(rng, f)):
                out[i] = c
    return out


def random_relation_ideal(rng, t: TruncatedTensorAlgebra) -> IdealSubspace:
    """Ideal generated by a few random elements of J^2 (possibly zero)."""
    k = rng.randint(0, 2)
    gens = [random_radical_element(rng, t, min_length=2) for _ in range(k)]
    return ideal_generated_by(t.carrier, gens)


def random_identity_class_automorphism(rng, t: TruncatedTensorAlgebra,
                                       ) -> AlgMorphism:
    """Random member of the identity class: arrow shifts into longer paths,
    then a conjugation, as generator images."""
    f = t.field
    w = None
    if rng.random() < 0.8 and t.carrier.radical.dim > 0:
        w = random_radical_element(rng, t, min_length=1)
    idem_images, arrow_images = t.generators()
    if rng.random() < 0.8:
        for lab, img in arrow_images.items():
            src, tgt, _ = t.vq.arrow_location(lab)
            for i in t.deeper_paths(src, tgt):
                # i is a longer path, not img's arrow: a zero draw stores nothing
                if rng.random() < 0.3 and (c := random_scalar(rng, f)):
                    img[i] = c
    if w is not None:
        idem_images, arrow_images = conjugated_images(t.carrier, w, idem_images,
                                                      arrow_images)
    return universal_map(t, t.carrier, idem_images, arrow_images)


def random_vqmap_to_gq(rng, vq: VQuiver, gq_a: GabrielQuiverResult,
                       field) -> VQuiverMap | None:
    """Random Vquiver map vq -> gq(A); None when no map can exist."""
    tgt = gq_a.vquiver
    n_t = len(tgt.vertices)
    if n_t > len(vq.vertices):
        return None
    kept = rng.sample(range(len(vq.vertices)), n_t)
    image = list(tgt.vertices)
    rng.shuffle(image)
    vm = {v: POINT for v in vq.vertices}
    for pos, idx in enumerate(sorted(kept)):
        vm[vq.vertices[idx]] = image[pos]
    mats = {}
    for (s, t_) in vq.arrow_pairs():
        d = tgt.dim(vm[s], vm[t_])
        m = vq.dim(s, t_)
        if d == 0:
            continue
        data = [[random_scalar(rng, field) for _ in range(m)]
                for _ in range(d)]
        mats[(s, t_)] = Mat(field, d, m, data)
    return VQuiverMap(field, vq, tgt, vm, mats)


def random_padm_morphism(rng, t: TruncatedTensorAlgebra, gq_a, *,
                         conjugate=True) -> AlgMorphism | None:
    """Random admissible morphism k[[VQ]] -> A.

    The generator images of psi of a random Vquiver map (vertices onto the
    lifted idempotents, arrows onto block-compatible radical elements),
    possibly conjugated by 1+w for a random w in J.
    """
    a = gq_a.algebra
    f = t.field
    rho = random_vqmap_to_gq(rng, t.vq, gq_a, f)
    if rho is None:
        return None
    images = vqmap_generator_images(rho, *gq_a.generators())
    if conjugate and a.radical.dim > 0 and rng.random() < 0.7:
        rad = a.radical
        w = _combine(f, rad.rows, [(p, random_scalar(rng, f)) for p in rad.pivots])
        images = conjugated_images(a, w, *images)
    return universal_map(t, a, *images)
