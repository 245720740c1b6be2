"""Facts the benchmark checks answers against, computed without quivkit.

Everything here is written apart from the code under test: exact rank and
matrix-vector products over Q (Fractions) and F_p (ints mod p), path
enumeration in a quiver, and the path length of a basis label.  A check
returns None when the answer is right and a short reason when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations


def is_zero(x, p):
    return x % p == 0 if p else x == 0


def rank(rows, p):
    """Rank of a matrix given by rows; entries mod p when p > 0, else in Q."""
    m = [[(x % p) if p else Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if not is_zero(m[i][c], p)), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p) if p else 1 / m[r][c]
        prow = [(x * inv) % p if p else x * inv for x in m[r]]
        m[r] = prow
        for i in range(r + 1, len(m)):
            coef = m[i][c]
            if not is_zero(coef, p):
                row = m[i]
                m[i] = [((a - coef * b) % p) if p else a - coef * b
                        for a, b in zip(row, prow)]
        r += 1
    return r


def matvec(rows, v, p):
    out = []
    for row in rows:
        acc = sum(a * b for a, b in zip(row, v))
        out.append(acc % p if p else acc)
    return out


def paths(vertices, arrows, below):
    """Paths of length < below as (start, end, arrow labels in order)."""
    layer = [(v, v, ()) for v in vertices]
    out = list(layer)
    for _ in range(1, below):
        layer = [(s, tgt, word + (lab,)) for (s, e, word) in layer
                 for (lab, src, tgt) in arrows if src == e]
        out.extend(layer)
    return out


def arrow_dims(vertices, arrows):
    """Arrow count per ordered vertex pair, as an index-keyed dict."""
    pos = {v: i for i, v in enumerate(vertices)}
    dims = {}
    for _lab, src, tgt in arrows:
        key = (pos[src], pos[tgt])
        dims[key] = dims.get(key, 0) + 1
    return dims


def same_quiver_shape(vertices_a, arrows_a, vertices_b, arrows_b):
    """True when some vertex bijection matches every arrow dimension."""
    if len(vertices_a) != len(vertices_b):
        return False
    da = arrow_dims(vertices_a, arrows_a)
    db = arrow_dims(vertices_b, arrows_b)
    n = len(vertices_a)
    for perm in permutations(range(n)):
        if all(db.get((perm[i], perm[j]), 0) == da.get((i, j), 0)
               for i in range(n) for j in range(n)):
            return True
    return False


def label_length(label, vertices, arrow_labels):
    """Path length of a basis label: 0 for e<vertex>, else its arrow count.

    Words of one-letter arrows are written without a joiner ("cb"), other
    words with "*" ("a_1_2_0*a_2_1_0")."""
    if label in {f"e{v}" for v in vertices}:
        return 0
    if label in arrow_labels:
        return 1
    if "*" in label:
        return label.count("*") + 1
    return len(label)
