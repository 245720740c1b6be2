"""Dense reference forms of the sparse echelon, built on `exactlin.rref`.

`Subspace` keeps sparse reduced row-echelon rows and grows them one vector
at a time.  The functions here are what it replaced: every span a fresh
dense `rref`, elimination over dense rows, the quotient projection solved
with `solve_multi`, and the radical filtration layer by layer.  A subspace
is given here as its dense RREF, a pair (rows, pivots).
"""

import quivkit.exactlin as el


def echelon(field, n, vectors):
    """(rows, pivots): the dense RREF of the span of `vectors`."""
    vectors = [list(v) for v in vectors]
    if not vectors:
        return [], []
    red, piv = el.rref(el.Mat.from_rows(field, vectors, cols=n))
    return [red.data[i] for i in range(len(piv))], piv


def form(sub):
    """(rows, pivots) of a Subspace, for comparison with `echelon`."""
    return sub.basis, sub.pivots


def eliminate(field, rows, pivots, v):
    """Remainder of v after eliminating, in order, each row's pivot entry."""
    v = list(v)
    for row, pc in zip(rows, pivots):
        c = v[pc]
        if c:
            v = [field.sub(x, field.mul(c, b)) for x, b in zip(v, row)]
    return v


def complement(field, n, ambient, sub):
    """The rows of `ambient`'s RREF, in order, independent of `sub` and of
    the rows taken before them, as an RREF; both arguments (rows, pivots)."""
    added, rows, pivots = [], list(sub[0]), list(sub[1])
    for row in ambient[0]:
        if len(rows) == len(ambient[0]):
            break
        rem = eliminate(field, rows, pivots, row)
        pc = next((k for k, x in enumerate(rem) if x), None)
        if pc is not None:
            added.append(row)
            rows.append(el.vec_scale(field, field.inv(rem[pc]), rem))
            pivots.append(pc)
    return echelon(field, n, added)


def quotient_basis(field, n, ambient, sub):
    """(reps, proj rows): the complement's rows and, for each, the
    pivot-minimal x with <rep_j, x> = delta_ij and <s, x> = 0 on sub's rows."""
    reps = complement(field, n, ambient, sub)[0]
    rows = reps + sub[0]
    if not rows:
        return [], []
    targets = [el.vec_unit(field, len(rows), i) for i in range(len(reps))]
    return reps, el.solve_multi(el.Mat.from_rows(field, rows, cols=n), targets)


def intersect(u, w):
    """U ∩ W for two Subspaces, by Zassenhaus: the rows [u|u] for u in U and
    [w|0] for w in W; the rows of their echelon form that vanish on the left
    block span U ∩ W on the right."""
    f, n = u.field, u.ambient_dim
    rows = [r + r for r in u.basis] + [r + el.vec_zero(f, n) for r in w.basis]
    if not rows:
        return el.Subspace.zero(f, n)
    red, piv = el.rref(el.Mat.from_rows(f, rows, cols=2 * n))
    out = [row[n:] for row in red.data[:len(piv)] if not any(row[:n]) and any(row[n:])]
    return el.Subspace.span(f, n, out)


def dense_mul(field, sc, x, y):
    """x * y for dense x and y, straight from the sparse table `sc`."""
    out = [field.zero] * len(x)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                c = field.mul(xi, yj)
                for m, cm in sc[i][j]:
                    out[m] = field.add(out[m], field.mul(c, cm))
    return out


def radical_filtration(field, dim, sc, arrows):
    """[A, J, ..., 0] as (rows, pivots) pairs, layer by layer: W_1 = span of
    the dense `arrows`, W_{n+1} = span(W_n * arrows), and each
    J^n = W_n + J^(n+1) a fresh span of both."""
    layers = [echelon(field, dim, arrows)]
    while layers[-1][0]:
        prods = [dense_mul(field, sc, y, x) for y in layers[-1][0] for x in arrows]
        layers.append(echelon(field, dim, [p for p in prods if any(p)]))
    filtration = [layers.pop()]
    while layers:
        filtration.append(echelon(field, dim, layers.pop()[0] + filtration[-1][0]))
    filtration.append(echelon(field, dim, [el.vec_unit(field, dim, i) for i in range(dim)]))
    return filtration[::-1]
