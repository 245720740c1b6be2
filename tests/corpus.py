"""Shared fixtures: small Vquivers and algebras used across the suite."""

from __future__ import annotations

import random

import quivkit as qk
from quivkit.vquiver import VQuiver

QQ = qk.QQ
F2 = qk.GF(2)
F3 = qk.GF(3)
F5 = qk.GF(5)


def triangle_vq():
    return VQuiver(["1", "2", "3"],
                   {("1", "2"): ["a"], ("1", "3"): ["b"], ("3", "2"): ["c"]})


def line_vq():
    # 1 => 2 -> 3 (two parallel arrows then one)
    return VQuiver(["1", "2", "3"],
                   {("1", "2"): ["a", "b"], ("2", "3"): ["c"]})


def loop_vq():
    return VQuiver(["1"], {("1", "1"): ["x"]})


def kronecker_vq():
    return VQuiver(["1", "2"], {("1", "2"): ["a", "b"]})


def one_arrow_vq():
    return VQuiver(["1", "2"], {("1", "2"): ["x"]})


def two_point_vq():
    return VQuiver(["1", "2"], {})


def double_loop_vq():
    return VQuiver(["1"], {("1", "1"): ["x", "y"]})


def vq_corpus():
    return [
        ("two_point", two_point_vq()),
        ("one_arrow", one_arrow_vq()),
        ("loop", loop_vq()),
        ("kronecker", kronecker_vq()),
        ("triangle", triangle_vq()),
        ("line", line_vq()),
    ]


def semisimple(field, r):
    vq = VQuiver([str(i + 1) for i in range(r)], {})
    return qk.build_kvq(field, vq, 2).carrier


def lower_triangular(field):
    """Lower triangular 2x2 matrices by raw structure constants."""
    pos = [(1, 1), (2, 1), (2, 2)]
    labels = ["E11", "E21", "E22"]

    def prod(i, j):
        (a, b), (c, d) = pos[i], pos[j]
        out = [0, 0, 0]
        if b == c:
            out[pos.index((a, d))] = 1
        return out

    sc = [[prod(i, j) for j in range(3)] for i in range(3)]
    return qk.validate_algebra(field, labels, sc, [1, 0, 1])


def upper_triangular(field, n, shuffle=False):
    """Upper triangular n x n matrices by a raw dense table; `shuffle`
    permutes the basis by a fixed seed."""
    pos = [(i, j) for i in range(n) for j in range(i, n)]
    if shuffle:
        random.Random(f"upper-{n}").shuffle(pos)
    index = {p: k for k, p in enumerate(pos)}
    dim = len(pos)
    sc = []
    for (i, j) in pos:
        row = []
        for (k, l) in pos:
            vec = [0] * dim
            if j == k:
                vec[index[(i, l)]] = 1
            row.append(vec)
        sc.append(row)
    unit = [1 if i == j else 0 for (i, j) in pos]
    labels = [f"E{i + 1}{j + 1}" for (i, j) in pos]
    return qk.validate_algebra(field, labels, sc, unit)


def triangle_algebra(field=QQ, level=3):
    return qk.build_kvq(field, triangle_vq(), level)


def triangle_mod_cb(field=QQ, level=3):
    t = triangle_algebra(field, level)
    ideal = qk.ideal_generated_by(t.carrier, [t.carrier.element("cb")])
    quotient, pi = qk.quotient_algebra(t.carrier, ideal)
    return t, ideal, quotient, pi


def truncated_power_series(field, n):
    """k[x]/x^n as a truncated loop algebra."""
    return qk.build_kvq(field, loop_vq(), n)


def algebra_corpus():
    """(name, FinAlgebra) pairs; dims <= 32, fields Q and F5."""
    t_tri = triangle_algebra()
    _, _, tri_q, _ = triangle_mod_cb()
    out = [
        ("k", semisimple(QQ, 1)),
        ("kxk", semisimple(QQ, 2)),
        ("kxkxk", semisimple(QQ, 3)),
        ("lower_tri", lower_triangular(QQ)),
        ("triangle", t_tri.carrier),
        ("triangle_mod_cb", tri_q),
        ("dual_numbers", truncated_power_series(QQ, 2).carrier),
        ("jet3", truncated_power_series(QQ, 4).carrier),
        ("line", qk.build_kvq(QQ, line_vq(), 3).carrier),
        ("kronecker", qk.build_kvq(QQ, kronecker_vq(), 2).carrier),
        ("double_loop", qk.build_kvq(QQ, double_loop_vq(), 3).carrier),
        ("triangle_f5", triangle_algebra(F5).carrier),
        ("jet2_f5", truncated_power_series(F5, 3).carrier),
    ]
    return out


def presented_corpus():
    """(name, TruncatedTensorAlgebra) pairs for path-algebra-only checks."""
    return [
        ("triangle", triangle_algebra()),
        ("line", qk.build_kvq(QQ, line_vq(), 3)),
        ("loop4", truncated_power_series(QQ, 4)),
        ("kronecker", qk.build_kvq(QQ, kronecker_vq(), 2)),
        ("double_loop", qk.build_kvq(QQ, double_loop_vq(), 3)),
        ("two_point", qk.build_kvq(QQ, two_point_vq(), 2)),
    ]


def remark_pair(field=QQ):
    """The non-surjective congruent pair into lower triangular matrices.

    Source is k x k presented as a two-point path algebra; the target is the
    one-arrow path algebra at level 2 (isomorphic to lower triangular 2x2
    with e1 = E11, e2 = E22, x = E21).
    """
    import quivkit.exactlin as el

    t_src = qk.build_kvq(field, two_point_vq(), 2)
    t_tgt = qk.build_kvq(field, one_arrow_vq(), 2)
    a = t_tgt.carrier
    e1, e2, x = a.element("e1"), a.element("e2"), a.element("x")
    col_a = [e1, e2]
    col_b = [el.vec_add(field, e1, x), el.vec_sub(field, e2, x)]
    alpha = qk.validate_morphism(t_src.carrier, a,
                                 el.Mat.from_cols(field, col_a, rows=3))
    beta = qk.validate_morphism(t_src.carrier, a,
                                el.Mat.from_cols(field, col_b, rows=3))
    return t_src, t_tgt, alpha, beta
