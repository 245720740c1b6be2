"""build_kvq's memo of path algebras, which counit sources come from.

`build_kvq` keeps each admitted k[[VQ]] by the field's type, the field,
the Vquiver (vertices and arrow spaces in label order) and the level.  A
warm build must equal a cold one and be the same object, other keys must
give other entries, a failed build must leave nothing behind, algebras with
one Gabriel quiver must share one counit source, and the memo must stay
inside its dimension bound.  The autouse fixture of conftest empties the
memo before each test, so each test starts cold.
"""

import gc
import time

import pytest

import quivkit as qk
import quivkit.exactlin as el
from quivkit import pathalg
from quivkit.errors import QuivkitError
from quivkit.pathalg import MAX_KVQ_DIM
from quivkit.vquiver import VQuiver

from corpus import (F2, F5, QQ, algebra_corpus, double_loop_vq, in_changed_basis, loop_vq,
                    two_vq, vq_corpus)
from test_rational_kernel import FQ

F101 = qk.GF(101)
FIELDS = ((QQ, "Q"), (F2, "F2"), (F5, "F5"), (F101, "F101"), (FQ, "FQ"))


def _memo_dim():
    return sum(t.dim for t in pathalg._KVQ_MEMO.values())


def _top_quotient(t, paths):
    """t modulo the ideal of the given top-layer paths."""
    rels = [el.vec_unit(t.field, t.dim, i) for i in paths]
    return qk.quotient_algebra(t.carrier, qk.ideal_generated_by(t.carrier, rels))[0]


def _raw(a):
    """a again, admitted from its raw table in a changed basis."""
    labels, table, unit = in_changed_basis(a)
    return qk.validate_algebra(a.field, labels, table, unit)


def _kvq_data(t):
    """Everything a path algebra holds, the field's type included."""
    a = t.carrier
    return (type(t.field), type(a.field), a.basis_labels, a.structconst, a.unit,
            [s.rows for s in a.radical_filtration], a.ss_classes, a.arrows, a.arrow_blocks,
            [(p.start, p.arrows, p.end) for p in t.paths], t.index, t.grading,
            t.vertex_idem, t.arrow_index)


def test_a_warm_build_is_the_cold_one_unchanged():
    # each algebra is used as callers use it (gq, counit, a quotient)
    # before the warm build, which must still equal a build from scratch
    seen = 0
    for field, tag in FIELDS:
        for name, vq in vq_corpus():
            for level in (2, 3, 4):
                t = qk.build_kvq(field, vq, level)
                qk.counit(t.carrier)
                if len(t.grading) > 2:
                    _top_quotient(t, t.grading[-1][:1])
                warm = qk.build_kvq(field, VQuiver(list(vq.vertices), vq.spaces), level)
                assert warm is t, (tag, name, level)
                pathalg._KVQ_MEMO.clear()
                cold = qk.build_kvq(field, vq, level)
                assert cold is not warm
                assert _kvq_data(warm) == _kvq_data(cold), (tag, name, level)
                seen += 1
    assert seen == 5 * 6 * 3


def test_other_keys_are_other_entries():
    t = qk.build_kvq(QQ, two_vq(), 3)
    assert qk.build_kvq(QQ, two_vq(), 3) is t
    # fields that compare equal but write their values differently
    assert FQ == QQ
    assert qk.build_kvq(FQ, two_vq(), 3) is not t
    assert qk.build_kvq(QQ, two_vq(), 4) is not t
    # arrow labels in another order are another arrow basis of their space
    swapped = VQuiver(["1", "2"], {("1", "1"): ["x"], ("1", "2"): ["b", "a"],
                                   ("2", "1"): ["c"]})
    u = qk.build_kvq(QQ, swapped, 3)
    assert u is not t and u.vq == swapped != t.vq
    assert list(u.generators()[1]) != list(t.generators()[1])
    # vertex labels that compare equal but print otherwise
    ints = qk.build_kvq(QQ, VQuiver([1, 2], {(1, 2): ["a"]}), 2)
    floats = qk.build_kvq(QQ, VQuiver([1.0, 2.0], {(1.0, 2.0): ["a"]}), 2)
    assert ints.carrier.basis_labels == ["e1", "e2", "a"]
    assert floats.carrier.basis_labels == ["e1.0", "e2.0", "a"]
    assert len(pathalg._KVQ_MEMO) == 6


@pytest.mark.parametrize("vq, level, code", [
    (two_vq(), 1, "LEVEL_TOO_SMALL"),
    (VQuiver([], {}), 2, "BAD_SHAPE"),
    (double_loop_vq(), 9, "TOO_LARGE"),
], ids=["level", "empty", "size"])
def test_a_failed_build_fails_every_time_and_stores_nothing(vq, level, code):
    qk.build_kvq(F5, loop_vq(), 3)
    before = list(pathalg._KVQ_MEMO.items())
    for _ in range(2):
        with pytest.raises(QuivkitError) as exc:
            qk.build_kvq(F5, vq, level)
        assert exc.value.code == code
        assert list(pathalg._KVQ_MEMO.items()) == before


def _memo_cases():
    """Path algebras and their quotients over Q, F2, F5, F101 and the
    all-Fraction Q, and raw tables where the characteristic admits them,
    with repeated Gabriel quivers."""
    cases = [(f"Q:{name}", a) for name, a in algebra_corpus()]
    for field, tag in FIELDS:
        for name, vq in vq_corpus():
            t = qk.build_kvq(field, vq, 3)
            cases.append((f"{tag}:{name}", t.carrier))
            if len(t.grading) > 2:
                q = _top_quotient(t, t.grading[2][:1])
                cases.append((f"{tag}:{name}/top", q))
                if field.char == 0 or field.char > q.dim:
                    cases.append((f"{tag}:{name}/top:raw", _raw(q)))
    return cases


def _counit_data(cu):
    src = cu.source_algebra.carrier
    return (cu.morphism.cols, cu.kernel_ideal.space, src.basis_labels, src.structconst,
            type(cu.source_algebra.field))


def test_a_warm_memo_gives_the_cold_counit():
    cases = _memo_cases()
    pathalg._KVQ_MEMO.clear()
    warm = [_counit_data(qk.counit(a)) for _name, a in cases]
    hits = len(cases) - len(pathalg._KVQ_MEMO)
    for (name, a), got in zip(cases, warm):
        pathalg._KVQ_MEMO.clear()
        assert got == _counit_data(qk.counit(a)), name
    # a quarter of the warm counits read their source from the memo; the
    # FractionQ cases come after the equal QQ ones and must not read theirs
    assert hits >= len(cases) // 4


def test_quotients_with_one_gabriel_quiver_share_the_source():
    t = qk.build_kvq(F5, two_vq(), 5)
    top = t.grading[4]
    q1, q2 = _top_quotient(t, top[:1]), _top_quotient(t, top[1:3])
    cu1, cu2 = qk.counit(q1), qk.counit(q2)
    assert q1.dim != q2.dim
    assert cu1.gq_result.vquiver == cu2.gq_result.vquiver
    assert cu1.source_algebra is cu2.source_algebra
    # another level or another field is another source
    assert qk.counit(q1, level=6).source_algebra is not cu1.source_algebra
    q3 = _top_quotient(qk.build_kvq(F101, two_vq(), 5), top[:1])
    assert qk.counit(q3).source_algebra is not cu1.source_algebra


def test_eviction_keeps_the_memo_inside_its_bound():
    bound = 4 * MAX_KVQ_DIM
    assert pathalg._KVQ_MEMO_MAX_DIM == bound == 1024
    # k[x]/x^n is the path algebra of one loop at level n
    built = []
    for n in range(2, 80):
        built.append(qk.build_kvq(F5, loop_vq(), n))
        assert _memo_dim() <= bound
        assert next(reversed(pathalg._KVQ_MEMO.values())) is built[-1]
    assert sum(t.dim for t in built) > 2 * bound
    # what is left is the most recent builds, the least recent evicted
    kept = list(pathalg._KVQ_MEMO.values())
    assert kept == built[-len(kept):]
    assert _memo_dim() + built[-len(kept) - 1].dim > bound
    # a hit makes its entry the most recent one
    oldest = kept[0]
    assert qk.build_kvq(F5, loop_vq(), oldest.level) is oldest
    assert next(reversed(pathalg._KVQ_MEMO.values())) is oldest
    # an evicted key is built anew
    assert qk.build_kvq(F5, loop_vq(), 2) is not built[0]


def test_counits_of_quotients_at_the_size_bound_finish_in_bounded_cpu_time():
    # ten quotients of TWO at level 7 (254 paths) by one top path each share
    # one Gabriel quiver and one counit source; their ten counits, gq
    # included, took 0.011-0.022 s of CPU time over F5 from a cold memo
    # (median 0.013 s over 7 runs of this test, alone and in the suite) on
    # a 2-core x86-64 VM, so the deadline is 3x the median
    t = qk.build_kvq(F5, two_vq(), 7)
    quotients = [_top_quotient(t, [i]) for i in t.grading[6][:10]]
    pathalg._KVQ_MEMO.clear()
    gc.collect()
    start = time.process_time()
    counits = [qk.counit(q) for q in quotients]
    assert time.process_time() - start < 0.04
    assert len({id(cu.source_algebra) for cu in counits}) == 1
    assert all(cu.morphism.surjective for cu in counits)
