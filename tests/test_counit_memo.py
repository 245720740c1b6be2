"""The counit's memo of source path algebras.

`counit` takes k[[gq(A)]] from a memo keyed by the field's type, the field,
gq(A)'s Vquiver and the level.  A counit read from a warm memo must equal one
built cold, algebras with one Gabriel quiver must share one source, and the
memo must stay inside its dimension bound.  The autouse fixture of conftest
empties the memo before each test, so each test starts cold.
"""

import gc
import time

import quivkit as qk
import quivkit.exactlin as el
from quivkit import adjunction
from quivkit.pathalg import MAX_KVQ_DIM

from corpus import F2, F5, QQ, algebra_corpus, in_changed_basis, loop_vq, two_vq, vq_corpus
from test_rational_kernel import FQ

F101 = qk.GF(101)


def _memo_dim():
    return sum(t.dim for t in adjunction._COUNIT_SOURCES.values())


def _top_quotient(t, paths):
    """t modulo the ideal of the given top-layer paths."""
    rels = [el.vec_unit(t.field, t.dim, i) for i in paths]
    return qk.quotient_algebra(t.carrier, qk.ideal_generated_by(t.carrier, rels))[0]


def _raw(a):
    """a again, admitted from its raw table in a changed basis."""
    labels, table, unit = in_changed_basis(a)
    return qk.validate_algebra(a.field, labels, table, unit)


def _memo_cases():
    """Path algebras and their quotients over Q, F2, F5, F101 and the
    all-Fraction Q, and raw tables where the characteristic admits them,
    with repeated Gabriel quivers."""
    cases = [(f"Q:{name}", a) for name, a in algebra_corpus()]
    for field, tag in ((QQ, "Q"), (F2, "F2"), (F5, "F5"), (F101, "F101"), (FQ, "FQ")):
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
    warm = [_counit_data(qk.counit(a)) for _name, a in cases]
    hits = len(cases) - len(adjunction._COUNIT_SOURCES)
    for (name, a), got in zip(cases, warm):
        adjunction._COUNIT_SOURCES.clear()
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
    assert adjunction._COUNIT_SOURCES_MAX_DIM == bound == 1024
    # k[x]/x^n has Gabriel quiver one loop and counit source k[x]/x^n
    sources = []
    for n in range(2, 80):
        sources.append(qk.counit(qk.build_kvq(F5, loop_vq(), n).carrier).source_algebra)
        assert _memo_dim() <= bound
        assert next(reversed(adjunction._COUNIT_SOURCES.values())) is sources[-1]
    assert sum(t.dim for t in sources) > 2 * bound
    # what is left is the most recent sources, the least recent evicted
    kept = list(adjunction._COUNIT_SOURCES.values())
    assert kept == sources[-len(kept):]
    assert _memo_dim() + sources[-len(kept) - 1].dim > bound
    # a hit makes its entry the most recent one
    oldest = kept[0]
    assert qk.counit(qk.build_kvq(F5, loop_vq(), oldest.level).carrier).source_algebra is oldest
    assert next(reversed(adjunction._COUNIT_SOURCES.values())) is oldest


def test_counits_of_quotients_at_the_size_bound_finish_in_bounded_cpu_time():
    # ten quotients of TWO at level 7 (254 paths) by one top path each share
    # one Gabriel quiver and one counit source; their ten counits, gq
    # included, took 0.011-0.022 s of CPU time over F5 from a cold memo
    # (median 0.013 s over 7 runs of this test, alone and in the suite) on
    # a 2-core x86-64 VM, so the deadline is 3x the median
    t = qk.build_kvq(F5, two_vq(), 7)
    quotients = [_top_quotient(t, [i]) for i in t.grading[6][:10]]
    gc.collect()
    start = time.process_time()
    counits = [qk.counit(q) for q in quotients]
    assert time.process_time() - start < 0.04
    assert len({id(cu.source_algebra) for cu in counits}) == 1
    assert all(cu.morphism.surjective for cu in counits)
