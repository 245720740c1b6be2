"""Self-tests of the benchmark: corrupted answers count as failed, exact
counters repeat, and the tracer puts every original back.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from quivkit import adjunction, algebra, gabriel, pathalg  # noqa: E402


def _replay(op, result):
    """An op that hands back a fixed answer, counted by the benchmark's loop."""
    return workloads.Op(op.name, op.field, op.size, lambda: result, op.check)


def _failed(op, result):
    records = run.run_pass([_replay(op, result)])
    return [reason for _op, _dt, reason in records if reason is not None]


def _small_ops(workload, limit):
    ops = workload.setup()
    return sorted(ops, key=lambda op: op.size)[:limit]


def test_corrupted_counit_answer_is_counted_as_failed():
    op = next(op for op in _small_ops(workloads.CounitScaled(3, ROOT), 4) if op.field == "Q")
    a, g, cu = op.run()
    assert _failed(op, (a, g, cu)) == []
    data = cu.morphism.matrix.data
    data[0] = [a.field.zero] * len(data[0])   # the counit is no longer onto
    assert _failed(op, (a, g, cu)) == ["counit is not surjective"]


def test_corrupted_roundtrip_answer_is_counted_as_failed():
    for op in workloads.Roundtrip(3, ROOT).setup():
        rho_back, alpha_back, same, sim = op.run()
        if rho_back.arrow_mats:
            break
    assert _failed(op, (rho_back, alpha_back, same, sim)) == []
    # the program still claims success; the entry-wise comparison must not
    mat = next(iter(rho_back.arrow_mats.values()))
    f = rho_back.field
    mat.data[0][0] = f.add(mat.data[0][0], f.one)
    assert _failed(op, (rho_back, alpha_back, True, True)) == [
        "phi(psi(rho)) differs from rho entry-wise"]


def test_corrupted_report_bytes_are_counted_as_failed(tmp_path):
    path = tmp_path / "demo.quiv"
    universe = workloads.cli_universe(ROOT)
    path.write_text(universe["demo_triangle"][1], encoding="utf-8")
    with open(workloads.REFERENCE_FILE, encoding="utf-8") as fh:
        ref = json.load(fh)["demo_triangle"]
    code, out = workloads.run_cli_in_process(str(path))
    assert workloads.check_cli(ref, (code, out)) is None
    assert workloads.check_cli(ref, (code, out.replace(b"true", b"false", 1))) is not None
    assert workloads.check_cli(ref, (code, out + b" ")) == \
        "report bytes differ from the reference"
    assert workloads.check_cli(ref, (1, out)) == "exit code 1"


def _counts(seed):
    wl = workloads.CounitScaled(seed, ROOT)
    ops = [op for op in wl.counting_ops(wl.setup()) if op.size <= 14]
    counter = tracer.OpCounter()
    counter.install()
    try:
        records = run.run_pass(ops)
    finally:
        counter.uninstall()
    assert all(reason is None for _op, _dt, reason in records)
    return dict(counter.counts)


def test_exact_counts_repeat_for_the_same_seed():
    first = _counts(5)
    assert first["exactlin.field_mul.count"] > 0
    assert first["algebra.validate_morphism.basis_pairs"] > 0
    assert _counts(5) == first


def test_tracer_wraps_every_holder_and_restores_the_originals():
    originals = (algebra.validate_morphism, pathalg.build_kvq, gabriel.gq,
                 algebra.FinAlgebra.__dict__["mul"])
    spans = tracer.SpanTracer()
    spans.install()
    try:
        assert pathalg.validate_morphism is algebra.validate_morphism is not originals[0]
        assert adjunction.validate_morphism is algebra.validate_morphism
        op = _small_ops(workloads.CounitScaled(3, ROOT), 1)[0]
        assert run.run_pass([op])[0][2] is None
    finally:
        spans.uninstall()
    assert spans.calls["algebra.validate_morphism"] > 0
    assert all(spans.self_s[name] >= 0 for name in spans.calls)
    assert (algebra.validate_morphism, pathalg.build_kvq, gabriel.gq,
            algebra.FinAlgebra.__dict__["mul"]) == originals
    assert pathalg.validate_morphism is originals[0]
