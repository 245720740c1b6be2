"""End-to-end CLI runs: reports, determinism, exit codes, dot export."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quivkit.cli as cli
from quivkit.cli import _default_level, main
from quivkit.pathalg import MAX_KVQ_DIM
from quivkit.vquiver import VQuiver

from corpus import line_vq, loop_vq, triangle_vq

DOC = """
field Q;
vquiver TRI {
  vertices: 1, 2, 3;
  space 1 -> 2 = [a];
  space 1 -> 3 = [b];
  space 3 -> 2 = [c];
}
quiver LINE { vertices: 1, 2, 3; arrows: a: 1 -> 2, b: 1 -> 2, c: 2 -> 3; }
algebra A = kvq(TRI, level=3);
algebra B = kvq(TRI, level=3) / ideal(c*b);
morphism aut: A -> A {
  e1 -> e1; e2 -> e2; e3 -> e3;
  a -> a + c*b; b -> b; c -> c;
}
morphism ident: A -> A {
  e1 -> e1; e2 -> e2; e3 -> e3;
  a -> a; b -> b; c -> c;
}
check sim1(aut, ident);
check gq_dims(A);
check counit(B);
check unit(TRI, 3);
check adjunction(TRI, A);
check factor_delta(aut, ident);
"""


@pytest.fixture()
def doc_file(tmp_path):
    path = tmp_path / "doc.quiv"
    path.write_text(DOC, encoding="utf-8")
    return path


def test_run_gq(doc_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", str(doc_file), "--command", "gq", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["pass"] is True
    by_name = {r["algebra"]: r for r in report["results"]}
    assert by_name["A"]["vertex_count"] == 3
    assert by_name["A"]["arrow_dim_total"] == 3
    assert by_name["B"]["arrow_dim_total"] == 3


def test_run_cpa(doc_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", str(doc_file), "--command", "cpa", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"][0]["quiver"] == "LINE"
    assert report["results"][0]["dim"] == 8


def test_run_counit(doc_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", str(doc_file), "--command", "counit", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    for res in report["results"]:
        assert res["surjective"] and res["kernel_in_J2"]


def test_run_check_suite_and_determinism(doc_file, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["run", str(doc_file), "--command", "check-suite",
                 "--out", str(out1)]) == 0
    assert main(["run", str(doc_file), "--command", "check-suite",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_psi_roundtrip_report(doc_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", str(doc_file), "--command", "psi", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"][0]["failures"] == []


def test_factor_delta_report_includes_refusals(tmp_path):
    text = """
vquiver PTS { vertices: 1, 2; }
vquiver ARR { vertices: 1, 2; space 1 -> 2 = [x]; }
algebra S = kvq(PTS, level=2);
algebra T = kvq(ARR, level=2);
morphism alpha: S -> T { e1 -> e1; e2 -> e2; }
morphism beta: S -> T { e1 -> e1 + x; e2 -> e2 - x; }
check sim1(alpha, beta);
check factor_delta(alpha, beta);
"""
    path = tmp_path / "remark.quiv"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["run", str(path), "--command", "factor-delta",
                 "--out", str(out)])
    assert code == 0  # a refusal with the documented code counts as expected
    report = json.loads(out.read_text())
    assert report["results"][0]["refused"] == "NOT_SURJECTIVE"


def test_check_mode_exit_codes(doc_file, capsys):
    assert main(["check", str(doc_file)]) == 0
    capsys.readouterr()


def test_check_suite_on_semisimple_document(tmp_path, capsys):
    path = tmp_path / "ss.quiv"
    path.write_text("""
vquiver PTS { vertices: u, v, w; }
algebra S = kvq(PTS, level=2);
check gq_dims(S);
check counit(S);
""", encoding="utf-8")
    assert main(["check", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert all(r["pass"] for r in report["results"])


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.quiv"
    bad.write_text("vquiver X { vertices 1; }", encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "PARSE_ERROR" in err


def test_fmt_roundtrip(doc_file, tmp_path, capsys):
    assert main(["fmt", str(doc_file)]) == 0
    text = capsys.readouterr().out
    again = tmp_path / "canon.quiv"
    again.write_text(text, encoding="utf-8")
    assert main(["fmt", str(again)]) == 0
    assert capsys.readouterr().out == text


def test_emit_dot(doc_file, tmp_path):
    out = tmp_path / "report.json"
    dot = tmp_path / "graphs.dot"
    code = main(["run", str(doc_file), "--command", "gq", "--out", str(out),
                 "--emit-dot", str(dot)])
    assert code == 0
    body = dot.read_text()
    assert "digraph TRI" in body and '"1" -> "2"' in body
    assert "digraph LINE" in body


def test_console_entry_point(doc_file):
    proc = _cli("check", str(doc_file))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["pass"] is True


def _path_vq(n):
    names = [str(i) for i in range(n)]
    return VQuiver(names, {(names[i], names[i + 1]): [f"a{i}"] for i in range(n - 1)})


def test_default_level_values():
    assert _default_level(triangle_vq()) == 4
    assert _default_level(line_vq()) == 4
    assert _default_level(loop_vq()) == 2
    assert _default_level(_path_vq(6)) == 7
    assert _default_level(_path_vq(7)) == 8
    assert _default_level(_path_vq(12)) == 8


def test_default_level_bounded_on_complete_digraph():
    names = [str(i) for i in range(12)]
    vq = VQuiver(names, {(s, t): [f"a{s}_{t}"] for s in names for t in names
                         if s != t})
    start = time.perf_counter()
    assert _default_level(vq) == 8
    assert time.perf_counter() - start < 1.0


ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "demo" / "triangle.quiv"
GOLDEN = Path(__file__).resolve().parent / "golden"
# a raw table: the upper triangular 4x4 matrices with their basis shuffled
TABLE_DOC = GOLDEN / "table_t4.quiv"


def _cli(*args, module=("-m", "quivkit.cli"), timeout=None):
    env = {k: v for k, v in os.environ.items() if k != "QUIVKIT_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *module, *args],
                          capture_output=True, env=env, cwd=ROOT, timeout=timeout)


# tests/golden holds the stdout of these commands (QUIVKIT_SEED unset, seed
# fixed).  Reports are promised byte-stable, so only a change that alters
# them on purpose re-records the files.
@pytest.mark.parametrize("args, golden", [
    (["check", str(DEMO)], "check.json"),
    (["run", str(DEMO), "--command", "gq"], "run_gq.json"),
    (["run", str(DEMO), "--command", "counit"], "run_counit.json"),
    (["run", str(DEMO), "--command", "factor-delta"], "run_factor-delta.json"),
    (["run", str(DEMO), "--command", "psi"], "run_psi.json"),
    (["run", str(DEMO), "--command", "cpa"], "run_cpa.json"),
    (["check", str(TABLE_DOC)], "table_check.json"),
    (["run", str(TABLE_DOC), "--command", "gq"], "table_run_gq.json"),
])
def test_demo_reports_match_golden(args, golden):
    proc = _cli(*args, "--seed", "20240901")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_bytes()


LATE_FIELD_DOC = """vquiver V { vertices: 1; space 1 -> 1 = [x]; }
algebra A = kvq(V, level=3);
field F5;
"""


def test_late_field_is_the_reported_field(tmp_path, capsys):
    doc = tmp_path / "late.quiv"
    doc.write_text(LATE_FIELD_DOC, encoding="utf-8")
    out = tmp_path / "gq.json"
    assert main(["run", str(doc), "--command", "gq", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["field"] == "F5"
    doc.write_text("field Q;\n" + LATE_FIELD_DOC, encoding="utf-8")
    capsys.readouterr()
    assert main(["check", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SEMANTIC_ERROR:") and "(line 4, column 1)" in err


def test_check_mode_reports_quivkit_error_with_exit_2(tmp_path):
    text = DEMO.read_text(encoding="utf-8")
    assert "check unit(TRI, 3);" in text
    bad = tmp_path / "bad.quiv"
    bad.write_text(text.replace("check unit(TRI, 3);", "check unit(TRI, 1);"),
                   encoding="utf-8")
    for args in (["check", str(bad)], ["run", str(bad), "--command", "check-suite"]):
        proc = _cli(*args)
        assert proc.returncode == 2, args
        assert proc.stdout == b""
        assert b"Traceback" not in proc.stderr
        assert proc.stderr.decode().startswith("LEVEL_TOO_SMALL:")


@pytest.mark.parametrize("directive, code", [
    ("check unit(TRI, 1);", "LEVEL_TOO_SMALL"),
    # gq(A) of the 2-loop algebra has the level of A, 9: 511 paths in V2
    ("check adjunction(V2, L);", "TOO_LARGE"),
])
def test_check_directive_construction_errors_carry_the_position(tmp_path, capsys,
                                                                directive, code):
    text = DEMO.read_text(encoding="utf-8").replace(
        "check unit(TRI, 3);",
        "vquiver V2 { vertices: 1; space 1 -> 1 = [x, y]; }\n"
        "vquiver LOOP { vertices: 1; space 1 -> 1 = [x]; }\n"
        "algebra L = kvq(LOOP, level=9);\n  " + directive)
    lines = text.split("\n")
    line_no = next(i for i, line in enumerate(lines, 1) if directive in line)
    doc = tmp_path / "directive.quiv"
    doc.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["check", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{code}:")
    assert err.rstrip().endswith(f"(line {line_no}, column 3)")


TABLE_F5_DOC = """field F5;
algebra D = table {
  basis: e, x;
  unit: e;
  e*e = e; e*x = x; x*e = x;
  x*x = 1/5*x;
};
check gq_dims(D);
"""


def _bad_coefficient_docs():
    """(text, term) pairs: a coefficient whose denominator 5 divides, in a
    morphism image and in a table entry, both over F5."""
    demo = DEMO.read_text(encoding="utf-8")
    assert "field Q;" in demo and "a -> a + c*b;" in demo
    morphism = demo.replace("field Q;", "field F5;").replace(
        "a -> a + c*b;", "a -> a + 1/5*c*b;")
    return [(morphism, "1/5*c*b"), (TABLE_F5_DOC, "1/5*x")]


@pytest.mark.parametrize("case", [0, 1], ids=["morphism", "table"])
def test_bad_coefficient_is_a_semantic_error_with_position(tmp_path, case):
    text, term = _bad_coefficient_docs()[case]
    line_no, line = next((i + 1, ln) for i, ln in enumerate(text.splitlines())
                         if term in ln)
    where = f"(line {line_no}, column {line.index(term) + 1})"
    doc = tmp_path / "bad.quiv"
    doc.write_text(text, encoding="utf-8")
    for args in (["check", str(doc)], ["run", str(doc), "--command", "check-suite"]):
        proc = _cli(*args)
        err = proc.stderr.decode()
        assert proc.returncode == 2, (args, err)
        assert "Traceback" not in err
        assert err.startswith("SEMANTIC_ERROR:")
        assert where in err, err


FACTOR_DELTA_DOC = DOC + """
morphism aut2: A -> A {
  e1 -> e1; e2 -> e2; e3 -> e3;
  a -> a + 2*c*b; b -> b; c -> c;
}
check factor_delta(aut2, ident);
"""


def test_each_factor_delta_directive_runs_once(tmp_path, monkeypatch, capsys):
    calls = []
    real = cli.factor_delta

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "factor_delta", counting)
    path = tmp_path / "two.quiv"
    path.write_text(FACTOR_DELTA_DOC, encoding="utf-8")
    assert main(["check", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 2
    by_alpha = {r["args"][0]: r for r in report["results"]
                if r.get("check") == "factor_delta"}
    assert by_alpha["aut"]["alpha"] == "aut" and by_alpha["aut"]["pass"]
    assert by_alpha["aut2"]["alpha"] == "aut2" and by_alpha["aut2"]["pass"]


def _table_doc(n, field):
    """Upper triangular n x n matrices as a `table`, and k[[A_n]] onto it."""
    idx = range(1, n + 1)
    lines = [f"field {field};", "vquiver LIN {",
             f"  vertices: {', '.join(map(str, idx))};"]
    lines += [f"  space {i + 1} -> {i} = [a{i}];" for i in range(1, n)]
    lines += ["}", "algebra T = table {",
              f"  basis: {', '.join(f'E{i}{j}' for i in idx for j in idx if i <= j)};",
              f"  unit: {' + '.join(f'E{i}{i}' for i in idx)};"]
    lines += [f"  E{i}{j}*E{j}{k} = E{i}{k};"
              for i in idx for j in idx for k in idx if i <= j <= k]
    lines += ["};", f"algebra P = kvq(LIN, level={n});", "morphism inc: P -> T {"]
    lines += [f"  e{i} -> E{i}{i};" for i in idx]
    lines += [f"  a{i} -> E{i}{i + 1};" for i in range(1, n)]
    lines += ["}", "check gq_dims(T);", "check counit(T);", "check sim0(inc, inc);"]
    return "\n".join(lines) + "\n"


def test_check_of_a_table_document_does_not_import_sympy(tmp_path):
    doc = tmp_path / "t4.quiv"
    doc.write_text(_table_doc(4, "F101"), encoding="utf-8")
    code = ("import sys\nfrom quivkit import cli\nrc = cli.main(['check', sys.argv[1]])\n"
            "print('RESULT', rc, 'sympy' in sys.modules, file=sys.stderr)\n")
    proc = _cli(str(doc), module=("-c", code))
    assert proc.stderr.decode().splitlines()[-1] == "RESULT 0 False"
    assert json.loads(proc.stdout)["pass"] is True


@pytest.mark.parametrize("n", [5, 6])
def test_upper_triangular_tables_over_q_pass(tmp_path, capsys, n):
    doc = tmp_path / f"t{n}.quiv"
    doc.write_text(_table_doc(n, "Q"), encoding="utf-8")
    assert main(["check", str(doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True and len(report["results"]) >= 3


def _k_power_doc(n):
    """k^n as a `table`: orthogonal idempotents e0 ... e(n-1) summing to 1."""
    labels = [f"e{i}" for i in range(n)]
    return ("field Q;\nalgebra K = table {\n"
            f"  basis: {', '.join(labels)};\n  unit: {' + '.join(labels)};\n"
            + "".join(f"  {e}*{e} = {e};\n" for e in labels)
            + "};\ncheck gq_dims(K);\n")


def test_k64_table_checks_within_two_seconds(tmp_path, capsys):
    doc = tmp_path / "k64.quiv"
    doc.write_text(_k_power_doc(64), encoding="utf-8")
    start = time.perf_counter()
    assert main(["check", str(doc)]) == 0
    assert time.perf_counter() - start < 2.0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True and len(report["results"]) == 2


@pytest.mark.parametrize("mode", ["check", "fmt"])
def test_table_over_the_size_bound_is_refused_at_once(tmp_path, capsys, mode):
    doc = tmp_path / "big.quiv"
    doc.write_text(_k_power_doc(MAX_KVQ_DIM + 1), encoding="utf-8")
    start = time.perf_counter()
    assert main([mode, str(doc)]) == 2
    assert time.perf_counter() - start < 0.1
    assert capsys.readouterr().err == (f"TOO_LARGE: table has {MAX_KVQ_DIM + 1} basis "
                                       f"labels, more than {MAX_KVQ_DIM} (line 2, column 1)\n")


@pytest.mark.parametrize("tag", ["F" + "7" * 5000, "F\u00b2"],
                         ids=["5000-digits", "superscript"])
def test_unreadable_field_characteristic_is_a_bad_field(tmp_path, tag):
    text = DEMO.read_text(encoding="utf-8").replace("field Q;", f"field {tag};")
    doc = tmp_path / "field.quiv"
    doc.write_text(text, encoding="utf-8")
    proc = _cli("check", str(doc), timeout=60)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert "Traceback" not in err
    assert err.startswith("BAD_FIELD:")


def test_oversized_path_algebra_is_refused_quickly(tmp_path):
    text = DEMO.read_text(encoding="utf-8")
    assert "space 3 -> 2 = [c];" in text and "level=3" in text
    text = text.replace("space 3 -> 2 = [c];", "space 3 -> 2 = [c];\n  space 1 -> 1 = [x, y];")
    doc = tmp_path / "big.quiv"
    doc.write_text(text.replace("level=3", "level=40"), encoding="utf-8")
    start = time.perf_counter()
    proc = _cli("check", str(doc), timeout=60)
    assert time.perf_counter() - start < 10
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert "Traceback" not in err
    assert err.startswith("TOO_LARGE:")


@pytest.mark.parametrize("old, new", [
    ("level=3);\nalgebra B", "level=" + "9" * 5000 + ");\nalgebra B"),
    ("a -> a + c*b;", "a -> a + ²*c*b;"),
], ids=["5000-digit-level", "superscript-two"])
def test_unreadable_integer_literal_is_a_parse_error(tmp_path, old, new):
    text = DEMO.read_text(encoding="utf-8")
    assert old in text
    doc = tmp_path / "int.quiv"
    doc.write_text(text.replace(old, new), encoding="utf-8")
    for mode in ("check", "fmt"):
        proc = _cli(mode, str(doc), timeout=60)
        err = proc.stderr.decode()
        assert proc.returncode == 2, (mode, err)
        assert "Traceback" not in err
        assert err.startswith("PARSE_ERROR:") and "(line " in err, err


@pytest.mark.parametrize("old, new, huge", [
    ("check sim1(aut, ident);", "check simn(aut, ident, {});", 10**8),
    ("algebra A = kvq(TRI, level=3);", "algebra A = kvq(TRI, level={});", 10**9),
], ids=["simn", "kvq-level"])
def test_huge_integer_argument_ends_quickly(tmp_path, old, new, huge):
    text = DEMO.read_text(encoding="utf-8")
    assert old in text
    reports = []
    for value in (3, huge):
        doc = tmp_path / f"arg{value}.quiv"
        doc.write_text(text.replace(old, new.format(value)), encoding="utf-8")
        proc = _cli("check", str(doc), "--seed", "20240901", timeout=10)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        for res in report["results"]:
            if res.get("check") == "simn":
                res["args"][2] = "N"
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("args", [
    ["run", "{doc}", "--command", "gq", "--out", "{missing}/report.json"],
    ["run", "{doc}", "--command", "gq", "--emit-dot", "{missing}/graphs.dot"],
    ["fmt", "{doc}", "--out", "{missing}/canon.quiv"],
], ids=["run-out", "run-emit-dot", "fmt-out"])
def test_unwritable_output_path_is_an_input_error(doc_file, tmp_path, args):
    missing = tmp_path / "no" / "such" / "dir"
    proc = _cli(*(a.format(doc=doc_file, missing=missing) for a in args))
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert "Traceback" not in err
    assert str(missing) in err
