"""Token-level mutations of the demo and the test documents.

Each mutant either elaborates or raises a QuivkitError, and `quivkit check`
on it either writes its report (exit 0, or 1 when a check fails) or prints
that same error and exits 2, within a per-example deadline; no other
exception escapes.  Everything runs in process.
"""

import contextlib
import io
import json
from datetime import timedelta
from pathlib import Path

from hypothesis import given, settings, strategies as st

from quivkit import cli
from quivkit.dsl import parse, tokenize
from quivkit.errors import QuivkitError

from test_cli import DOC as CLI_DOC, TABLE_F5_DOC
from test_dsl import LOOP_DOC, TRIANGLE_DOC

DEMO = Path(__file__).resolve().parents[1] / "demo" / "triangle.quiv"
SEED_DOCS = [DEMO.read_text(encoding="utf-8"), TRIANGLE_DOC, CLI_DOC,
             TABLE_F5_DOC, LOOP_DOC]
KEYWORDS = {"field", "quiver", "vquiver", "vertices", "arrows", "space", "algebra",
            "kvq", "cpa", "level", "ideal", "table", "basis", "unit", "morphism",
            "check"}


def _kind(tok):
    return "KEYWORD" if tok.value in KEYWORDS else tok.kind


SEED_TOKENS = [[(_kind(tok), str(tok.value)) for tok in tokenize(text)
                if tok.kind != "EOF"] for text in SEED_DOCS]
# every token of the seeds, plus a zero and an integer far beyond every bound
ALL_TOKENS = sorted({tok for toks in SEED_TOKENS for tok in toks}
                    | {("INT", "0"), ("INT", str(10 ** 30))})
BY_KIND = {kind: [tok for tok in ALL_TOKENS if tok[0] == kind]
           for kind in ("INT", "NAME", "KEYWORD", "SYM")}

# most mutations replace a token by one of its kind (integer, name, keyword,
# symbol), which keeps the grammar often enough to reach the checks
MUTATION = st.tuples(st.sampled_from(["replace"] * 3 + ["delete", "insert", "swap"]),
                     st.integers(min_value=0, max_value=10 ** 4),
                     st.integers(min_value=0, max_value=10 ** 4))


@st.composite
def mutants(draw):
    toks = list(draw(st.sampled_from(SEED_TOKENS)))
    for kind, pos, pick in draw(st.lists(MUTATION, min_size=1, max_size=3)):
        i = pos % len(toks) if toks else 0
        if kind == "insert" or not toks:
            toks.insert(i, ALL_TOKENS[pick % len(ALL_TOKENS)])
        elif kind == "delete":
            del toks[i]
        elif kind == "replace":
            same = BY_KIND[toks[i][0]]
            toks[i] = same[pick % len(same)]
        else:
            j = (i + 1) % len(toks)
            toks[i], toks[j] = toks[j], toks[i]
    return " ".join(value for _kind, value in toks)


def _check(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", str(path)])
    return code, out.getvalue(), err.getvalue()


def test_unmutated_token_streams_behave_as_their_documents(tmp_path):
    codes = []
    for text, toks in zip(SEED_DOCS, SEED_TOKENS):
        path = tmp_path / "seed.quiv"
        path.write_text(text, encoding="utf-8")
        want = _check(path)
        path.write_text(" ".join(value for _kind, value in toks), encoding="utf-8")
        got = _check(path)
        assert got[:2] == want[:2] and got[2].split("(")[0] == want[2].split("(")[0]
        codes.append(got[0])
    assert codes.count(0) >= 3


@settings(max_examples=400, deadline=timedelta(seconds=3), derandomize=True,
          database=None)
@given(text=mutants())
def test_mutated_documents_elaborate_or_fail_with_a_quivkit_error(text, tmp_path_factory):
    try:
        parse(text)
        error = None
    except QuivkitError as exc:
        error = str(exc)
    path = tmp_path_factory.getbasetemp() / "mutant.quiv"
    path.write_text(text, encoding="utf-8")
    code, out, err = _check(path)
    if code == 2:
        assert out == ""
        assert err.split(":")[0].isupper() and "Traceback" not in err
        if error is not None:
            assert err == error + "\n"
    else:
        assert error is None and err == ""
        assert code == (0 if json.loads(out)["pass"] else 1)
