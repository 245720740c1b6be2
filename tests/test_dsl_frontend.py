"""The DSL front end against its previous implementation, kept in
`dsl_oracle`: on every golden, demo and benchmark document, on hand-picked
edge cases and on seeded character mutations of the documents, both give
the same tokens with positions, the same AST with positions and the same
printed text, or the same QuivkitError string."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from quivkit import dsl
from quivkit.errors import QuivkitError

import dsl_oracle
from corpus import perfbench_workloads
from test_cli import DOC as CLI_DOC, FACTOR_DELTA_DOC, LATE_FIELD_DOC, TABLE_F5_DOC
from test_dsl import LOOP_DOC, TRIANGLE_DOC

ROOT = Path(__file__).resolve().parents[1]
# what a mutation inserts or writes over: name, integer and blank characters,
# every symbol and its parts, and non-ASCII letters and digits
ALPHABET = "ab_9 \t\r\n#;,:{}()[]=*+-/>é²٣"
EDGE_CASES = [
    "", "#", "# only a comment", "\n\n", "a", "a #", "a # b", "a\n# b", "\t\r a",
    "1" * 1000, "1" * 1001, "x " + "2" * 1001, "é²٣", "²a", "a²٣", "٣", "1²", "_1",
    "check f(1, x, 2);", "check f();", "check f(,);", "field F;", "field F 7;",
    "algebra A = kvq(V, level=2) / ideal();", "algebra A = table { basis: e; unit: e; };",
    "morphism f: A -> B { x -> 2/0*x; }", "morphism f: A -> B { x -> 2*; }",
    "morphism f: A -> B { x -> - 3/4*x*y + y*; }", "quiver Q { vertices: 1; arrows: ; }",
    "vquiver V { vertices: 1, 2; space 1 -> 2 = [a, 7]; }", "field Q; ->", "- >",
]


def documents():
    bench = perfbench_workloads()
    texts = [(ROOT / "demo" / "triangle.quiv").read_text(encoding="utf-8"),
             (ROOT / "tests" / "golden" / "table_t4.quiv").read_text(encoding="utf-8"),
             CLI_DOC, FACTOR_DELTA_DOC, LATE_FIELD_DOC, TABLE_F5_DOC, LOOP_DOC, TRIANGLE_DOC]
    return texts + [text for _kind, text in bench["cli_universe"](str(ROOT)).values()]


def mutant(rng, text):
    """1 to 3 characters of `text` inserted, deleted or replaced; one in
    four mutants ends in a comment with no newline after it."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("insert", "delete", "replace")) if chars else "insert"
        i = rng.randrange(len(chars) + (op == "insert"))
        if op == "insert":
            chars.insert(i, rng.choice(ALPHABET))
        elif op == "delete":
            del chars[i]
        else:
            chars[i] = rng.choice(ALPHABET)
    if rng.random() < 0.25:
        chars.append(rng.choice(("", " ", "\t", "x;")) + "#" + rng.choice(("", " end", "#;")))
    return "".join(chars)


def _tree(x):
    """Nodes, lists and tuples as nested tuples with their types; positions
    are fields of a Node and are kept."""
    if isinstance(x, dsl.Node):
        return ("Node", x.kind, tuple(sorted((k, _tree(v)) for k, v in x.fields.items())))
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, tuple(_tree(v) for v in x))
    return (type(x).__name__, x)


def front_end(module, text):
    """What `module`'s front end makes of `text`, as far as it gets: its
    tokens with positions, its AST with positions and the AST printed, then
    the error that stopped it."""
    out = []
    try:
        tokens = module.tokenize(text)
        out.append([(t.kind, t.value, t.line, t.col) for t in tokens])
        ast = module.Parser(tokens).document()
        out.append(_tree(ast))
        out.append(dsl.print_ast(ast))
    except QuivkitError as exc:
        out.append(str(exc))
    return out


def test_the_comparison_sees_positions_and_types():
    a, b = dsl.Node("term", coeff=Fraction(1), word=["x"], line=1, col=2), \
        dsl.Node("term", coeff=Fraction(1), word=["x"], line=1, col=3)
    assert a == b and _tree(a) != _tree(b)
    assert _tree(["1"]) != _tree([1]) and _tree(["x"]) != _tree(("x",))
    assert front_end(dsl, "a b") != front_end(dsl, "a  b")
    assert front_end(dsl, "a #") != front_end(dsl, "a  ")


@pytest.mark.parametrize("seed", range(4))
def test_both_front_ends_agree_on_documents_and_their_mutants(seed):
    rng = random.Random(f"dsl-frontend:{seed}")
    texts = documents()
    cases = (texts + EDGE_CASES if seed == 0 else []) + \
        [mutant(rng, text) for text in texts for _ in range(12)]
    outcomes = {1: 0, 2: 0, 3: 0}
    for text in cases:
        got = front_end(dsl, text)
        assert got == front_end(dsl_oracle, text), text
        outcomes[len(got)] += 1
    # lexer errors, parser errors and whole parses all occur
    assert min(outcomes.values()) >= 10, outcomes
