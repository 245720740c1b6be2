"""Parser, elaboration diagnostics, canonical formatting."""

import pytest

import quivkit as qk
from quivkit.dsl import format_text, parse, parse_ast
from quivkit.errors import QuivkitError
from dense_oracle import vec_add

TRIANGLE_DOC = """
field Q;
vquiver TRI {
  vertices: 1, 2, 3;
  space 1 -> 2 = [a];
  space 1 -> 3 = [b];
  space 3 -> 2 = [c];
}
algebra A = kvq(TRI, level=3);
algebra B = kvq(TRI, level=3) / ideal(c*b);
morphism aut: A -> A {
  e1 -> e1; e2 -> e2; e3 -> e3;
  a -> a + c*b; b -> b; c -> c;
}
check sim1(aut, aut);
"""


def test_parse_triangle_document():
    doc = parse(TRIANGLE_DOC)
    assert doc.algebras["A"].algebra.dim == 7
    assert doc.algebras["B"].algebra.dim == 6
    aut = doc.morphisms["aut"].morphism
    a = doc.algebras["A"].algebra
    # apply returns the sparse form
    assert aut.apply(a.element("a")) == \
        qk.exactlin.sparse(vec_add(qk.QQ, a.element("a"), a.element("cb")))
    assert len(doc.checks) == 1


def test_empty_document():
    doc = parse("")
    assert doc.order == [] and doc.checks == []


def test_duplicate_name_reports_both_positions():
    text = "vquiver X { vertices: 1; }\nvquiver X { vertices: 2; }\n"
    with pytest.raises(QuivkitError) as exc:
        parse(text)
    assert exc.value.code == "DUPLICATE_NAME"
    assert "line 1" in str(exc.value) and "line 2" in str(exc.value)


def test_table_product_given_twice_is_refused_at_its_value():
    text = ("algebra A = table {\n"
            "  basis: e, x;\n  unit: e;\n"
            "  e*e = e; x*e = x; e*x = 2*x;\n"
            "  e*x = x;\n"
            "};\n")
    with pytest.raises(QuivkitError) as exc:
        parse(text)
    assert exc.value.code == "DUPLICATE_NAME"
    assert str(exc.value) == "DUPLICATE_NAME: product e*x given twice (line 5, column 9)"
    # the last statement alone gives an algebra, which used to be admitted
    assert parse(text.replace(" e*x = 2*x;", "")).algebras["A"].algebra.dim == 2


def test_generator_assigned_twice_is_refused_at_its_value():
    text = ("vquiver L { vertices: 1; space 1 -> 1 = [x]; }\n"
            "algebra A = kvq(L, level=3);\n"
            "morphism f: A -> A {\n"
            "  e1 -> e1;\n"
            "  x -> x;\n"
            "  x -> 2*x;\n"
            "}\n")
    with pytest.raises(QuivkitError) as exc:
        parse(text)
    assert str(exc.value) == "DUPLICATE_NAME: generator 'x' assigned twice (line 6, column 8)"
    assert parse(text.replace("  x -> x;\n", "")).morphisms["f"].morphism.matrix.rows == 3


def test_unknown_reference_diagnostic():
    with pytest.raises(QuivkitError) as exc:
        parse("algebra A = kvq(NOPE, level=2);")
    assert exc.value.code == "UNKNOWN_NAME"
    assert "line 1" in str(exc.value)


def test_syntax_error_position():
    with pytest.raises(QuivkitError) as exc:
        parse("vquiver X { vertices 1; }")
    assert exc.value.code == "PARSE_ERROR"
    assert "line 1" in str(exc.value)


def test_table_algebra():
    text = """
algebra D = table {
  basis: e, x;
  unit: e;
  e*e = e; e*x = x; x*e = x;
};
"""
    doc = parse(text)
    d = doc.algebras["D"].algebra
    assert d.dim == 2
    assert d.radical.dim == 1


def test_table_algebra_validation_error_carries_position():
    text = """
algebra D = table {
  basis: e, x;
  unit: e;
  e*e = e;
};
"""
    # x*e and e*x default to zero, so e is not a unit
    with pytest.raises(QuivkitError) as exc:
        parse(text)
    assert exc.value.code == "UNIT_FAIL"
    assert "line" in str(exc.value)


def test_zero_denominator_is_a_parse_error_with_position():
    text = TRIANGLE_DOC.replace("a -> a + c*b;", "a -> a + 1/0*c*b;")
    assert text != TRIANGLE_DOC
    with pytest.raises(QuivkitError) as exc:
        parse(text)
    assert exc.value.code == "PARSE_ERROR"
    assert "zero denominator" in str(exc.value)
    assert "column" in str(exc.value)


def test_morphism_missing_generator():
    text = TRIANGLE_DOC.replace("a -> a + c*b; b -> b; c -> c;", "b -> b; c -> c;")
    with pytest.raises(QuivkitError) as exc:
        parse(text)
    assert exc.value.code == "SEMANTIC_ERROR"
    assert "missing generator images: a" in str(exc.value)


def test_morphism_must_kill_ideal():
    text = """
vquiver L { vertices: 1; space 1 -> 1 = [x]; }
algebra A = kvq(L, level=3) / ideal(x*x);
algebra B = kvq(L, level=3);
morphism bad: A -> B { e1 -> e1; x -> x; }
"""
    # of the second ideal's two relations, x*x*x is killed in B and x*x is not
    for doc in (text, text.replace("level=3) / ideal(x*x)", "level=4) / ideal(x*x*x, x*x)")):
        with pytest.raises(QuivkitError) as exc:
            parse(doc)
        assert str(exc.value) == ("SEMANTIC_ERROR: images do not kill the presentation "
                                  "ideal (line 5, column 1)")


def test_morphism_out_of_quotient_factors_its_lift():
    text = """
vquiver L { vertices: 1; space 1 -> 1 = [x]; }
algebra A = kvq(L, level=4) / ideal(x*x*x);
algebra B = kvq(L, level=3);
morphism f: A -> B { e1 -> e1; x -> 2*x; }
"""
    doc = parse(text)
    entry, b = doc.algebras["A"], doc.algebras["B"].algebra
    x2 = [0, 2, 0]
    lift = qk.universal_map(entry.tensor, b, {"1": b.unit}, {"x": x2})
    f = doc.morphisms["f"].morphism
    assert f.compose(entry.projection).matrix == lift.matrix
    assert f == qk.validate_morphism(entry.algebra, b, f.matrix)


def test_morphism_into_quotient():
    text = """
vquiver L { vertices: 1; space 1 -> 1 = [x]; }
algebra A = kvq(L, level=4);
algebra B = kvq(L, level=4) / ideal(x*x);
morphism proj: A -> B { e1 -> e1; x -> x; }
"""
    doc = parse(text)
    assert doc.morphisms["proj"].morphism.surjective


def test_rational_coefficients():
    text = """
vquiver L { vertices: 1; space 1 -> 1 = [x]; }
algebra A = kvq(L, level=3);
morphism f: A -> A { e1 -> e1; x -> 3/2*x - x*x; }
"""
    doc = parse(text)
    a = doc.algebras["A"].algebra
    img = doc.morphisms["f"].morphism.apply(a.element("x"))
    from fractions import Fraction

    assert img == {1: Fraction(3, 2), 2: Fraction(-1)}
    # integral coefficients elaborate to ints, the rest to Fractions; the
    # sparse image holds no zero
    assert [type(c) for c in img.values()] == [Fraction, int]


def test_finite_field_document():
    text = """
field F5;
vquiver L { vertices: 1; space 1 -> 1 = [x]; }
algebra A = kvq(L, level=3);
"""
    doc = parse(text)
    assert doc.field == qk.GF(5)
    assert doc.algebras["A"].algebra.field == qk.GF(5)


LOOP_DOC = """vquiver V { vertices: 1; space 1 -> 1 = [x]; }
algebra A = kvq(V, level=3);
"""


def test_late_field_declaration_applies_to_the_whole_document():
    doc = parse(LOOP_DOC + "field F5;\n")
    assert doc.field == qk.GF(5)
    assert doc.algebras["A"].algebra.field == qk.GF(5)


def test_second_field_declaration_is_a_positioned_error():
    with pytest.raises(QuivkitError) as exc:
        parse("field Q;\n" + LOOP_DOC + "  field F5;\n")
    assert exc.value.code == "SEMANTIC_ERROR"
    assert str(exc.value).endswith("(line 4, column 3)")
    assert "line 1, column 1" in str(exc.value)


@pytest.mark.parametrize("tag, code", [("F4", "NOT_PRIME"), ("F" + "7" * 1001, "BAD_FIELD")],
                         ids=["F4", "1001-digits"])
def test_field_errors_carry_the_position(tag, code):
    with pytest.raises(QuivkitError) as exc:
        parse(f"# a comment\n\n  field {tag};\n" + LOOP_DOC)
    assert exc.value.code == code
    assert str(exc.value).endswith("(line 3, column 3)")


@pytest.mark.parametrize("text, code", [
    ("vquiver V { vertices: 1; }\nalgebra A = kvq(V, level=0);", "LEVEL_TOO_SMALL"),
    ("quiver Q { vertices: 1; }\n  algebra A = cpa(Q, level=1);", "LEVEL_TOO_SMALL"),
    ("vquiver V { vertices: 1; space 1 -> 1 = [x, y]; }\n"
     "algebra A = kvq(V, level=40);", "TOO_LARGE"),
    ("quiver Q { vertices: 1; arrows: x: 1 -> 1, y: 1 -> 1; }\n"
     "algebra A = cpa(Q, level=40) / ideal(x*y);", "TOO_LARGE"),
])
def test_path_algebra_construction_errors_carry_the_position(text, code):
    with pytest.raises(QuivkitError) as exc:
        parse(text)
    assert exc.value.code == code
    column = text.split("\n")[1].index("algebra") + 1
    assert str(exc.value).endswith(f"(line 2, column {column})")


def test_quiver_and_cpa_declaration():
    text = """
quiver Q { vertices: 1, 2, 3; arrows: a: 1 -> 2, b: 1 -> 2, c: 2 -> 3; }
algebra P = cpa(Q, level=3);
"""
    doc = parse(text)
    assert doc.algebras["P"].algebra.dim == 8


def test_format_roundtrip():
    canon = format_text(TRIANGLE_DOC)
    assert parse_ast(canon) == parse_ast(canon)  # printing is stable
    assert format_text(canon) == canon
    # structural equality with the original document
    assert parse_ast(TRIANGLE_DOC) == parse_ast(canon)


def test_format_preserves_negative_terms():
    text = """
vquiver L { vertices: 1; space 1 -> 1 = [x]; }
algebra A = kvq(L, level=4);
morphism f: A -> A { e1 -> e1; x -> -x + 2*x*x; }
"""
    canon = format_text(text)
    assert "-x + 2*x*x" in canon
    assert parse_ast(canon) == parse_ast(text)


def test_check_signature_validation():
    with pytest.raises(QuivkitError) as exc:
        parse(TRIANGLE_DOC + "\ncheck sim1(aut);")
    assert exc.value.code == "SEMANTIC_ERROR"
    with pytest.raises(QuivkitError) as exc2:
        parse(TRIANGLE_DOC + "\ncheck nonsense(aut);")
    assert exc2.value.code == "SEMANTIC_ERROR"
    with pytest.raises(QuivkitError) as exc3:
        parse(TRIANGLE_DOC + "\ncheck sim1(aut, nope);")
    assert exc3.value.code == "UNKNOWN_NAME"
