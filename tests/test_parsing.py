"""Model file grammar: round-trips, expressions, line-numbered errors."""
import pathlib
import time
from fractions import Fraction

import pytest

from sullivan.algebra import MAX_DEGREE, MAX_GENERATORS
from sullivan.errors import (
    DegreeMismatch,
    ModelSyntaxError,
    UnknownGenerator,
)
from sullivan.parsing import (
    MAX_COEFFICIENT_BITS,
    MAX_NESTING,
    load_model,
    parse_model,
    render_model,
)

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def test_parse_minimal():
    m = parse_model('model "m"\neven x : 2\nodd y : 3 = x^2\n')
    assert m.name == "m"
    assert m.d(m.element("y")) == m.element("x") ** 2


def test_shipped_files_load_and_roundtrip():
    for path in sorted(MODELS.glob("*.model")):
        m = load_model(path)
        text = render_model(m)
        m2 = parse_model(text)
        assert render_model(m2) == text, path.name
        assert m2.name == m.name
        for g in m.generators:
            assert m.d(m.element(g.name)).render() == \
                m2.d(m2.element(g.name)).render()


def test_rational_coefficients():
    m = parse_model('model "q"\neven x : 2\nodd y : 3 = 1/2*x^2 + x*x\n')
    img = m.d(m.element("y"))
    assert img.render() == "3/2*x^2"


def test_parenthesized_products_expand():
    m = parse_model(
        'model "p"\neven a : 2\neven b : 2\nodd y : 3 = a*(a + b) - b^2\n')
    img = m.d(m.element("y"))
    assert img == (m.element("a") ** 2 + m.element("a") * m.element("b")
                   - m.element("b") ** 2)


def test_unary_minus_and_precedence():
    m = parse_model('model "u"\neven x : 2\nodd y : 3 = -x^2 + 2*x^2\n')
    assert m.d(m.element("y")) == m.element("x") ** 2


def test_zero_image_dropped():
    m = parse_model('model "z"\neven x : 2\nodd y : 3 = x^2 - x^2\n')
    assert m.d(m.element("y")).is_zero()
    assert m.differential_length().render() == "zero"


def test_comments_and_blanks():
    text = '# top comment\nmodel "c"  # trailing\n\neven x : 2\n# mid\nodd y : 3 = x^2\n'
    m = parse_model(text)
    assert m.name == "c"


def test_forward_reference_allowed():
    m = parse_model('model "fwd"\nodd y : 3 = x^2\neven x : 2\n')
    assert m.d(m.element("y")) == m.element("x") ** 2


def test_missing_model_line():
    with pytest.raises(ModelSyntaxError):
        parse_model("even x : 2\n")


def test_duplicate_model_line():
    with pytest.raises(ModelSyntaxError):
        parse_model('model "a"\nmodel "b"\neven x : 2\n')


def test_parity_mismatch_line_number():
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model('model "m"\neven x : 2\nodd w : 4\n')
    assert "line 3" in str(exc.value)


def test_even_with_image_rejected():
    with pytest.raises(ModelSyntaxError):
        parse_model('model "m"\neven x : 2 = x\n')


def test_unknown_identifier_line_number():
    with pytest.raises(UnknownGenerator) as exc:
        parse_model('model "m"\neven x : 2\nodd y : 3 = x*q\n')
    assert "line 3" in str(exc.value)


def test_degree_mismatch_line_number():
    with pytest.raises(DegreeMismatch) as exc:
        parse_model('model "m"\neven x : 2\nodd y : 5 = x^2\n')
    assert "line 3" in str(exc.value)


def test_junk_line():
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model('model "m"\nweird stuff\n')
    assert "line 2" in str(exc.value)


def test_bad_expression_token():
    with pytest.raises(ModelSyntaxError):
        parse_model('model "m"\neven x : 2\nodd y : 3 = x ** 2\n')


def _one_image(expr):
    return f'model "m"\neven x : 2\nodd y : 3 = {expr}\n'


@pytest.mark.parametrize("text, line, message", [
    (_one_image("x $ 2"), 3, "unexpected character '$'"),
    (_one_image("x^2 )"), 3, "unexpected ')' after expression"),
    (_one_image("x^y"), 3, "exponent must be a positive integer"),
    (_one_image("x^1/2"), 3, "exponent must be a positive integer"),
    (_one_image("x^"), 3, "exponent must be a positive integer"),
    (_one_image("(x^2"), 3, "missing closing parenthesis"),
    ('even x : 2\nmodel "m"\n', 2, "model line must precede generator declarations"),
    # make_generators' refusals name the offending declaration's line
    ('model "m"\neven x : 2\nodd y : 3 = x^2\neven x : 4\n', 4,
     "generator names must be unique within a model"),
    ('model "m"\neven x : 2\nodd y : 3 = x^2\nodd u : 5\nodd big : 40001\n', 5,
     "generator 'big' (degree 40001, position 3) is outside the monomial layout: "
     f"degrees below {MAX_DEGREE}, positions 0 to {MAX_GENERATORS - 1}"),
    ('model "m"\n' + "".join(f"odd y{i} : 3\n" for i in range(MAX_GENERATORS + 1)), 34,
     "generator 'y32' (degree 3, position 32) is outside the monomial layout: "
     f"degrees below {MAX_DEGREE}, positions 0 to {MAX_GENERATORS - 1}"),
])
def test_syntax_errors_name_their_line(text, line, message):
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model(text)
    assert type(exc.value) is ModelSyntaxError
    assert str(exc.value) == f"line {line}: {message}"
    assert exc.value.line == line


def test_nesting_limit_line_number():
    def model(depth):
        expr = "(" * depth + "x^2" + ")" * depth
        return f'model "m"\neven x : 2\nodd y : 3 = {expr}\n'

    m = parse_model(model(MAX_NESTING))
    assert m.d(m.element("y")) == m.element("x") ** 2
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model(model(MAX_NESTING + 1))
    assert "line 3" in str(exc.value)


def _three_evens(expr):
    return ('model "m"\neven x1 : 2\neven x2 : 2\neven x3 : 2\n'
            f"odd y : 3 = {expr}\n")


@pytest.mark.parametrize("expr", [
    "(x1+x2+x3)^150",
    "*".join(["(x1+x2+x3)"] * 150),
    "x1^2 + x2^99999999999999999999",
])
def test_degree_guard_refuses_before_expanding(expr):
    start = time.perf_counter()
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model(_three_evens(expr))
    assert time.perf_counter() - start < 1.0
    assert "line 5" in str(exc.value)
    assert "exceeds the image degree 4" in str(exc.value)


@pytest.mark.parametrize("expr", [
    "2^100000000*x1^2",
    "(" * 40 + "9" + ")^1000" * 40 + "*x1^2",
    "*".join(["2^4000"] * 3000) + "*x1^2",
    f"2^{MAX_COEFFICIENT_BITS + 1}*x1^2",
])
def test_coefficient_guard_refuses_before_expanding(expr):
    start = time.perf_counter()
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model(_three_evens(expr))
    assert time.perf_counter() - start < 1.0
    assert "line 5" in str(exc.value)
    assert f"limit of {MAX_COEFFICIENT_BITS}" in str(exc.value)


def test_guards_keep_in_range_powers():
    m = parse_model(_three_evens(
        f"x1^2 + 1/2*x2^2 + 2^{MAX_COEFFICIENT_BITS}*x3^2 + (x1+x2)*(x1-x2)"))
    e = m.element
    assert m.d(e("y")) == (e("x1") ** 2 + Fraction(1, 2) * e("x2") ** 2
                           + 2 ** MAX_COEFFICIENT_BITS * e("x3") ** 2
                           + e("x1") ** 2 - e("x2") ** 2)
    # only an overshoot is refused early; falling short is a DegreeMismatch
    with pytest.raises(DegreeMismatch):
        parse_model(_three_evens("x1"))


def test_load_model_rejects_non_utf8(tmp_path):
    path = tmp_path / "binary.model"
    path.write_bytes(b'model "m"\xa0\xff\x00junk')
    with pytest.raises(ModelSyntaxError) as exc:
        load_model(str(path))
    assert "UTF-8" in str(exc.value)


def test_render_is_grammar_canonical(tower_model):
    text = render_model(tower_model)
    lines = text.strip().split("\n")
    assert lines[0] == 'model "coformal-tower"'
    assert lines[1] == "even x1 : 2"
    assert "odd y1 : 3 = x1^2" in lines
    assert text.endswith("\n")
