"""Model file grammar: round-trips, expressions, line-numbered errors."""
import pathlib
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan.algebra import MAX_DEGREE, MAX_GENERATORS, Element, _degree, _key, make_generators
from sullivan.errors import (
    DegreeMismatch,
    ModelSyntaxError,
    UnknownGenerator,
)
from sullivan.parsing import (
    _GEN_LINE,
    MAX_COEFFICIENT_BITS,
    MAX_NESTING,
    _ExprParser,
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


# -- the packed-term evaluator against the Element one ------------------------

def _element_size(e: Element) -> tuple[int, int]:
    """Reference for ``parsing._size``: largest term degree and largest
    coefficient bit count (floor log2) of e."""
    degree = bits = 0
    for m, c in e._t.items():
        degree = max(degree, _degree(m))
        bits = max(bits, c.numerator.bit_length() - 1, c.denominator.bit_length() - 1)
    return degree, bits


class _ElementParser(_ExprParser):
    """Reference: the evaluator before packed terms, on ``Element``
    arithmetic over an env of name -> Element, with its guards; the
    tokens, ``_check`` and ``parse`` are the parser's own."""

    def expr(self):
        negate = self.toks[-1] == "-"
        if negate:
            self.toks.pop()
        acc = self.term()
        if negate:
            acc = -acc
        while self.toks[-1] in ("+", "-"):
            if self.toks.pop() == "+":
                acc = acc + self.term()
            else:
                acc = acc - self.term()
        return acc

    def term(self):
        acc = self.power()
        while self.toks[-1] == "*":
            self.toks.pop()
            rhs = self.power()
            (d1, b1), (d2, b2) = _element_size(acc), _element_size(rhs)
            self._check(d1 + d2, b1 + b2)
            acc = acc * rhs
        return acc

    def power(self):
        base = self.atom()
        if self.toks[-1] == "^":
            self.toks.pop()
            v = self.toks.pop()
            if not v.isdigit():
                raise ModelSyntaxError("exponent must be a positive integer", self.line)
            k = int(v)
            degree, bits = _element_size(base)
            self._check(k * degree, k * bits)
            return base ** k
        return base

    def atom(self):
        v = self.toks.pop()
        if v[:1].isdigit():
            try:
                return Element.scalar(Fraction(v) if "/" in v else int(v))
            except ZeroDivisionError:
                raise ModelSyntaxError(f"zero denominator in {v}", self.line) from None
        if v.isidentifier():
            e = self.env.get(v)
            if e is None:
                raise UnknownGenerator(f"line {self.line}: unknown generator {v!r}")
            return e
        if v == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ModelSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", self.line)
            e = self.expr()
            if self.toks.pop() != ")":
                raise ModelSyntaxError("missing closing parenthesis", self.line)
            self.depth -= 1
            return e
        raise ModelSyntaxError(
            "expected a number, generator, or parenthesized expression", self.line)


#: evens x, w and odds y, u, v: products of odd factors take Koszul signs,
#: and an odd square vanishes
_GENS = make_generators([("x", 2), ("w", 4), ("y", 3), ("u", 5), ("v", 3)])


def _outcome(parser, env, text, line, max_degree):
    """The parsed terms (key, coefficient, its type) in order, or the
    refusal's type, text and line."""
    try:
        t = parser(text, env, line, max_degree).parse()
    except (ModelSyntaxError, UnknownGenerator) as ex:
        return type(ex), str(ex), getattr(ex, "line", None)
    t = t._t if isinstance(t, Element) else t
    return [(k, c, type(c)) for k, c in t.items()]


def _assert_parsers_agree(text, line=7, max_degree=30):
    got = _outcome(_ExprParser, {g.name: _key(g) for g in _GENS}, text, line, max_degree)
    ref = _outcome(_ElementParser, {g.name: Element.from_generator(g) for g in _GENS},
                   text, line, max_degree)
    assert got == ref, text
    return got


@st.composite
def _expressions(draw, depth=2):
    """An expression of 1 to 3 terms, each a product of 1 to 3 factors: a
    generator, a number, a fraction or (depth allowing) a parenthesized
    expression, each perhaps raised to a power; rarely an unknown name, a
    zero denominator or a number over the coefficient guard."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.integers(0, 19 if depth else 14))
            if kind < 8:
                f = draw(st.sampled_from([g.name for g in _GENS]))
            elif kind < 11:
                f = str(draw(st.integers(0, 12)))
            elif kind < 14:
                f = f"{draw(st.integers(0, 9))}/{draw(st.integers(1, 4))}"
            elif kind < 15:
                f = draw(st.sampled_from(["z", "1/0", "2^4097"]))
            else:
                f = f"({draw(_expressions(depth - 1))})"
            if draw(st.integers(0, 3)) == 0:
                f += f"^{draw(st.sampled_from([0, 1, 2, 3, 5]))}"
            factors.append(f)
        terms.append("*".join(factors))
    text = "-" * draw(st.booleans()) + terms[0]
    return text + "".join(f" {draw(st.sampled_from('+-'))} {t}" for t in terms[1:])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_expressions(), st.integers(0, 40))
def test_packed_terms_match_the_element_evaluator(text, max_degree):
    # the same terms in the same order with the same coefficient types, or
    # the same refusal at the same line
    _assert_parsers_agree(text, 7, max_degree)


@pytest.mark.parametrize("expr", [
    "(x + y)*(x - y)*u", "y*v + v*y", "v*y*u - u*y*v", "(y + u)^2", "y^2 + (x*y)^3 + (y*v)^2",
    "(x + 1/2*w)^3 - 2/3*x*(x + w)", "3/6*x^2 + x^0*4/2", "-(x + (-2))", "(x^2 + w)^7",
])
def test_the_evaluators_agree_on_signs_squares_and_fractions(expr):
    assert isinstance(_assert_parsers_agree(expr), list)


@pytest.mark.parametrize("expr, message", [
    ("(x + w)^8", "a term of degree 32 exceeds the image degree 30"),
    ("x*(x + w)^7*w", "a term of degree 34 exceeds the image degree 30"),
    ("2^4097*x", f"a coefficient of about 4097 bits exceeds the limit of {MAX_COEFFICIENT_BITS}"),
    ("(2^2048 + x)*(2^2049*x)",
     f"a coefficient of about 4097 bits exceeds the limit of {MAX_COEFFICIENT_BITS}"),
    ("x + 1/0", "zero denominator in 1/0"),
])
def test_the_evaluators_refuse_alike(expr, message):
    assert _assert_parsers_agree(expr, 11, 30) == (ModelSyntaxError, f"line 11: {message}", 11)


def test_the_evaluators_agree_on_the_shipped_images():
    for path in sorted(MODELS.glob("*.model")):
        text = path.read_text(encoding="utf-8")
        model = parse_model(text)
        env = {g.name: _key(g) for g in model.generators}
        ref_env = {g.name: model.element(g.name) for g in model.generators}
        for line in text.splitlines():
            m = _GEN_LINE.match(line.split("#", 1)[0].strip())
            if m and m.group(4):
                degree = int(m.group(3)) + 1
                assert (_outcome(_ExprParser, env, m.group(4), 1, degree)
                        == _outcome(_ElementParser, ref_env, m.group(4), 1, degree)), path.name
