"""Model file grammar: parsing and rendering.

Line-oriented, UTF-8, hand-writable:

    model "five-sphere-bundle"
    even x1 : 6
    even x2 : 8
    odd y1 : 29 = x1^5 + x1*x2^3
    odd y2 : 31    # no '=' means d = 0

Expressions use ``+ - * ^`` with integer or rational coefficients and
parentheses; ``#`` starts a comment.  Parsing validates the model, so a
successfully parsed file is always a well-formed minimal model; validation
failures are reported with the line of the offending generator.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .algebra import (
    Element,
    Scalar,
    _degree,
    _exact,
    _key,
    _power,
    _submul,
    _times,
    make_generators,
)
from .errors import (
    InvalidModel,
    ModelSyntaxError,
    UnknownGenerator,
    ValidationError,
)
from .model import SullivanModel

_MODEL_LINE = re.compile(r'^model\s+"([^"]*)"\s*$')
_GEN_LINE = re.compile(
    r"^(even|odd)\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(\d+)\s*(?:=\s*(\S.*))?$")

#: one token per match: a number, a name or an operator, or in the last group
#: any other character, which the scan refuses
_TOKEN = re.compile(r"(\d+(?:/\d+)?|[A-Za-z_][A-Za-z0-9_]*|[+\-*^()])|(\S)")


#: deepest parenthesis nesting an expression may use; each level costs the
#: recursive descent four stack frames, and this keeps it far below Python's
#: recursion limit
MAX_NESTING = 100

#: most bits a product or power may give a coefficient, estimated before the
#: expansion; with the degree bound this keeps any one-line expression cheap
MAX_COEFFICIENT_BITS = 4096

#: most digits a number may have, checked before it is converted: no longer
#: literal could pass the coefficient guard (2^4096 has 1234 digits)
MAX_DIGITS = len(str(2 ** MAX_COEFFICIENT_BITS))


def _digits(v: str, line: int) -> str:
    """v, a number token or degree field, once no digit run in it is longer
    than MAX_DIGITS."""
    if len(max(v.split("/"), key=len)) > MAX_DIGITS:
        raise ModelSyntaxError(f"a number of more than {MAX_DIGITS} digits", line)
    return v


def _size(t: dict[int, Scalar]) -> tuple[int, int]:
    """Largest term degree and largest coefficient bit count (floor log2) of
    the terms t."""
    bits = 1  # the bit length of the largest numerator or denominator
    for c in t.values():
        n = c.numerator.bit_length()
        if n > bits:
            bits = n
        n = c.denominator.bit_length()
        if n > bits:
            bits = n
    return _degree(max(t, default=0)), bits - 1  # a larger degree is a larger key


class _ExprParser:
    """Recursive descent over + - * ^ ( ) with rational coefficients.

    Values are {packed monomial: coefficient} dicts, added, multiplied and
    raised by ``algebra``'s ``_submul``, ``_times`` and ``_power``, as
    ``Element`` is; ``env`` maps each generator's name to its packed
    monomial.  The tokens are plain strings, kept in reverse above an empty
    end marker, so the next one is ``toks[-1]``.  A product or power is
    refused before it is expanded when a term would exceed ``max_degree``,
    the image degree, or a coefficient MAX_COEFFICIENT_BITS bits.
    """

    def __init__(self, text: str, env: dict[str, int], line: int,
                 max_degree: int):
        toks = []
        for tok, bad in _TOKEN.findall(text):
            if bad:
                raise ModelSyntaxError(f"unexpected character {bad!r}", line)
            toks.append(_digits(tok, line) if tok[0].isdigit() else tok)
        self.toks = [""] + toks[::-1]
        self.env = env
        self.line = line
        self.max_degree = max_degree
        self.depth = 0

    def _check(self, degree: int, bits: int) -> None:
        if degree > self.max_degree:
            raise ModelSyntaxError(
                f"a term of degree {degree} exceeds the image degree "
                f"{self.max_degree}", self.line)
        if bits > MAX_COEFFICIENT_BITS:
            raise ModelSyntaxError(
                f"a coefficient of about {bits} bits exceeds the limit of "
                f"{MAX_COEFFICIENT_BITS}", self.line)

    def parse(self) -> dict[int, Scalar]:
        t = self.expr()
        if self.toks[-1]:
            raise ModelSyntaxError(
                f"unexpected {self.toks[-1]!r} after expression", self.line)
        return t

    def expr(self) -> dict[int, Scalar]:
        acc: dict[int, Scalar] = {}
        sign = self.toks.pop() if self.toks[-1] == "-" else "+"
        while sign:  # each sign is popped before its term is read
            _submul(acc, self.term(), 1 if sign == "-" else -1, 0)
            sign = self.toks.pop() if self.toks[-1] in ("+", "-") else None
        return acc

    def term(self) -> dict[int, Scalar]:
        acc = self.power()
        while self.toks[-1] == "*":
            self.toks.pop()
            rhs = self.power()
            (d1, b1), (d2, b2) = _size(acc), _size(rhs)
            self._check(d1 + d2, b1 + b2)
            acc = _times(acc, rhs)
        return acc

    def power(self) -> dict[int, Scalar]:
        base = self.atom()
        if self.toks[-1] == "^":
            self.toks.pop()
            v = self.toks.pop()
            if not v.isdigit():
                raise ModelSyntaxError("exponent must be a positive integer", self.line)
            k = int(v)
            degree, bits = _size(base)
            self._check(k * degree, k * bits)
            return _power(base, k)
        return base

    def atom(self) -> dict[int, Scalar]:
        v = self.toks.pop()
        if v[:1].isdigit():
            try:
                c = _exact(Fraction(v)) if "/" in v else int(v)
            except ZeroDivisionError:
                raise ModelSyntaxError(f"zero denominator in {v}", self.line) from None
            return {0: c} if c else {}
        if v.isidentifier():
            k = self.env.get(v)
            if k is None:
                raise UnknownGenerator(f"line {self.line}: unknown generator {v!r}")
            return {k: 1}
        if v == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ModelSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", self.line)
            t = self.expr()
            if self.toks.pop() != ")":
                raise ModelSyntaxError("missing closing parenthesis", self.line)
            self.depth -= 1
            return t
        raise ModelSyntaxError(
            "expected a number, generator, or parenthesized expression", self.line)


def parse_model(text: str) -> SullivanModel:
    """Parse and validate a model file; raises with line numbers on failure."""
    name = None
    decls: list[tuple[int, str, str, int, str | None]] = []
    lines_of: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _MODEL_LINE.match(line)
        if m:
            if name is not None:
                raise ModelSyntaxError("duplicate model line", lineno)
            if decls:
                raise ModelSyntaxError(
                    "model line must precede generator declarations", lineno)
            name = m.group(1)
            continue
        m = _GEN_LINE.match(line)
        if m is None:
            raise ModelSyntaxError(f"cannot parse {line!r}", lineno)
        parity, gname, expr = m.group(1), m.group(2), m.group(4)
        deg = int(_digits(m.group(3), lineno))
        if parity == "even" and deg % 2:
            raise ModelSyntaxError(
                f"generator {gname!r} declared even but has odd degree {deg}", lineno)
        if parity == "odd" and deg % 2 == 0:
            raise ModelSyntaxError(
                f"generator {gname!r} declared odd but has even degree {deg}", lineno)
        if parity == "even" and expr is not None:
            raise ModelSyntaxError(
                "even generators cannot carry a differential here", lineno)
        if gname in lines_of:
            raise ModelSyntaxError("generator names must be unique within a model", lineno)
        lines_of[gname] = lineno
        decls.append((lineno, parity, gname, deg, expr))
    if name is None:
        raise ModelSyntaxError('missing model "<name>" line', 1)
    if not decls:
        raise ModelSyntaxError("no generator declarations", 1)

    try:
        gens = make_generators([(gname, deg) for _, _, gname, deg, _ in decls])
    except InvalidModel as ex:  # names its generator: duplicates are refused above
        raise ModelSyntaxError(str(ex), lines_of[ex.generator]) from ex
    env = {g.name: _key(g) for g in gens}
    table = {g.index: g for g in gens}
    diffs: dict[str, Element] = {}
    for lineno, parity, gname, deg, expr in decls:
        if expr is None:
            continue
        img = _ExprParser(expr, env, lineno, deg + 1).parse()
        if img:
            diffs[gname] = Element._from_dict(img, table)
    try:
        return SullivanModel(gens, diffs, name=name)
    except ValidationError as ex:
        lineno = lines_of.get(ex.generator)
        raise type(ex)(ex.generator, f"line {lineno}: {ex}") from ex


def render_model(model: SullivanModel) -> str:
    """Canonical file form; parse(render(parse(t))) equals parse(t)."""
    out = [f'model "{model.name}"']
    for g in model.generators:
        kw = "even" if g.is_even else "odd"
        img = model.differential.get(g)
        if img:
            out.append(f"{kw} {g.name} : {g.degree} = {img.render()}")
        else:
            out.append(f"{kw} {g.name} : {g.degree}")
    return "\n".join(out) + "\n"


def load_model(path: str) -> SullivanModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as ex:
            raise ModelSyntaxError(f"not a UTF-8 text file: {ex}") from ex
    return parse_model(text)
