"""Independent output checks: sympy and closed forms, no code from ``sullivan``.

Each check takes the model text the program was given and the program's
rendered output for it, and returns a list of problems (empty when every
check holds).  The Groebner computations here are sympy's; the identities
are the ones a reader would use to re-check an answer by hand:

- a certificate (witness w, exponent N) of an even generator x satisfies
  d(w) = x^N, and x^(N-1) lies outside the differential ideal;
- n weighted-homogeneous f_i in n variables of weights w_j form a regular
  sequence iff the quotient is finite-dimensional, and then its dimension is
  prod(deg f_i) / prod(w_j) (the Hilbert series of a complete intersection);
- cat = n_odd + (l-2) n_even, tc = 2 cat + chi_pi, and tc = dim V at l = 2;
- a rejection at index k with witness w has w*a_k in (a_1..a_{k-1}) and
  w outside it;
- the cohomology of a pure elliptic model has H^0 = H^f = 1, vanishes above
  the formal dimension f, satisfies Poincare duality, has Euler
  characteristic 0 when chi_pi < 0, and when chi_pi = 0 has total dimension
  prod(|y_i|+1) / prod(|x_j|).
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from math import prod

import sympy as sp

_GEN = re.compile(r"^(even|odd)\s+(\w+)\s*:\s*(\d+)\s*(?:=\s*(.+))?$")
_TERM = re.compile(r"\s*([+-]?)\s*([^+-]+)")


def parse_terms(text: str, names: list[str]) -> dict[tuple, Fraction]:
    """Exponent tuple -> coefficient of a rendered polynomial such as
    ``x1^2 - 3/2*x1*y2 + 5``; every factor must be one of ``names``."""
    pos = {n: i for i, n in enumerate(names)}
    out: dict[tuple, Fraction] = {}
    for sign, body in _TERM.findall(text.strip()):
        coeff = Fraction(-1 if sign == "-" else 1)
        exps = [0] * len(names)
        for factor in body.strip().split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            name, _, e = factor.partition("^")
            exps[pos[name]] += int(e or 1)
        key = tuple(exps)
        out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


class Model:
    """The model text, read into sympy polynomials over the even generators."""

    def __init__(self, text: str):
        self.evens: list[tuple[str, int]] = []
        self.odds: list[tuple[str, int]] = []
        exprs: dict[str, str] = {}
        for line in text.splitlines():
            m = _GEN.match(line.strip())
            if m is None:
                continue
            kind, name, deg, expr = m.group(1), m.group(2), int(m.group(3)), m.group(4)
            (self.evens if kind == "even" else self.odds).append((name, deg))
            if expr:
                exprs[name] = expr
        self.even_names = [n for n, _ in self.evens]
        self.x = sp.symbols(self.even_names)
        self.d = {n: self.poly(exprs.get(n, "0")) for n, _ in self.odds}
        self._ideals: dict = {}

    def poly(self, text: str) -> sp.Poly:
        """A rendered even polynomial."""
        terms = parse_terms(text, self.even_names) if text != "0" else {}
        return sp.Poly.from_dict(terms or {(0,) * len(self.x): 0}, *self.x, domain="QQ")

    def power(self, name: str, n: int) -> sp.Poly:
        return sp.Poly(sp.Symbol(name) ** n, *self.x, domain="QQ")

    @property
    def chi_pi(self) -> int:
        return len(self.evens) - len(self.odds)

    def formal_dimension(self) -> int:
        return sum(d for _, d in self.odds) - sum(d - 1 for _, d in self.evens)

    def weighted_degrees(self, f: sp.Poly) -> set[int]:
        w = [d for _, d in self.evens]
        return {sum(a * b for a, b in zip(mon, w)) for mon in f.monoms()}

    def word_lengths(self) -> set[int]:
        out = set()
        for f in self.d.values():
            if not f.is_zero:
                out |= {sum(mon) for mon in f.monoms()}
        return out

    def differential(self, element: str, odd: dict[str, sp.Poly]) -> sp.Poly:
        """d of an element linear in the odd generators named in ``odd``
        (name -> d of it): d(sum p_j u_j) = sum p_j d(u_j) for even p_j."""
        names = list(odd)
        k = len(self.even_names)
        parts: dict[int, dict] = {}
        for exps, c in parse_terms(element, self.even_names + names).items():
            odd_exps = exps[k:]
            if sum(odd_exps) != 1:
                raise ValueError(f"{element!r} is not linear in {names}")
            parts.setdefault(odd_exps.index(1), {})[exps[:k]] = c
        total = sp.Poly(0, *self.x, domain="QQ")
        for j, terms in parts.items():
            total += sp.Poly.from_dict(terms, *self.x, domain="QQ") * odd[names[j]]
        return total

    def ideal(self, gens: list[sp.Poly]):
        key = tuple(tuple(sorted(g.terms())) for g in gens)
        if key not in self._ideals:
            nonzero = [g for g in gens if not g.is_zero]
            self._ideals[key] = (sp.groebner(nonzero, *self.x, order="grevlex",
                                             domain="QQ") if nonzero else None)
        return self._ideals[key]

    def contains(self, gens: list[sp.Poly], f: sp.Poly) -> bool:
        if f.is_zero:
            return True
        G = self.ideal(gens)
        return G is not None and G.contains(f)

    def complete_intersection_dim(self, image_degrees: list[int]) -> int | None:
        num = prod(image_degrees)
        den = prod(d for _, d in self.evens)
        return num // den if num % den == 0 else None


def _ext_names(model: Model, k: int) -> list[str]:
    """Names the extension model gives its odd generators: z1, z2, ...,
    each suffixed with '_' until it clashes with no even generator's name."""
    taken = {n for n, _ in model.evens}
    names = []
    for i in range(k):
        z = f"z{i + 1}"
        while z in taken:
            z += "_"
        taken.add(z)
        names.append(z)
    return names


def check_extension(model: Model, ext: dict) -> list[str]:
    bad = []
    z_odd = ext["z_odd"]
    if len(z_odd) != len(model.evens):
        return [f"{len(z_odd)} odd basis elements for {len(model.evens)} evens"]
    images, degrees = [], []
    for z in z_odd:
        f = model.differential(z["element"], model.d)
        if f.is_zero or model.weighted_degrees(f) != {z["degree"] + 1}:
            bad.append(f"d({z['element']}) is zero or not of degree {z['degree'] + 1}")
        images.append(f)
        degrees.append(z["degree"] + 1)
    if bad:
        return bad
    G = model.ideal(images)
    if G is None or not G.is_zero_dimensional:
        bad.append("odd basis images do not generate an ideal of finite colength")
    expected = model.complete_intersection_dim(degrees)
    ver = ext["verification"]
    if not ver.get("passed") or ver.get("quotient_dimension") != expected:
        bad.append(f"quotient dimension {ver.get('quotient_dimension')} != "
                   f"prod deg f / prod deg x = {expected}")
    zs = _ext_names(model, len(images))
    dz = dict(zip(zs, images))
    certs = {c["generator"]: c for c in ext["certificates"]}
    if sorted(certs) != sorted(n for n, _ in model.evens):
        bad.append(f"certificates for {sorted(certs)}")
    for name, c in certs.items():
        n = c["exponent"]
        power = model.power(name, n)
        if model.poly(c["boundary"]) != power:
            bad.append(f"boundary {c['boundary']} is not {name}^{n}")
        if model.differential(c["witness"], dz) != power:
            bad.append(f"d(witness) != {name}^{n}")
        if n < 1 or model.contains(images, model.power(name, n - 1)):
            bad.append(f"{name}^{n - 1} already lies in the ideal; {n} is not minimal")
    return bad


def check_bound(model: Model, bound: dict) -> list[str]:
    lengths = model.word_lengths() or {2}
    if len(lengths) != 1:
        return [f"mixed word lengths {sorted(lengths)}"]
    l = lengths.pop()
    n_even, n_odd = len(model.evens), len(model.odds)
    cat = n_odd + (l - 2) * n_even
    bad = []
    if bound["cat_value"]["value"] != cat:
        bad.append(f"cat {bound['cat_value']['value']} != {cat}")
    tc = bound["tc_upper"]["value"]
    if tc != 2 * cat + model.chi_pi:
        bad.append(f"tc {tc} != 2 cat + chi_pi = {2 * cat + model.chi_pi}")
    if l == 2 and tc != n_even + n_odd:
        bad.append(f"coformal tc {tc} != dim V = {n_even + n_odd}")
    if bound["chi_pi"] != model.chi_pi:
        bad.append(f"chi_pi {bound['chi_pi']} != {model.chi_pi}")
    return bad


def check_cohomology(model: Model, out: dict) -> list[str]:
    f = model.formal_dimension()
    dims = out["dims"]
    bad = []
    if out["elliptic"] is not True or out["formal_dimension"] != f:
        bad.append(f"elliptic={out['elliptic']} formal dimension "
                   f"{out['formal_dimension']} != {f}")
        return bad
    if len(dims) <= f or dims[0] != 1 or dims[f] != 1:
        return [f"H^0 or H^{f} is not 1: {dims[:1]} {dims[f:f + 1]}"]
    if any(dims[f + 1:]):
        bad.append("cohomology above the formal dimension")
    if any(dims[k] != dims[f - k] for k in range(f + 1)):
        bad.append("Poincare duality fails")
    euler = sum((-1) ** k * d for k, d in enumerate(dims))
    if model.chi_pi < 0 and euler != 0:
        bad.append(f"Euler characteristic {euler} != 0 with chi_pi < 0")
    if model.chi_pi == 0:
        expected = model.complete_intersection_dim([d + 1 for _, d in model.odds])
        if sum(dims) != expected:
            bad.append(f"total dimension {sum(dims)} != {expected}")
    if model.chi_pi > 0:
        bad.append("chi_pi > 0 cannot be elliptic")
    return bad


def _candidate_images(model: Model, candidate: list[str]) -> list[sp.Poly]:
    return [model.d[c] if c in model.d else model.differential(c, model.d)
            for c in candidate]


def check_search(model: Model, out: dict) -> list[str]:
    payload = json.loads(out["stdout"])
    bad = []
    for r in payload["rejected"]:
        if r["reason"] != "regular_sequence" or "witness" not in r:
            bad.append(f"rejection {r['candidate']} without a witness: {r['reason']}")
            continue
        a = _candidate_images(model, r["candidate"])
        k = r["failing_index"]
        w = model.poly(r["witness"])
        prefix = a[:k - 1]
        if not model.contains(prefix, w * a[k - 1]):
            bad.append(f"{r['candidate']}: witness times a_{k} is outside the prefix ideal")
        if model.contains(prefix, w):
            bad.append(f"{r['candidate']}: witness lies in the prefix ideal")
    found = payload["found"]
    n_rejected = len(payload["rejected"])
    if found is None:
        if out["exit"] != 1 or not payload["subset_complete"]:
            bad.append("no basis reported without a completed subset search")
    else:
        images = _candidate_images(model, found)
        G = model.ideal(images)
        if (out["exit"] != 0 or len(found) != len(model.evens)
                or G is None or not G.is_zero_dimensional):
            bad.append(f"reported basis {found} is not regular")
    if n_rejected < 100 and payload["tried"] != n_rejected + (found is not None):
        bad.append(f"tried {payload['tried']} != rejected {n_rejected} + found")
    return bad


def check(workload: str, text: str, output: str) -> list[str]:
    """Problems with one operation's output; empty when every check holds."""
    model = Model(text)
    out = json.loads(output)
    if workload == "random-suite":
        return check_extension(model, out["extend"]) + check_bound(model, out["bound"])
    if workload == "scaling-ladder":
        return check_extension(model, out)
    if workload == "cohomology-oracle":
        return check_cohomology(model, out)
    if workload == "search-reject":
        return check_search(model, out)
    raise ValueError(f"unknown workload {workload!r}")
