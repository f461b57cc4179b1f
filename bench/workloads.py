"""Seeded input generators for the four benchmark workloads.

Every workload is a list of model specs drawn from ``random.Random(seed)``;
the program under test receives each model only as model-file text.  Where
a workload's models differ in shape (degrees, lengths, generator counts),
the shapes come from a fixed stream and the seed draws the coefficients, so
the make-up of the workload, and most of its cost, is the same on every
seed.  Polynomials are dicts mapping exponent tuples (one entry per even
generator, in declaration order) to integer coefficients.

Random differentials are retried until the even quotient is
finite-dimensional, as the test suite's random-model recipe does.  That
decision is delegated to a ``finite(polys, even_degrees)`` callable, which
the worker builds from the program's own Groebner engine; its cost is part
of the benchmark's set-up time.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

Poly = dict  # exponent tuple -> int


@dataclass
class ModelSpec:
    name: str
    evens: list  # [(name, degree)]
    odds: list   # [(name, degree, Poly | None)]

    def text(self) -> str:
        names = [n for n, _ in self.evens]
        out = [f'model "{self.name}"']
        out += [f"even {n} : {d}" for n, d in self.evens]
        for n, d, img in self.odds:
            out.append(f"odd {n} : {d} = {render_poly(img, names)}" if img
                       else f"odd {n} : {d}")
        return "\n".join(out) + "\n"

    def formal_dimension(self) -> int:
        return sum(d for _, d, _ in self.odds) - sum(d - 1 for _, d in self.evens)


def render_poly(p: Poly, names: list[str]) -> str:
    parts = []
    for exps in sorted(p, reverse=True):
        c = p[exps]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
        body = "*".join(factors) or "1"
        mag = abs(c)
        if mag != 1 or not factors:
            body = f"{mag}*{body}" if factors else str(mag)
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    head_sign, head = parts[0]
    text = ("-" if head_sign == "-" else "") + head
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _weighted_degree(exps, degrees) -> int:
    return sum(e * d for e, d in zip(exps, degrees))


def _monomial(n: int, combo) -> tuple:
    exps = [0] * n
    for i in combo:
        exps[i] += 1
    return tuple(exps)


def _forms_by_degree(degrees: list[int], l: int) -> dict[int, list]:
    by_degree: dict[int, list] = {}
    for combo in itertools.combinations_with_replacement(range(len(degrees)), l):
        by_degree.setdefault(sum(degrees[i] for i in combo), []).append(combo)
    return by_degree


def support(rng: random.Random, degrees: list[int], l: int, degree: int) -> list:
    """Monomials of a random form of word length l in one cohomological
    degree: each monomial is kept with probability 6/7, the chance that a
    coefficient drawn from [-3, 3] is nonzero, and at least one is kept."""
    basis = [_monomial(len(degrees), c) for c in _forms_by_degree(degrees, l)[degree]]
    kept = [m for m in basis if rng.randrange(7)]
    return kept or [basis[rng.randrange(len(basis))]]


def fill(rng: random.Random, monomials: list) -> Poly:
    """Coefficients drawn from [-3, 3] without 0 on the given monomials."""
    return {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in monomials}


def dense_form(rng: random.Random, degrees: list[int], l: int) -> Poly:
    """A form with every monomial of word length l in the lowest degree."""
    return fill(rng, [_monomial(len(degrees), c) for c in
                      _forms_by_degree(degrees, l)[l * min(degrees)]])


def random_model(shape: random.Random, coef: random.Random, tag: int,
                 finite) -> ModelSpec:
    """The criterion 3/5 recipe: 1-3 evens in degrees {2,4,6}, length 2 or 3,
    one image per even generator, retried until the images generate an ideal
    of finite colength, then 0-2 extra odd generators with a random or zero
    image.

    ``shape`` draws the degrees, the length, the degree each image sits in
    and which of its monomials appear; ``coef`` draws the coefficients.  A
    choice of image degrees and monomials is kept when images with
    coefficients drawn from ``shape`` pass the finiteness test; only then are
    coefficients drawn from ``coef`` until they pass too.  So the shapes, and
    with them most of each model's cost, are the same for every seed.
    """
    n_even = shape.randint(1, 3)
    degrees = sorted(shape.choice((2, 4, 6)) for _ in range(n_even))
    l = shape.choice((2, 3))
    image_degrees = sorted(_forms_by_degree(degrees, l))
    while True:
        supports = [support(shape, degrees, l, shape.choice(image_degrees))
                    for _ in range(n_even)]
        if finite([fill(shape, s) for s in supports], degrees):
            break
    while True:
        images = [fill(coef, s) for s in supports]
        if finite(images, degrees):
            break
    odds = [(f"y{j + 1}", _weighted_degree(next(iter(img)), degrees) - 1, img)
            for j, img in enumerate(images)]
    for j in range(shape.randint(0, 2)):
        if shape.random() < 0.5:
            img = fill(coef, support(shape, degrees, l, shape.choice(image_degrees)))
            odds.append((f"w{j + 1}", _weighted_degree(next(iter(img)), degrees) - 1, img))
        else:
            odds.append((f"w{j + 1}", shape.choice((3, 5, 7, 9)), None))
    evens = [(f"x{i + 1}", d) for i, d in enumerate(degrees)]
    return ModelSpec(f"random-{tag}", evens, odds)


SUITE_SIZE = 200
#: the oracle runs on the first 80 suite models, so that the three rounds a
#: run makes at least take about 25 s; on the first 100 a round takes about 10 s
COHOMOLOGY_SUITE_SIZE = 80
COHOMOLOGY_MAX_DIM = 40
COHOMOLOGY_MARGIN = 6


#: seed of the shape stream; it is the test suite's random-suite seed
SHAPE_SEED = 20260814


def random_suite(seed: int, finite, size: int = SUITE_SIZE) -> list[ModelSpec]:
    """Suite models whose shapes are the same for every seed; the seed draws
    their coefficients."""
    shape, coef = random.Random(SHAPE_SEED), random.Random(seed)
    return [random_model(shape, coef, i, finite) for i in range(size)]


def cohomology_oracle(seed: int, finite) -> list[ModelSpec]:
    """Suite models of formal dimension at most 40 (criterion 4)."""
    return [m for m in random_suite(seed, finite, COHOMOLOGY_SUITE_SIZE)
            if m.formal_dimension() <= COHOMOLOGY_MAX_DIM]


#: models per (n, l) rung, for the rungs that finish in seconds; (5, 2),
#: (4, 3) and (5, 3) are the scaling wall.  With 4 + 16 + 4 = 24 models the
#: median latency (rank 12.5 of 24) falls in the middle of the (3, 3) rung
#: and the 90th percentile (rank 22.5, ``statistics.quantiles``) is the
#: median of the (4, 2) rung, so no single draw of coefficients sets either
LADDER_MODELS = {(3, 2): 4, (3, 3): 16, (4, 2): 4}


def ladder_model(rng: random.Random, n: int, l: int, tag: int, finite) -> ModelSpec:
    """n evens of degree 2 and n odds whose images are dense forms of length l."""
    degrees = [2] * n
    while True:
        images = [dense_form(rng, degrees, l) for _ in range(n)]
        if finite(images, degrees):
            break
    evens = [(f"x{i + 1}", 2) for i in range(n)]
    odds = [(f"y{j + 1}", 2 * l - 1, img) for j, img in enumerate(images)]
    return ModelSpec(f"ladder-n{n}-l{l}-{tag}", evens, odds)


def scaling_ladder(seed: int, finite) -> list[ModelSpec]:
    rng = random.Random(seed)
    return [ladder_model(rng, n, l, t, finite)
            for (n, l), count in LADDER_MODELS.items() for t in range(count)]


# -- search-reject ------------------------------------------------------------

def _linear(rng: random.Random) -> tuple[int, int]:
    while True:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if (a, b) != (0, 0):
            return a, b


def _independent(u, v) -> bool:
    return u[0] * v[1] - u[1] * v[0] != 0


def _product(*forms) -> Poly:
    """Product of linear forms a*x1 + b*x2."""
    out: Poly = {(0, 0): 1}
    for a, b in forms:
        nxt: Poly = {}
        for (i, j), c in out.items():
            for k, (di, dj) in ((a, (1, 0)), (b, (0, 1))):
                if k:
                    m = (i + di, j + dj)
                    nxt[m] = nxt.get(m, 0) + c * k
        out = {m: c for m, c in nxt.items() if c}
    return out


def triangle_model(rng: random.Random, tag: int) -> ModelSpec:
    """Images p*q*A, p*r*B, q*r*C on two evens of degree 2.

    Every pair shares a linear factor, so all three declared subsets are
    rejected.  p, q, r pairwise independent, A, B, C pairwise independent,
    and C not a multiple of p, B of q, A of r make the ideal primary to the
    maximal ideal, so the model is elliptic and the combination enumerator
    finds a basis.
    """
    while True:
        p, q, r, a, b, c = (_linear(rng) for _ in range(6))
        pairs = ((p, q), (p, r), (q, r), (a, b), (a, c), (b, c), (c, p), (b, q), (a, r))
        if all(_independent(u, v) for u, v in pairs):
            break
    images = [_product(p, q, a), _product(p, r, b), _product(q, r, c)]
    evens = [("x1", 2), ("x2", 2)]
    odds = [(f"y{j + 1}", 5, img) for j, img in enumerate(images)]
    return ModelSpec(f"triangle-{tag}", evens, odds)


def prefix_model(rng: random.Random, tag: int, n: int, l: int, k: int,
                 finite) -> ModelSpec:
    """k odds with images x1*(form of length l-1), declared ahead of n odds
    whose images are a regular sequence of dense forms of length l.

    Declared subsets holding two prefix odds share the factor x1 and fail with
    a witness; the search ends at the first subset that is regular.
    """
    degrees = [2] * n
    while True:
        generic = [dense_form(rng, degrees, l) for _ in range(n)]
        if finite(generic, degrees):
            break
    prefix = []
    for _ in range(k):
        tail = dense_form(rng, degrees, l - 1)
        prefix.append({(e[0] + 1,) + e[1:]: c for e, c in tail.items()})
    evens = [(f"x{i + 1}", 2) for i in range(n)]
    odds = [(f"a{j + 1}", 2 * l - 1, img) for j, img in enumerate(prefix)]
    odds += [(f"y{j + 1}", 2 * l - 1, img) for j, img in enumerate(generic)]
    return ModelSpec(f"prefix-n{n}-k{k}-{tag}", evens, odds)


def search_reject(seed: int, finite) -> list[ModelSpec]:
    """Four triangles, sixteen small prefix models (n=3, k=4) and four large
    ones (n=4, k=5).

    With 24 models the median latency (rank 12.5) is the middle of the small
    prefix family and the 90th percentile (rank 22.5) the median of the large
    one, whatever the seed, so one model's draw of coefficients moves
    neither much.
    """
    rng = random.Random(seed)
    out = [triangle_model(rng, t) for t in range(4)]
    out += [prefix_model(rng, t, 3, 2, 4, finite) for t in range(16)]
    out += [prefix_model(rng, t, 4, 2, 5, finite) for t in range(4)]
    return out


GENERATORS = {
    "random-suite": random_suite,
    "cohomology-oracle": cohomology_oracle,
    "scaling-ladder": scaling_ladder,
    "search-reject": search_reject,
}
