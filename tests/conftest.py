"""Shared fixtures: canned models, the random model suite, criterion reporting."""
import itertools
import pathlib
import random

import pytest

from sullivan import build_model, load_model
from sullivan.algebra import Element, Generator, Monomial, _derive_into, _image
from sullivan.groebner import buchberger, quotient_is_finite_dimensional
from sullivan.model import SullivanModel

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"

# one line per acceptance criterion, echoed in the terminal summary
_CRITERION_LINES: dict[int, str] = {}


def record_criterion(n: int, ok: bool, elapsed: float,
                     budget: float | None = None, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    timing = f"{elapsed:.2f}s"
    if budget is not None:
        timing += f" / budget {budget:g}s"
    line = f"[criterion {n}] {status} ({timing})"
    if detail:
        line += f" {detail}"
    _CRITERION_LINES[n] = line
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for n in sorted(_CRITERION_LINES):
            terminalreporter.write_line(_CRITERION_LINES[n])


class Derivation:
    """The degree +1 derivation with arbitrary generator images, applied by
    ``algebra._derive_into``, the step ``SullivanModel.d`` runs.  Its images
    need not make a model: they may be linear, sit on even generators or
    have d^2 != 0, so no ``SullivanModel`` can carry them."""

    def __init__(self, images: dict):
        self.generators = tuple(sorted(images, key=lambda g: g.index))
        self.differential = {g: img for g, img in images.items() if img}
        self._table = {g.index: g for g in self.generators}

    def d(self, e: Element) -> Element:
        images = [_image(g, img._t) for g, img in self.differential.items()]
        t: dict = {}
        for m, c in e._t.items():
            _derive_into(t, m, c, images)
        return Element._from_dict(t, self._table)


def brute_force_basis(generators, degree: int) -> list[Monomial]:
    """The monomials of one degree, found by trying every exponent vector:
    a reference that shares nothing with ``algebra.enumerate_basis``."""
    ranges = [range(degree // g.degree + 1) if g.is_even else range(2) for g in generators]
    return [Monomial.make([(g, e) for g, e in zip(generators, exps) if g.is_even],
                          [g for g, e in zip(generators, exps) if e and not g.is_even])
            for exps in itertools.product(*ranges)
            if sum(e * g.degree for g, e in zip(generators, exps)) == degree]


# -- canned models -----------------------------------------------------------

@pytest.fixture(scope="session")
def mixed_model():
    return load_model(MODELS / "mixed_length.model")


@pytest.fixture(scope="session")
def tower_model():
    return load_model(MODELS / "coformal_tower.model")


@pytest.fixture(scope="session")
def nonpure_model():
    return load_model(MODELS / "nonpure.model")


@pytest.fixture()
def cp2():
    return load_model(MODELS / "cp2.model")


@pytest.fixture()
def odd_spheres():
    return load_model(MODELS / "odd_spheres.model")


@pytest.fixture(scope="session")
def inert_tower_text():
    # two stages with an inert odd generator on each: v from level 1 on, u
    # only once x is killed at level 2 (kept out of models/, whose every
    # file is in the CLI golden suite)
    return ('model "inert-tower"\neven x : 2\neven w : 4\nodd y : 3 = x^2\n'
            "odd v : 3\nodd u : 5 = x*w\nodd t : 7 = w^2\n")


@pytest.fixture(scope="session")
def three_level_text():
    # three stages; at level 2, u's image loses its x*v term to the killed x
    return ('model "three-level"\neven x : 2\neven w : 4\neven v : 6\nodd y : 3 = x^2\n'
            "odd u : 7 = w^2 + x*v\nodd t : 11 = v^2\n")


# -- random pure elliptic constant-length models -----------------------------

def _homogeneous_image(rng: random.Random, evens: list[Generator], l: int) -> Element:
    """Random nonzero polynomial of word length exactly l, concentrated in
    one cohomological degree (so it can be an odd generator's differential)."""
    by_degree: dict[int, list[tuple[int, ...]]] = {}
    for combo in itertools.combinations_with_replacement(range(len(evens)), l):
        deg = sum(evens[i].degree for i in combo)
        by_degree.setdefault(deg, []).append(combo)
    degree = rng.choice(sorted(by_degree))
    basis = by_degree[degree]
    coeffs = [rng.randint(-3, 3) for _ in basis]
    if not any(coeffs):
        coeffs[rng.randrange(len(basis))] = 1
    out = Element.zero()
    for c, combo in zip(coeffs, basis):
        if c == 0:
            continue
        term = Element.scalar(c)
        for i in combo:
            term = term * Element.from_generator(evens[i])
        out = out + term
    return out


def make_random_model(rng: random.Random, tag: int) -> SullivanModel:
    """One pure elliptic constant-length model following the suite recipe:
    1-3 even generators with degrees in {2,4,6}, length l in {2,3}, the
    first |X| odd differentials random and retried until the even quotient
    is finite-dimensional, then 0-2 extra odds with random or zero images.
    """
    n_even = rng.randint(1, 3)
    degrees = sorted(rng.choice((2, 4, 6)) for _ in range(n_even))
    evens = [Generator(f"x{i + 1}", d, i) for i, d in enumerate(degrees)]
    l = rng.choice((2, 3))

    while True:
        images = [_homogeneous_image(rng, evens, l) for _ in range(n_even)]
        gb = buchberger(images, evens)
        if quotient_is_finite_dimensional(gb):
            break

    diffs: dict[Generator, Element] = {}
    odds: list[Generator] = []
    index = n_even
    for j, img in enumerate(images):
        y = Generator(f"y{j + 1}", img.degree() - 1, index)
        index += 1
        odds.append(y)
        diffs[y] = img

    for j in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            img = _homogeneous_image(rng, evens, l)
            y = Generator(f"w{j + 1}", img.degree() - 1, index)
            diffs[y] = img
        else:
            y = Generator(f"w{j + 1}", rng.choice((3, 5, 7, 9)), index)
        index += 1
        odds.append(y)

    return SullivanModel(evens + odds, diffs, name=f"random-{tag}")


def generate_suite(count: int = 200, seed: int = 20260814) -> list[SullivanModel]:
    rng = random.Random(seed)
    return [make_random_model(rng, i) for i in range(count)]


class _SuiteCache:
    """Built on first use so its cost lands inside the criterion that asks first."""

    def __init__(self):
        self.models: list[SullivanModel] | None = None

    def get(self) -> list[SullivanModel]:
        if self.models is None:
            self.models = generate_suite()
        return self.models


@pytest.fixture(scope="session")
def random_suite_cache():
    return _SuiteCache()


@pytest.fixture(scope="session")
def d2_failure_model():
    # degree-consistent but d^2(z) = x^3 != 0, so building it raises: the
    # fixture is the builder
    return lambda: build_model(
        [("x", 2), ("y", 3), ("z", 4)],
        {"y": lambda e: e["x"] ** 2, "z": lambda e: e["x"] * e["y"]},
        name="d2-fail")
