"""F0-basis extensions: staging, searching, verification, certificates."""
import importlib.util
import itertools
import json
import math
import pathlib
import random
import sys
import time
from fractions import Fraction

import pytest
import sympy
from test_golden import WIDENING, WIDENING_BUDGETS, _needs_combination, _widening_models

from sullivan import SullivanModel, build_model, extension, groebner, load_model
from sullivan.algebra import MAX_DEGREE, Element, Generator, Monomial, _key
from sullivan.ellipticity import _echelon, is_elliptic_pure
from sullivan.errors import (
    InvalidInput,
    NonConstantLength,
    NotElliptic,
    NotPure,
    SearchSpaceTooLarge,
    VerificationFailed,
)
from sullivan.extension import (
    _assignments,
    _slice,
    _candidates,
    _combine,
    _subspaces,
    FirstStage,
    RegularChoice,
    exhaustive_homogeneous_search,
    extension_model,
    f0_extend,
    find_homogeneous_regular_subset,
    first_stage,
    verify_f0_extension,
)
from sullivan.parsing import _ExprParser, parse_model

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


@pytest.fixture()
def f0_square():
    # already an F0 model: two evens, two odds, regular images
    return build_model(
        [("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3)],
        {"y1": lambda e: e["x1"] ** 2, "y2": lambda e: e["x2"] ** 2},
        name="f0-square")


@pytest.fixture()
def needs_combination():
    # no plain 2-subset of the odds works; an integer combination does
    return load_model(MODELS / "needs_combination.model")


def names(elements):
    return [e.render() for e in elements]


# -- first stage ---------------------------------------------------------------

def test_first_stage_tower(tower_model):
    stage = first_stage(tower_model)
    assert [g.name for g in stage.evens] == ["x1"]
    assert [g.name for g in stage.active] == ["y1"]
    assert list(stage.inert) == []
    assert stage.length == 2


@pytest.fixture()
def not_elliptic():
    return build_model([("x1", 2), ("x2", 2), ("y", 3)],
                       {"y": lambda e: e["x1"] ** 2}, name="not-elliptic")


@pytest.mark.parametrize("fixture, error", [
    ("odd_spheres", InvalidInput),
    ("mixed_model", NonConstantLength),
    ("nonpure_model", NotPure),
    ("not_elliptic", NotElliptic),
])
def test_first_stage_checks_its_input(request, fixture, error):
    with pytest.raises(error):
        first_stage(request.getfixturevalue(fixture))


def _stage_view(stage):
    return (stage.evens, stage.active, stage.inert, [e.render() for e in stage.images])


def test_every_stage_of_an_extension_is_elliptic(random_suite_cache, tower_model,
                                                 inert_tower_text, three_level_text):
    # first_stage builds no stage sub-model: it is elliptic because its model
    # is (FirstStage).  Replay each trace on the level models that
    # quotient_model builds, and check that on every level; f0_extend's own
    # levels, the input less the killed set, slice alike.
    models = [*random_suite_cache.get(), tower_model,
              parse_model(inert_tower_text), parse_model(three_level_text)]
    levels = 0
    for model in models:
        length = model.differential_length()
        current, killed = model, set()
        for rec in f0_extend(model).trace:
            levels += 1
            stage = first_stage(current)
            sliced = _slice(model, length.value, killed)  # f0_extend's levels
            assert _stage_view(sliced) == _stage_view(stage), (model.name, rec.level)
            assert sliced.model is model
            assert current.is_pure()
            assert current.differential_length() == length, model.name
            assert [g.name for g in stage.evens] == list(rec.evens)
            sub = current.sub_model(stage.evens + stage.active + stage.inert)
            assert is_elliptic_pure(sub), (model.name, rec.level)
            current = current.quotient_model(rec.evens + rec.killed_odd)
            killed |= {model.generator(n) for n in rec.evens + rec.killed_odd}
    assert levels > len(models)  # multi-stage models reach the later levels


def test_first_stage_groups_equal_degrees(f0_square):
    stage = first_stage(f0_square)
    assert [g.name for g in stage.evens] == ["x1", "x2"]
    assert [g.name for g in stage.active] == ["y1", "y2"]


# -- subset and combination search ----------------------------------------------

def test_subset_search_finds_plain_subset(f0_square):
    stage = first_stage(f0_square)
    choice = find_homogeneous_regular_subset(stage)
    assert choice.subset == ("y1", "y2")
    assert names(choice.elements) == ["y1", "y2"]


def test_combination_search(needs_combination):
    stage = first_stage(needs_combination)
    choice = find_homogeneous_regular_subset(stage)
    assert choice.subset is None
    # the first subset fails; greedily, y1, then y2 and y3 fail next to it
    # and y2 - y3, the first height-1 vector, passes: d(y2 - y3) = w^2
    assert (choice.height, choice.tried) == (1, 5)
    assert names(choice.elements) == ["y1", "y2 - y3"]
    assert names(choice.images) == ["x^2 + x*w", "w^2"]
    for e in choice.elements:
        assert e.is_homogeneous()
    report = verify_f0_extension(needs_combination, choice.elements)
    assert report.passed


def test_combination_search_determinism(needs_combination):
    stage = first_stage(needs_combination)
    a = find_homogeneous_regular_subset(stage)
    b = find_homogeneous_regular_subset(first_stage(needs_combination))
    assert names(a.elements) == names(b.elements) == ["y1", "y2 - y3"]
    assert (a.height, a.tried) == (b.height, b.tried) == (1, 5)


def test_stage_search_tries_its_first_candidate_at_once():
    # four active odds in one degree: after the first subset and y1, the
    # units y2, y3 and y4 fail, and the second pick is the first vector of
    # height 1, led at y2, tested before the rest of height 1 is listed
    model = next(m for m in _widening_models() if m.name == "needs-combination-2xw")
    stage = first_stage(model)
    start = time.perf_counter()
    choice = find_homogeneous_regular_subset(stage)
    assert time.perf_counter() - start < 0.5
    assert names(choice.elements) == ["y1", "y2 - y3 - y4"]
    assert (choice.height, choice.tried) == (1, 6)


def _ws(n):
    """ws(n): needs-combination plus odds uI : 3 = (I + 2)*x*w for I < n, so
    one degree holds n + 3 odds; both walks widen past its plain subsets."""
    gens, diffs = _needs_combination()
    return build_model(gens + [(f"u{i}", 3) for i in range(n)],
                       {**diffs, **{f"u{i}": lambda e, c=i + 2: c * e["x"] * e["w"]
                                    for i in range(n)}},
                       name=f"ws{n}")


def test_extend_reaches_height_one_at_once():
    # ws(9): free y2, y3, u0..u8 beside y1, whose units all fail; the first
    # vector of height 1, y2 - y3 - u0 - ... - u8, passes (its image is
    # w*(w - 54x)).  A pool listed by product over all 11 columns reached
    # it after every vector led at a later column, in about 3 s
    start = time.perf_counter()
    result = f0_extend(_ws(9))
    assert time.perf_counter() - start < 0.5
    assert names(result.odd_basis) == ["y1", "y2 - y3 - " + " - ".join(f"u{i}" for i in range(9))]


def test_search_reaches_height_one_at_once():
    # ws(12): 15 odds in one degree, p = 2; none of the 105 plain pairs is
    # regular, and the first reduced basis of height 1 is.  Building every
    # row of the leading columns before their first basis took over 30 s
    start = time.perf_counter()
    outcome = exhaustive_homogeneous_search(_ws(12))
    assert time.perf_counter() - start < 2
    assert outcome.tried == 106 and outcome.subset_complete
    assert verify_f0_extension(_ws(12), outcome.found).passed


def _workloads():
    """The benchmark's model recipes, ``bench/workloads.py``."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclass
    spec.loader.exec_module(module)
    return module


def _finite(polys, degrees):
    """The benchmark's finite-quotient predicate on exponent-tuple polynomials."""
    gens = [Generator(f"x{i + 1}", d, i) for i, d in enumerate(degrees)]
    elements = [Element({Monomial.make([(g, e) for g, e in zip(gens, exps) if e]): c
                         for exps, c in p.items()}) for p in polys]
    return groebner.quotient_is_finite_dimensional(groebner.buchberger(elements, gens))


def _check_pick(stage, choice):
    """A pick is regular, and its k-th element (from 0) has height at most
    the proved bound, the least h with 2h + 1 > l^k."""
    assert groebner.regular_sequence_failure(choice.images, stage.evens) is None
    assert len(choice.elements) == len(stage.evens)
    for k, e in enumerate(choice.elements):
        assert max(map(abs, e.odd_linear_part().values())) <= (stage.length ** k + 1) // 2


def _recorded_picks(monkeypatch, models):
    """(stage, choice) of every stage that ``f0_extend`` runs on the models."""
    picks = []

    def recording(stage):
        picks.append((stage, find_homogeneous_regular_subset(stage)))
        return picks[-1][1]

    monkeypatch.setattr(extension, "find_homogeneous_regular_subset", recording)
    for model in models:
        f0_extend(model)
    return picks


def test_stage_picks_are_regular_within_their_proved_height(random_suite_cache, monkeypatch):
    # every stage of the suite and every scaling-ladder rung passes its first
    # subset (tried = 1); the search-reject prefix models (n = 3, k = 4,
    # l = 2: four odds x1*(linear form) ahead of a regular triple) take the
    # greedy walk
    workloads = _workloads()
    suite = _recorded_picks(monkeypatch, random_suite_cache.get())
    assert len(suite) > 300
    ladder = [first_stage(parse_model(spec.text()))  # one stage each: all evens of degree 2
              for spec in workloads.scaling_ladder(1, _finite)]
    assert {(len(stage.evens), stage.length) for stage in ladder} == {(3, 2), (3, 3), (4, 2)}
    ladder = [(stage, find_homogeneous_regular_subset(stage)) for stage in ladder]
    for stage, choice in suite + ladder:
        _check_pick(stage, choice)
        assert (choice.tried, choice.height) == (1, 0)
        assert choice.subset == tuple(g.name for g in stage.active[:len(stage.evens)])
    rng = random.Random(1)
    prefix = [parse_model(workloads.prefix_model(rng, t, 3, 2, 4, _finite).text())
              for t in range(16)]
    picks = _recorded_picks(monkeypatch, prefix)
    assert len(picks) == len(prefix)
    for stage, choice in picks:
        _check_pick(stage, choice)
        assert choice.tried > 1


def test_stage_pick_refuses_a_stage_that_is_not_elliptic():
    # hand-built stages: one active odd for two evens, and two whose images
    # leave x2 free; each is refused before the greedy walk
    model = build_model([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3)],
                        {"y1": lambda e: e["x1"] ** 2, "y2": lambda e: e["x1"] * e["x2"]},
                        name="x2-free")
    evens = model.even_generators
    for active in (model.odd_generators[:1], model.odd_generators):
        images = tuple(model.d(g) for g in active)
        with pytest.raises(NotElliptic, match="^the first stage of 'x2-free' is not elliptic$"):
            find_homogeneous_regular_subset(FirstStage(model, 2, evens, active, (), images))


def test_stage_pick_past_its_proved_height_is_an_internal_fault(needs_combination,
                                                                monkeypatch):
    # a pick that never keeps the images regular walks the units and height
    # 1, the bound for both picks at l = 2, and stops at the first height-2
    # vector
    stage = first_stage(needs_combination)
    monkeypatch.setattr(extension, "_regular", lambda seq, variables: False)
    with pytest.raises(VerificationFailed, match="^no regular pick 1 within height 1$"):
        find_homogeneous_regular_subset(stage)


def _reference_pick(stage):
    """The greedy stage pick over every active column: each vector outside the
    span of the earlier picks (an ``_echelon`` span test) is tried, and the
    pivots are those of the picks' echelon form."""
    p, active, images = len(stage.evens), stage.active, list(stage.images)
    els, imgs = [_combine({g: 1}) for g in active[:p]], images[:p]
    height, tried, rows = 0, int(p > 0), {i: {i: 1} for i in range(p)}
    if p and not groebner.quotient_is_finite_dimensional(groebner.buchberger(imgs, stage.evens)):
        units = [(0, tuple(int(i == j) for j in range(len(active)))) for i in range(len(active))]
        els, imgs, rows = [], [], {}
        for k in range(1, p + 1):
            bound = (stage.length ** (k - 1) + 1) // 2
            for h, v in itertools.chain(units, ((h, v) for h, v in _pool(len(active), bound)
                                                if sum(map(bool, v)) > 1)):
                grown = _echelon([*rows.values(), {j: c for j, c in enumerate(v) if c}])
                if len(grown) == len(rows):
                    continue
                tried += 1
                img = sum((c * f for c, f in zip(v, images) if c), Element.zero())
                if groebner._dimension(groebner.buchberger(imgs + [img], stage.evens)) == p - k:
                    e = _combine({g: c for g, c in zip(active, v) if c})
                    els, imgs, rows, height = els + [e], imgs + [img], grown, max(height, h)
                    break
            else:
                pytest.fail(f"no regular pick {k} within height {bound}")
    subset = tuple(e.render() for e in els) if height == 0 else None
    return RegularChoice(els, imgs, subset, height, tried,
                         tuple(active[j] for j in sorted(_echelon(rows.values()))))


def _pick_view(choice):
    return names(choice.elements), choice.height, choice.pivots


def _wide(n):
    """W_n: evens x1..xn of degree 2, a = x1*x2 and yi = xi^2, in degree 3."""
    return parse_model("\n".join([f'model "wide{n}"', *(f"even x{i} : 2" for i in range(1, n + 1)),
                                  "odd a : 3 = x1*x2",
                                  *(f"odd y{i} : 3 = x{i}^2" for i in range(1, n + 1))]))


@pytest.mark.parametrize("n", [6, 8])
def test_stage_pick_tries_each_class_once(n):
    # a, then y3..yn beside it (y1 and y2 fail first at each step: x1*x2
    # kills them), then y1 - y2.  The walk over every column (_reference_pick)
    # also tries each vector v + (an earlier pick), of the same class and
    # verdict: 97 and 751 tries, with y1 - y2 - y3 - ... - yn last
    stage = first_stage(_wide(n))
    choice = find_homogeneous_regular_subset(stage)
    assert choice.tried == 3 * n - 1
    assert names(choice.elements)[-1] == "y1 - y2"
    _check_pick(stage, choice)
    assert [g.name for g in choice.pivots] == ["a", "y1", *(f"y{i}" for i in range(3, n + 1))]
    if n == 6:
        assert f0_extend(_wide(n)).verification.passed
        reference = _reference_pick(stage)
        _check_pick(stage, reference)
        assert reference.tried == 97 > choice.tried
        assert names(reference.elements)[-1] == "y1 - y2 - y3 - y4 - y5 - y6"


def test_stage_pick_matches_the_walk_over_every_column(monkeypatch):
    # where the earlier picks lead at their own columns only, walking the
    # free columns, each height by leading column, picks the same elements:
    # the search-reject prefix models of
    # test_stage_picks_are_regular_within_their_proved_height and the
    # widening models, every stage f0_extend runs.  It tries no more: each
    # class once, and a height's classes led at an earlier column first
    rng = random.Random(1)
    prefix = [parse_model(_workloads().prefix_model(rng, t, 3, 2, 4, _finite).text())
              for t in range(16)]
    picks = _recorded_picks(monkeypatch, prefix + _widening_models())
    assert len(picks) == 16 + 3 and all(c.tried > 1 for _, c in picks)  # all walk
    for stage, choice in picks:
        reference = _reference_pick(stage)
        assert _pick_view(reference) == _pick_view(choice), stage.model.name
        assert choice.tried <= reference.tried, stage.model.name


def _golden_bases(row: dict):
    """Every stage pick and found basis that a widening golden row records."""
    yield row["stage"]["elements"]
    yield row["search"]["found"]
    yield [z["element"] for z in row["f0_extend"]["z_odd"]]
    for outcome in row["budgets"].values():
        if "result" in outcome["search"]:
            yield outcome["search"]["result"]["found"]


def test_widening_golden_picks_all_verify():
    models = {m.name: m for m in _widening_models()}
    rows = json.loads(WIDENING.read_text(encoding="utf-8"))
    assert sorted(row["model"] for row in rows) == sorted(models)
    for row in rows:
        model = models[row["model"]]
        env = {g.name: _key(g) for g in model.generators}
        for basis in _golden_bases(row):
            elements = [Element._from_dict(_ExprParser(text, env, 0, MAX_DEGREE).parse(),
                                           model._table) for text in basis]
            assert [e.render() for e in elements] == basis
            assert verify_f0_extension(model, elements).passed, (row["model"], basis)


# -- verification ---------------------------------------------------------------

def test_verify_passes_on_f0_model(f0_square):
    m = f0_square
    report = verify_f0_extension(m, [m.element("y1"), m.element("y2")])
    assert report.passed
    assert report.regular and report.finite_dimensional
    assert report.quotient_dim == 4
    assert [c.name for c in report.checks] == [
        "homogeneous", "count", "closure", "regular_sequence",
        "finite_dimensional"]


def test_verify_checks_stanleys_identity(f0_square, monkeypatch):
    # a quotient dimension off by one on a regular full-length candidate
    # breaks 4 * 2 * 2 = 4 * 4: an internal fault, not a report outcome
    m = f0_square
    quotient_dimension = extension.quotient_dimension
    monkeypatch.setattr(extension, "quotient_dimension", lambda gb: quotient_dimension(gb) + 1)
    with pytest.raises(VerificationFailed, match="^quotient dimension 5 of a regular sequence "
                                                  "breaks Stanley's identity$"):
        verify_f0_extension(m, [m.element("y1"), m.element("y2")])


def test_verify_reports_regularity_failure(mixed_model):
    m = mixed_model
    report = verify_f0_extension(m, [m.element("y1"), m.element("y2")])
    assert not report.passed
    assert report.first_failure == "regular_sequence"
    assert report.failing_index == 2
    assert report.witness is not None and report.witness.render() == "x1"


def test_verify_reports_inhomogeneous_combination(mixed_model):
    m = mixed_model
    basis = [m.element("y3"), m.element("y1") + m.element("y2")]
    report = verify_f0_extension(m, basis)
    assert not report.passed
    assert report.first_failure == "homogeneous"
    # the other facts are still reported: regular and finite-dimensional
    assert report.regular is True
    assert report.finite_dimensional is True
    assert report.quotient_dim == 22


def test_verify_reports_count_mismatch(f0_square):
    report = verify_f0_extension(f0_square, [f0_square.element("y1")])
    assert not report.passed
    assert report.first_failure == "count"


def test_verify_rejects_non_odd_combination(f0_square):
    with pytest.raises(InvalidInput):
        verify_f0_extension(f0_square, [f0_square.element("x1"),
                                        f0_square.element("y2")])


def test_verify_closure_failure(nonpure_model):
    report = verify_f0_extension(nonpure_model, [nonpure_model.element("z")])
    assert not report.passed
    assert report.first_failure == "closure"


# -- extension construction ------------------------------------------------------

def test_extension_model_fresh_names(f0_square):
    m = f0_square
    ext = extension_model(m, [m.element("y1"), m.element("y2")])
    assert [g.name for g in ext.generators] == ["x1", "x2", "z1", "z2"]
    assert ext.d(ext.element("z1")) == ext.element("x1") ** 2
    ext.validate()


def test_extension_model_name_collision():
    # fresh names only have to dodge the surviving even generators
    m = build_model(
        [("z1", 2), ("y", 3)],
        {"y": lambda e: e["z1"] ** 2}, name="collide")
    ext = extension_model(m, [m.element("y")])
    assert [g.name for g in ext.generators] == ["z1", "z1_"]
    assert ext.d(ext.element("z1_")) == ext.element("z1") ** 2


def test_extension_model_rejects_entries_that_are_not_homogeneous_combinations(mixed_model):
    m = mixed_model
    with pytest.raises(InvalidInput, match=r"^odd basis entry x1 is not a combination"):
        extension_model(m, [m.element("x1")])
    with pytest.raises(InvalidInput, match=r"^odd basis entry y1 \+ y3 mixes degrees \[29, 33\]$"):
        extension_model(m, [m.element("y1") + m.element("y3")])


# -- the full pipeline ------------------------------------------------------------

def test_f0_extend_tower(tower_model):
    res = f0_extend(tower_model)
    assert names(res.odd_basis) == ["y1", "y3"]
    assert res.odd_degrees == [3, 7]
    assert res.verification.passed
    assert [s.level for s in res.trace] == [1, 2]
    assert list(res.trace[0].killed_odd) == ["y1"]
    assert list(res.trace[1].killed_odd) == ["y3"]
    # extension is an F0 model over the same even part
    ext = res.extension
    assert [g.name for g in ext.even_generators] == ["x1", "x2"]
    assert ext.chi_pi() == 0
    for cert in res.certificates:
        assert cert.verify(ext)


def test_f0_extend_identity_case(f0_square):
    res = f0_extend(f0_square)
    assert names(res.odd_basis) == ["y1", "y2"]
    assert len(res.trace) == 1


def test_f0_extend_combination_case(needs_combination):
    res = f0_extend(needs_combination)
    assert res.verification.passed
    assert res.extension.chi_pi() == 0
    for cert in res.certificates:
        assert cert.verify(res.extension)
    for e in res.odd_basis:
        assert e.is_homogeneous()


def test_f0_extend_determinism(needs_combination):
    a = f0_extend(needs_combination)
    b = f0_extend(needs_combination)
    assert names(a.odd_basis) == names(b.odd_basis)
    assert a.to_dict() == b.to_dict()


@pytest.fixture()
def nonpure_no_evens():
    return parse_model('model "nonpure-no-evens"\nodd y1 : 3\nodd y2 : 3\n'
                       "odd z : 5 = y1*y2\n")


@pytest.mark.parametrize("fixture, error", [
    ("nonpure_model", NotPure),
    ("mixed_model", NonConstantLength),
    ("not_elliptic", NotElliptic),
    ("nonpure_no_evens", NotPure),
])
def test_f0_extend_guards(request, fixture, error):
    # f0_extend's own guard is purity, for models that never reach a stage;
    # a model with evens is refused by first_stage, with its message
    model = request.getfixturevalue(fixture)
    with pytest.raises(error) as raised:
        f0_extend(model)
    if model.even_generators:
        with pytest.raises(error) as direct:
            first_stage(model)
        assert str(raised.value) == str(direct.value)


@pytest.mark.parametrize("fixture", ["tower_model", "inert_tower_text"])
def test_f0_extend_tests_ellipticity_once(request, monkeypatch, fixture):
    # later levels and the extension model inherit the input's ellipticity
    model = request.getfixturevalue(fixture)
    if isinstance(model, str):
        model = parse_model(model)
    tested = []

    def counting(m):
        tested.append(m.name)
        return is_elliptic_pure(m)

    monkeypatch.setattr(extension, "is_elliptic_pure", counting)
    assert len(f0_extend(model).trace) == 2
    assert tested == [model.name]


@pytest.mark.parametrize("fixture, levels", [
    ("tower_model", 2), ("inert_tower_text", 2), ("three_level_text", 3)])
def test_f0_extend_builds_only_the_extension_model(request, monkeypatch, fixture, levels):
    # each level is the input less its killed set, so no level model is built
    model = request.getfixturevalue(fixture)
    if isinstance(model, str):
        model = parse_model(model)
    built = []
    init = SullivanModel.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("name"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(SullivanModel, "__init__", counting)
    result = f0_extend(model)
    assert len(result.trace) == levels
    assert built == [f"{model.name}/extension"]


def test_f0_extend_no_evens(odd_spheres):
    res = f0_extend(odd_spheres)
    assert res.odd_basis == []
    assert res.trace == []
    assert res.extension.chi_pi() == 0
    assert res.verification.passed


# -- exhaustive search -------------------------------------------------------------

def test_search_negative_mixed(mixed_model):
    out = exhaustive_homogeneous_search(mixed_model)
    assert out.found is None
    assert out.tried == 3
    assert out.subset_complete and out.fully_exhaustive
    rejected = {tuple(r.candidate) for r in out.rejected}
    assert rejected == {("y1", "y2"), ("y1", "y3"), ("y2", "y3")}
    for r in out.rejected:
        assert r.reason == "regular_sequence"
        assert r.witness


def test_search_positive_tower(tower_model):
    out = exhaustive_homogeneous_search(tower_model)
    assert out.found is not None
    assert names(out.found) == ["y1", "y3"]
    assert out.tried == 2  # (y1,y2) rejected first


def test_search_positive_combination(needs_combination):
    out = exhaustive_homogeneous_search(needs_combination)
    assert out.found is not None
    report = verify_f0_extension(needs_combination, out.found)
    assert report.passed
    assert out.subset_complete


def test_search_decides_each_failing_prefix_once(monkeypatch):
    # the benchmark's prefix recipe: odds a_i with images x1*(linear form)
    # declared ahead of a regular triple.  Three evens, so candidates are
    # triples and those sharing their first two images share the failing
    # prefix ideal (d a_i) and the element d a_j at index 2
    def times_x1(a, b, c):
        return lambda e: e["x1"] * (a * e["x1"] + b * e["x2"] + c * e["x3"])

    model = build_model(
        [("x1", 2), ("x2", 2), ("x3", 2), ("a1", 3), ("a2", 3), ("a3", 3),
         ("y1", 3), ("y2", 3), ("y3", 3)],
        {"a1": times_x1(1, 1, 0), "a2": times_x1(2, -1, 1), "a3": times_x1(1, 0, -3),
         "y1": lambda e: e["x1"] ** 2,
         "y2": lambda e: e["x2"] ** 2,
         "y3": lambda e: e["x3"] ** 2},
        name="prefix")
    calls = []
    ideal_quotient = groebner.ideal_quotient

    def counted(gb, a):
        calls.append((tuple(gb.inputs), a))
        return ideal_quotient(gb, a)

    monkeypatch.setattr(groebner, "ideal_quotient", counted)
    groebner._basis_of.cache_clear()
    out = exhaustive_homogeneous_search(model)
    assert names(out.found) == ["a1", "y2", "y3"]
    assert out.tried == 10 and len(out.rejected) == 9
    witnesses: dict[tuple, set] = {}
    for r in out.rejected:
        assert (r.reason, r.failing_index) == ("regular_sequence", 2)
        images = tuple(model.d(model.element(y)) for y in r.candidate[:2])
        witnesses.setdefault(images, set()).add(r.witness)
    # (a1, a2, ·) four times, (a1, a3, ·) three times, (a1, y1, ·) twice
    assert len(witnesses) == 3
    assert all(len(w) == 1 for w in witnesses.values())
    assert len(calls) == 3
    assert set(calls) == {((p,), a) for p, a in witnesses}


def _reference_search(model, max_candidates=20000):
    """``exhaustive_homogeneous_search`` with nothing remembered: every
    candidate of the stream goes through ``verify_f0_extension``."""
    p = len(model.even_generators)
    outcome = extension.SearchOutcome(None, 0, False, False)
    for tried, height, picks in _candidates(model.odd_generators, p, max_candidates):
        outcome.tried = tried
        candidate = [_combine(dict(c)) for c in picks]
        report = verify_f0_extension(model, candidate)
        if report.passed:
            outcome.found, outcome.subset_complete = candidate, height > 0
            return outcome
        if len(outcome.rejected) < extension.MAX_REJECTIONS_KEPT:
            outcome.rejected.append(extension.RejectionRecord(
                tuple(e.render() for e in candidate), report.first_failure,
                report.witness.render() if report.witness is not None else None,
                report.failing_index))
    outcome.subset_complete = outcome.fully_exhaustive = True
    return outcome


def _two_degrees():
    return build_model([("x", 2), ("w", 2), ("y1", 3), ("y2", 3), ("y3", 5)],
                       {"y1": lambda e: e["x"] ** 2 + e["x"] * e["w"],
                        "y2": lambda e: e["x"] * e["w"] + e["w"] ** 2,
                        "y3": lambda e: e["x"] ** 2 * e["w"] - e["x"] * e["w"] ** 2},
                       name="two-degrees")


def _outcome_or_error(search, model, budget):
    try:
        return search(model, budget).to_dict()
    except SearchSpaceTooLarge as ex:
        return str(ex)


def test_remembered_prefixes_reject_as_verifying_each_candidate(mixed_model, tower_model,
                                                                needs_combination):
    # the triangles and both prefix families of the benchmark's search-reject
    # recipe, and the shipped and widening models, each at the default budget
    # and at the widening golden's budgets
    workloads = _workloads()
    models = [parse_model(spec.text()) for spec in workloads.search_reject(1, _finite)]
    assert [m.name.rsplit("-", 1)[0] for m in models] == \
        ["triangle"] * 4 + ["prefix-n3-k4"] * 16 + ["prefix-n4-k5"] * 4
    models += [mixed_model, tower_model, needs_combination, _two_degrees(), _ws(3)]
    models += _widening_models()
    for model in models:
        for budget in (20000,) + (WIDENING_BUDGETS if model.name.startswith("needs") else ()):
            assert _outcome_or_error(exhaustive_homogeneous_search, model, budget) == \
                _outcome_or_error(_reference_search, model, budget), (model.name, budget)


def test_search_verifies_once_per_failing_prefix(monkeypatch):
    # (4, 5) prefix model: candidates (a1, a2, ·, ·), (a1, a3, ·, ·), ...
    # fail at index 2, and 21 + 15 + 10 + 6 of them share four prefixes
    # before (a1, y1, y2, y3) passes
    model = parse_model(_workloads().prefix_model(random.Random(1), 0, 4, 2, 5, _finite).text())
    calls = []
    verify = extension.verify_f0_extension

    def counted(model, candidate):
        calls.append([e.render() for e in candidate])
        return verify(model, candidate)

    monkeypatch.setattr(extension, "verify_f0_extension", counted)
    out = exhaustive_homogeneous_search(model)
    assert (out.tried, len(calls)) == (53, 5)
    assert [c[:2] for c in calls] == [["a1", "a2"], ["a1", "a3"], ["a1", "a4"], ["a1", "a5"],
                                      ["a1", "y1"]]
    assert names(out.found) == ["a1", "y1", "y2", "y3"]


def test_search_builds_each_pick_and_renders_each_witness_once(monkeypatch):
    # the (4, 5) prefix model again: 53 candidates from few distinct picks,
    # and 52 kept rejection records that share the reports of 4 failing
    # verifications (whose witnesses may be one object: a cached basis's)
    model = parse_model(_workloads().prefix_model(random.Random(1), 0, 4, 2, 5, _finite).text())
    combined, witnesses, renders, verifying = [], [], [], []
    combine, verify, render = extension._combine, extension.verify_f0_extension, Element.render

    def counted_combine(combination):
        combined.append(tuple(combination.items()))
        return combine(combination)

    def counted_verify(model, candidate):
        verifying.append(True)  # its own check detail renders the witness
        report = verify(model, candidate)
        verifying.pop()
        if not report.passed:
            witnesses.append(report.witness)
        return report

    def counted_render(self):
        if not verifying and any(w is self for w in witnesses):
            renders.append(render(self))
        return render(self)

    monkeypatch.setattr(extension, "_combine", counted_combine)
    monkeypatch.setattr(extension, "verify_f0_extension", counted_verify)
    monkeypatch.setattr(Element, "render", counted_render)
    out = exhaustive_homogeneous_search(model)
    assert out.tried == 53 and len(out.rejected) == 52
    assert combined and len(combined) == len(set(combined))  # at most once per distinct pick
    assert len(witnesses) == 4 and None not in witnesses
    assert renders == [render(w) for w in witnesses]  # one per failing verification
    assert {r.witness for r in out.rejected} == set(renders)


def _witness_withheld(monkeypatch):
    """Patch the zero-divisor test to find no witness, so it contradicts
    every prefix whose Krull dimension does not drop."""
    monkeypatch.setattr(groebner, "zero_divisor_witness", lambda a, gb: None)


def test_a_prefix_the_dimension_does_not_confirm_is_an_internal_fault(monkeypatch):
    # the first candidate (a1, a2, a3) fails at index 2 by the dimension,
    # and the withheld witness does not confirm it
    _witness_withheld(monkeypatch)
    spec = _workloads().prefix_model(random.Random(1), 0, 3, 2, 4, _finite)
    with pytest.raises(VerificationFailed, match="^element 2 drops no Krull dimension but "
                                                  "has no zero-divisor witness$"):
        exhaustive_homogeneous_search(parse_model(spec.text()))


def test_search_budget(mixed_model):
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_homogeneous_search(mixed_model, max_candidates=1)


def test_search_to_dict(mixed_model):
    out = exhaustive_homogeneous_search(mixed_model)
    d = out.to_dict()
    assert d["found"] is None
    assert d["tried"] == 3
    assert len(d["rejected"]) == 3


# -- candidate enumeration ---------------------------------------------------------

@pytest.mark.parametrize("caps", [(), (1,), (2, 1), (1, 1, 1), (3, 2, 1), (2, 2, 2, 2)])
def test_assignments_are_the_filtered_product(caps):
    for p in range(6):
        product = sorted((a for a in itertools.product(*(range(min(c, p) + 1) for c in caps))
                          if sum(a) == p), reverse=True)
        assert _assignments(caps, p) == product


def test_first_widened_candidate_is_reached_without_the_product():
    # 12 degrees of two odd generators and 3 of one: the product of the
    # per-degree assignments of p = 2 has 3^12 * 2^3 = 4,251,528 tuples,
    # only 351 of which sum to 2
    gens = []
    for d in range(3, 33, 2):
        for _ in range(2 if d < 27 else 1):
            gens.append(Generator(f"y{len(gens)}", d, len(gens)))
    start = time.perf_counter()
    for tried, height, picks in _candidates(gens, 2, 50000):
        if height:
            break
    assert time.perf_counter() - start < 0.5
    assert (tried, height) == (352, 1)


def test_widening_past_height_one():
    gens = [Generator("y1", 3, 1), Generator("y2", 3, 2), Generator("y3", 5, 3)]
    seen, spans = [], set()
    with pytest.raises(SearchSpaceTooLarge):
        for tried, height, picks in _candidates(gens, 2, 20):
            seen.append(height)
            spans.add(sympy.Matrix([[dict(pick).get(g, 0) for g in gens] for pick in picks])
                      .rref()[0].as_immutable())
            if height:
                assert max(abs(c) for pick in picks for _, c in pick) == height
    assert len(seen) == len(spans) == 20
    assert sorted(set(seen)) == [0, 1, 2, 3, 4]
    gens = [Generator(f"y{i}", d, i) for i, d in enumerate((3, 3, 3, 5, 5), 1)]
    with pytest.raises(SearchSpaceTooLarge) as exc:
        for _ in _candidates(gens, 4, 20):
            pass
    # the (3, 1) block takes degree 3 whole, as one subspace, so the budget
    # is reached, not the stall
    assert str(exc.value) == "search budget of 20 candidates exceeded"


def test_whole_degree_assignments_are_skipped():
    # the assignment (3, 0), all three degree-3 generators, spans only that
    # whole degree, a plain subset's span: it is skipped, and the (2, 1)
    # block's first pick is the fifth candidate
    gens = [Generator(f"y{i}", d, i) for i, d in enumerate((3, 3, 3, 5), 1)]
    heights = []
    with pytest.raises(SearchSpaceTooLarge, match="^search budget of 5 candidates exceeded$"):
        for tried, height, picks in _candidates(gens, 3, 5):
            heights.append(height)
    assert heights == [0, 0, 0, 0, 1]


def _pool(n, height):
    """The primitive integer vectors of Q^n with first nonzero entry > 0, as
    ``(height, vector)`` by height max |entry| = 1 .. ``height``: a brute
    force over products, independent of ``_subspaces``."""
    for h in range(1, height + 1):
        for v in itertools.product(range(-h, h + 1), repeat=n):
            if max(map(abs, v)) == h and next(a for a in v if a) > 0 and math.gcd(*v) == 1:
                yield h, v


def _reduced_bases(n, k, height):
    """The reduced bases of the k-subspaces of Q^n of height at most
    ``height``, the coordinate ones included: one pool vector per leading
    column (its first nonzero one, where pool vectors are positive and
    primitive), each zero at the others' leading columns."""
    by_lead = {}
    for _, v in _pool(n, height):
        by_lead.setdefault(next(j for j, c in enumerate(v) if c), []).append(v)
    return [rows for leads in itertools.combinations(sorted(by_lead), k)
            for rows in itertools.product(*(by_lead[c] for c in leads))
            if all(v[c] == 0 for v, lead in zip(rows, leads) for c in leads if c != lead)]


def _gens(degrees):
    return [Generator(f"y{i}", d, i) for i, d in enumerate(degrees, 1)]


def _reduced(rows):
    """The rank of the rows and the primitive reduced basis of their span:
    sympy's reduced row echelon form, each row scaled to primitive integers."""
    m, pivots = sympy.Matrix(rows).rref()
    basis = []
    for row in m.tolist()[:len(pivots)]:
        scale = math.lcm(*(int(c.q) for c in row))
        ints = [int(c.p) * (scale // int(c.q)) for c in row]
        basis.append(tuple(c // math.gcd(*ints) for c in ints))
    return len(pivots), tuple(basis)


def _height(basis):
    return max(abs(c) for row in basis for c in row)


@pytest.mark.parametrize("n, k, height", [(n, k, 2) for n in (1, 2, 3, 4) for k in range(n + 1)]
                         + [(5, 1, 1), (5, 2, 1)])
def test_subspaces_are_the_reduced_bases_by_height(n, k, height):
    # brute force: the reduced bases of at most that height with support
    # above k; sympy confirms each is the primitive reduced basis of its span
    expected = {}
    for rows in _reduced_bases(n, k, height):
        if sum(map(any, zip(*rows))) > k:
            assert _reduced(rows) == (k, rows)
            expected[rows] = _height(rows)
    stream = list(itertools.takewhile(lambda s: s[0] <= height, _subspaces(n, k)))
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    plain = list(itertools.combinations(units, k))
    assert stream[:len(plain)] == [(0, basis) for basis in plain]
    widened = stream[len(plain):]
    assert [h for h, _ in widened] == sorted(h for h, _ in widened)
    assert all(h == _height(basis) for h, basis in widened)
    assert len(widened) == len(expected)
    assert {basis: h for h, basis in widened} == expected


def test_subspaces_leave_height_one_promptly():
    # one 4-of-5 degree: 5 coordinate subspaces, then 116 of height 1 (a
    # walk over the pool's greedy bases took 190,275 steps, and 52 s, to
    # leave height 1)
    start = time.perf_counter()
    index, (height, basis) = next((i, s) for i, s in enumerate(_subspaces(5, 4)) if s[0] == 2)
    assert time.perf_counter() - start < 1
    assert index == 5 + 116 and _height(basis) == 2


@pytest.mark.parametrize("k", [1, 2])
def test_subspaces_reach_height_one_at_once(k):
    # 12 columns: each row is built when the walk reaches it, so the first
    # height-1 basis is not behind every row its leading columns lead (3^11
    # for k = 1; building those first took 2-3 s)
    start = time.perf_counter()
    index, (height, basis) = next((i, s) for i, s in enumerate(_subspaces(12, k)) if s[0])
    assert time.perf_counter() - start < 0.05
    assert index == math.comb(12, k) and height == 1
    assert basis[0] == (1,) + (0,) * (k - 1) + (-1,) * (12 - k)


@pytest.mark.parametrize("degrees, p", [((3, 3, 5), 2), ((3, 3, 5, 5), 2), ((3, 3, 5, 5), 3),
                                        ((3, 3, 3, 5), 2), ((3, 3, 3, 5), 3)])
def test_candidates_are_every_graded_span_once_at_its_height(degrees, p):
    # brute force: a graded span of dimension p joins one subspace per
    # degree, so its reduced basis joins their reduced bases (of height <= 2,
    # coordinate ones included), the degrees' rows having disjoint supports;
    # its height is theirs, the largest |entry|, or 0 for a coordinate span
    n = len(degrees)
    blocks = []  # per degree, its reduced bases of every size, on all n columns
    for d in sorted(set(degrees)):
        cols = [i for i, e in enumerate(degrees) if e == d]
        blocks.append([tuple(tuple(dict(zip(cols, v)).get(j, 0) for j in range(n)) for v in rows)
                       for k in range(len(cols) + 1) for rows in _reduced_bases(len(cols), k, 2)])
    expected = {}
    for parts in itertools.product(*blocks):
        rows = sorted(itertools.chain(*parts), reverse=True)  # by leading column
        if len(rows) == p:
            expected[tuple(rows)] = 0 if sum(map(any, zip(*rows))) == p else _height(rows)
    gens = _gens(degrees)
    got = {}
    for tried, height, picks in _candidates(gens, p, 10**6):
        if height > 2:
            break
        rank, basis = _reduced([[dict(pick).get(g, 0) for g in gens] for pick in picks])
        assert rank == p and basis not in got
        got[basis] = height
    assert got == expected


def _reference_candidates(gens, p, top):
    """The candidate stream through height ``top``, not lazily: the plain
    p-subsets, then for each height h and each assignment that takes some
    degree in part, ``itertools.product`` of each degree's ``_subspaces``
    listed through h, kept where the largest height is h."""
    groups = {}
    for g in gens:
        groups.setdefault(g.degree, []).append(g)
    degrees = sorted(groups)
    sizes = [len(groups[d]) for d in degrees]
    out = [(0, [((g, 1),) for g in combo]) for combo in itertools.combinations(gens, p)]
    for h in range(1, top + 1):
        for a in _assignments(sizes, p):
            if not any(0 < k < n for k, n in zip(a, sizes)):
                continue
            pieces = [(d, k) for d, k in zip(degrees, a) if k]
            lists = [list(itertools.takewhile(lambda s: s[0] <= h, _subspaces(len(groups[d]), k)))
                     for d, k in pieces]
            for chosen in itertools.product(*lists):
                if max(height for height, _ in chosen) == h:
                    out.append((h, [tuple((g, c) for g, c in zip(groups[d], v) if c)
                                    for (d, _), (_, basis) in zip(pieces, chosen) for v in basis]))
    return out


@pytest.mark.parametrize("degrees, p, count", [
    ((3, 3, 3, 5), 2, 106), ((3, 3, 3, 5), 3, 58), ((3, 3, 5, 5), 2, 66), ((3, 3, 5, 5), 3, 16),
    ((3, 3, 5, 5, 7, 7), 3, 560), ((3, 3, 3, 5, 5), 4, 65), ((3, 5, 5, 7, 7, 7), 3, 956)])
def test_multi_degree_streams_keep_the_product_order(degrees, p, count):
    # the lazy stream, in order through height 2, against the reference
    gens = _gens(degrees)
    got = []
    for tried, height, picks in _candidates(gens, p, 10**6):
        if height > 2:
            break
        assert tried == len(got) + 1
        got.append((height, list(picks)))
    assert len(got) == count
    assert got == _reference_candidates(gens, p, 2)


def test_a_progressing_stream_reaches_its_budget():
    # a degree taken in part lists a subspace at every height, so each
    # stream goes on to its budget, the default 20,000 within 5 s (a walk
    # over the pool's greedy bases stalled on these, or ran up to a minute)
    cases = [((3, 3, 3, 3, 7, 7), 5, 35), ((7, 7, 7, 7, 7), 4, 61), ((3, 3, 3, 3, 3), 4, 40),
             ((3, 3, 3, 3, 3, 3), 5, 100), ((3, 3, 3, 3, 3, 3), 4, 100),
             ((3, 3, 3, 3, 3, 5), 4, 137), ((5, 7, 7, 7, 7, 7), 5, 61)]
    cases += [(degrees, p, 20000) for degrees, p in [
        ((3, 3, 3, 3, 3), 4), ((3,) * 6, 5), ((3,) * 8, 6), ((7, 7, 7, 7, 7), 4),
        ((3, 3, 3, 5, 5), 4), ((3, 3, 3, 3, 7, 7), 5), ((3,) * 7, 3), ((3,) * 6 + (5,) * 6, 6)]]
    for degrees, p, budget in cases:
        start = time.perf_counter()
        with pytest.raises(SearchSpaceTooLarge, match=f"^search budget of {budget} candidates exceeded$"):
            for _ in _candidates(_gens(degrees), p, budget):
                pass
        assert time.perf_counter() - start < 5


def test_candidates_end_when_no_assignment_is_left():
    # p above the number of generators, and p = 0, leave no assignment with
    # a degree partly taken: the stream ends after its plain subsets
    gens = _gens((3, 3, 5))
    assert list(_candidates(gens, 4, 20)) == []
    assert list(_candidates(gens, 0, 20)) == [(1, 0, ())]


def test_single_degree_streams_keep_their_pinned_order():
    # captured from the stream of reduced bases: (3, 3, 3, 3) at p = 2, its
    # first 60 yields, and (7, 7, 7, 7) at p = 3 with budget 32, all 32
    # yields; each stream then goes on to its budget
    cases = json.loads((pathlib.Path(__file__).parent / "golden" / "candidate_prefixes.json")
                       .read_text())
    for case in cases:
        gens = _gens(case["degrees"])
        stream = _candidates(gens, case["p"], case["max_candidates"])
        got = [[tried, height, [[[g.name, c] for g, c in pick] for pick in picks]]
               for tried, height, picks in itertools.islice(stream, len(case["yields"]))]
        assert got == case["yields"]
    with pytest.raises(SearchSpaceTooLarge, match="^search budget of .* candidates exceeded$"):
        for _ in stream:
            pass


def test_combine_equals_the_element_sum():
    y1, y2, y3 = (Generator(f"y{i}", 3, i) for i in range(1, 4))
    combination = {y3: 2, y1: -1, y2: 5}
    ref = Element.zero()
    for g, c in combination.items():
        ref = ref + Fraction(c) * Element.from_generator(g)
    assert _combine(combination) == ref
    assert _combine(combination).render() == ref.render() == "-y1 + 5*y2 + 2*y3"
