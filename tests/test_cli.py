"""Command-line behavior: exit codes, JSON shape and determinism, stderr format."""
import gc
import importlib
import io
import json
import pathlib
import random
import sys
import time
import weakref
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sullivan import load_model
from sullivan.algebra import MAX_DEGREE, MAX_GENERATORS
from sullivan.cli import main
from sullivan.extension import exhaustive_homogeneous_search
from sullivan.parsing import MAX_DIGITS
from sullivan.errors import (
    ApplicabilityError,
    NotElliptic,
    SullivanError,
    ValidationError,
    VerificationFailed,
)

from test_ellipticity import _ladder_plus
from test_extension import _finite, _witness_withheld, _workloads

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def test_validate_ok():
    code, out, err = run("validate", MODELS / "cp2.model")
    assert code == 0 and err == ""
    assert "pure=True" in out


def test_validate_json():
    code, out, _ = run("validate", MODELS / "cp2.model", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "cp2"
    assert payload["pure"] is True
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_analyze_mixed():
    code, out, _ = run("analyze", MODELS / "mixed_length.model", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["elliptic"] is True
    assert payload["chi_pi"] == -1
    assert payload["formal_dimension"] == 81
    assert payload["exponents"] == {"x1": 7, "x2": 5}


def test_analyze_plain_output():
    code, out, _ = run("analyze", MODELS / "mixed_length.model")
    assert code == 0
    assert "length=mixed{4,5}" in out
    assert "formal dimension 81" in out


def test_missing_file_exit_2():
    code, _, err = run("analyze", MODELS / "missing.model")
    assert code == 2
    assert err.startswith("error[")


def test_syntax_error_exit_2(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text('model "bad"\neven x : 3\n')
    code, _, err = run("validate", bad)
    assert code == 2
    assert err.startswith("error[syntax]: line 2")


@pytest.mark.parametrize("lines, message", [
    (["even x : 2", "odd y : 3 = x^2", "odd u : 5", "odd z : 7 = y*u"],
     "error[differential-not-square-zero]: line 5: d^2(z) = x^2*u is nonzero"),
    (["even t : 6", "odd y : 5 = t"],
     "error[not-minimal]: line 3: d(y) has a linear part; "
     "minimal models need word length >= 2"),
])
def test_validation_failures_name_the_generator_line(tmp_path, lines, message):
    bad = tmp_path / "bad.model"
    bad.write_text('model "bad"\n' + "".join(line + "\n" for line in lines))
    code, out, err = run("validate", bad)
    assert (code, out, err) == (2, "", message + "\n")


def test_deeply_nested_expression_exit_2(tmp_path):
    deep = tmp_path / "deep.model"
    deep.write_text('model "deep"\neven x : 2\nodd y : 3 = '
                    + "(" * 3000 + "x^2" + ")" * 3000 + "\n")
    code, out, err = run("validate", deep)
    assert code == 2
    assert out == ""
    assert err.startswith("error[syntax]: line 3: parentheses nested deeper")
    assert err.count("\n") == 1


def test_zero_denominator_exit_2(tmp_path):
    bad = tmp_path / "zero.model"
    bad.write_text('model "zero"\neven x : 2\nodd y : 3 = x^2 + 1/0\n')
    code, out, err = run("validate", bad)
    assert code == 2
    assert out == ""
    assert err == "error[syntax]: line 3: zero denominator in 1/0\n"


def test_oversized_power_exit_2_at_once(tmp_path):
    big = tmp_path / "big.model"
    big.write_text('model "big"\neven x1 : 2\neven x2 : 2\neven x3 : 2\n'
                   "odd y : 3 = (x1+x2+x3)^150\n")
    start = time.perf_counter()
    code, out, err = run("validate", big)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error[syntax]: line 5: a term of degree 300")
    assert err.count("\n") == 1


def test_monomial_layout_capacity(tmp_path):
    # generators stay below MAX_DEGREE, so that an image of degree |y| + 1
    # fits: x of degree 2 reaches it as x^(MAX_DEGREE // 2); one more degree,
    # or one more generator position, is refused
    top = MAX_DEGREE // 2
    at = tmp_path / "at.model"
    at.write_text(f'model "at"\neven x : 2\nodd y : {2 * top - 1} = x^{top}\n')
    assert run("validate", at)[0] == 0
    past = tmp_path / "past.model"
    past.write_text(f'model "past"\neven x : 2\nodd y : {MAX_DEGREE} = x^{top + 1}\n')
    many = tmp_path / "many.model"
    many.write_text('model "many"\n'
                    + "".join(f"even x{i} : 2\n" for i in range(MAX_GENERATORS + 1)))
    # numbers past MAX_DIGITS are refused before any conversion, in a
    # coefficient, an exponent and a degree field
    long = "1" * 5000
    numbers = []
    for name, text in (("coefficient", f"even x : 2\nodd y : 3 = {long}*x^2\n"),
                       ("exponent", f"even x : 2\nodd y : 3 = x^{long}\n"),
                       ("degree", f"even x : 2\neven z : {long}\n")):
        numbers.append(tmp_path / f"{name}.model")
        numbers[-1].write_text(f'model "{name}"\n{text}')
    too_long = f"a number of more than {MAX_DIGITS} digits"
    for path, message in ((past, f"error[syntax]: line 3: generator 'y' (degree {MAX_DEGREE}"),
                          (many, "error[syntax]: line 34: generator 'x32'"),
                          (numbers[0], f"error[syntax]: line 3: {too_long}"),
                          (numbers[1], f"error[syntax]: line 3: {too_long}"),
                          (numbers[2], f"error[syntax]: line 3: {too_long}")):
        start = time.perf_counter()
        code, out, err = run("validate", path)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith(message)
        assert err.count("\n") == 1


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int-to-str limit")
def test_extend_prints_witnesses_past_the_int_to_str_limit(tmp_path):
    # d(y) = c * x^2 for a 1000-digit c gives the witness y / c, which has
    # more digits than a lowered limit lets the interpreter print
    c = "7" * 1000
    path = tmp_path / "wide.model"
    path.write_text(f'model "wide"\neven x : 2\nodd y : 3 = {c}*x^2\n')
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run("extend", path)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "")
    assert f"certificate: d(1/{c}*z1) = x^2" in out


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int-to-str limit")
@pytest.mark.parametrize("argv", [("validate", MODELS / "cp2.model"),
                                  ("extend", MODELS / "cp2.model"),
                                  ("cohomology", MODELS / "s2.model"),  # exit 2
                                  ("validate", MODELS / "missing.model")])  # exit 2
def test_main_leaves_the_int_to_str_limit_as_it_found_it(argv):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        run(*argv)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


@st.composite
def model_texts(draw):
    """Model text from a small grammar: up to MAX_GENERATORS + 3 generators,
    degrees and exponents at and past the layout's capacity, images that
    multiply odd generators (odd squares included), and sometimes one
    corrupted character."""
    names = [(f"x{i}", draw(st.sampled_from((2, 2, 4, 6, MAX_DEGREE - 1, MAX_DEGREE + 1))))
             for i in range(draw(st.integers(0, 3)))]
    names += [(f"w{i}", 2) for i in range(draw(st.sampled_from((0,) * 7 + (MAX_GENERATORS,))))]
    lines = ['model "fuzz"'] + [f"even {n} : {d}" for n, d in names]
    for j in range(draw(st.integers(0, 3))):
        degree = draw(st.sampled_from((3, 5, 7, MAX_DEGREE)))
        if names and draw(st.booleans()):
            factors = draw(st.lists(st.tuples(
                st.sampled_from(names),
                st.sampled_from((1, 1, 2, 3, MAX_DEGREE // 2, MAX_DEGREE // 2 + 1))),
                min_size=2, max_size=3))
            total = sum(d * e for (_, d), e in factors)
            if total % 2 == 0 and total > 3:
                degree = total - 1
            image = "*".join(f"{n}^{e}" for (n, _), e in factors)
            coefficient = draw(st.sampled_from(("", "2*", "-1/3*", "0*")))
            lines.append(f"odd y{j} : {degree} = {coefficient}{image}")
        else:
            lines.append(f"odd y{j} : {degree}")
        names.append((f"y{j}", degree))
    text = "\n".join(lines) + "\n"
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + draw(st.sampled_from("^*()=:#-x9 \n")) + text[at + 1:]
    return text


@settings(derandomize=True, database=None, deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.too_slow])
@given(model_texts())
def test_generated_models_end_in_a_documented_exit(text):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fuzz.model"
        path.write_text(text)
        for argv in (("validate", path), ("analyze", path), ("bound", path),
                     ("cohomology", path, "--up-to", "8"),
                     ("extend", path),
                     ("search", path, "--max-search", "50")):
            code, out, err = run(*argv)
            assert code in (0, 1, 2)  # never an internal fault (3)
            if code:
                assert err.startswith("error[") and err.count("\n") == 1
            else:
                assert err == ""


def test_search_negative_exit_1():
    code, out, err = run("search", MODELS / "mixed_length.model")
    assert code == 1
    assert "no homogeneous F0-basis extension" in out
    assert err == ""


def test_search_with_more_evens_than_odds_is_not_elliptic(tmp_path):
    # Q[x, w]/(x^2) is infinite: the ellipticity guard refuses the model
    # before any candidate count is compared
    path = tmp_path / "wide.model"
    path.write_text('model "m"\neven x : 2\neven w : 2\nodd y : 3 = x^2\n', encoding="utf-8")
    with pytest.raises(NotElliptic):
        exhaustive_homogeneous_search(load_model(path))
    code, out, err = run("search", path)
    assert (code, out) == (1, "")
    assert err.startswith("error[not-elliptic]: ")


def test_search_negative_json_payload():
    code, out, _ = run("search", MODELS / "mixed_length.model", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["found"] is None
    assert payload["tried"] == 3
    assert len(payload["rejected"]) == 3


def test_search_positive_exit_0():
    code, out, _ = run("search", MODELS / "coformal_tower.model", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] == ["y1", "y3"]


def test_extend_and_search_take_no_seed():
    for command in ("extend", "search"):
        code, out, _ = run(command, MODELS / "coformal_tower.model", "--json")
        assert code == 0
        assert "seed" not in json.loads(out)
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exit_:
            main([command, str(MODELS / "coformal_tower.model"), "--seed", "0"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --seed 0" in err.getvalue()


def test_extend_trace_keeps_inert_odds_on_both_levels(tmp_path, inert_tower_text):
    # d(u) = x*w dies with x, so u joins the inert odd generators at level 2
    path = tmp_path / "inert_tower.model"
    path.write_text(inert_tower_text)
    code, out, err = run("extend", path, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["trace"] == [
        {"level": 1, "evens": ["x"], "active": ["y"], "inert": ["v"], "chosen": ["y"],
         "killed_odd": ["y"], "survivors": ["w", "v", "u", "t"]},
        {"level": 2, "evens": ["w"], "active": ["t"], "inert": ["v", "u"], "chosen": ["t"],
         "killed_odd": ["t"], "survivors": ["v", "u"]},
    ]


def test_extend_trace_kills_a_lower_term_at_the_third_level(tmp_path, three_level_text):
    # at level 2, d(u) = w^2 + x*v has lost x*v to the killed x; the chosen u
    # lifts with its whole image, which the certificate of w uses
    path = tmp_path / "three_level.model"
    path.write_text(three_level_text)
    code, out, err = run("extend", path, "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["trace"] == [
        {"level": 1, "evens": ["x"], "active": ["y"], "inert": [], "chosen": ["y"],
         "killed_odd": ["y"], "survivors": ["w", "v", "u", "t"]},
        {"level": 2, "evens": ["w"], "active": ["u"], "inert": [], "chosen": ["u"],
         "killed_odd": ["u"], "survivors": ["v", "t"]},
        {"level": 3, "evens": ["v"], "active": ["t"], "inert": [], "chosen": ["t"],
         "killed_odd": ["t"], "survivors": []},
    ]
    assert payload["z_odd"] == [{"element": "y", "degree": 3}, {"element": "u", "degree": 7},
                                {"element": "t", "degree": 11}]
    assert [c["witness"] for c in payload["certificates"]] == [
        "z1", "-x*v*z2 + w^2*z2 + v^2*z1", "z3"]
    assert payload["verification"]["quotient_dimension"] == 8


def test_a_small_search_budget_exits_2_in_extend_and_search():
    # the user's budget is an input problem, not an internal fault; 2 stops
    # among the three plain subsets, 3 at the first widened pick
    for budget in ("2", "3"):
        code, out, err = run("search", MODELS / "needs_combination.model", "--max-search", budget)
        assert code == 2 and out == ""
        assert err.startswith("error[search-space-too-large]: ") and err.count("\n") == 1
    # the stage pick of extend takes no budget: the option is a usage error
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        main(["extend", str(MODELS / "needs_combination.model"), "--max-search", "3"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --max-search 3" in err.getvalue()


def test_a_search_budget_below_one_is_refused_before_the_search():
    for budget in ("0", "-5"):
        code, out, err = run("search", MODELS / "cp2.model", "--max-search", budget)
        assert (code, out) == (2, "")
        assert err == f"error[invalid-input]: --max-search must be at least 1, got {budget}\n"


def test_extend_no_evens_reports_empty():
    code, out, _ = run("extend", MODELS / "odd_spheres.model")
    assert code == 0
    assert "empty (no even generators)" in out


def test_extend_nonpure_exit_1():
    code, _, err = run("extend", MODELS / "nonpure.model")
    assert code == 1
    assert err.startswith("error[not-pure]")


def test_bound_cp3():
    code, out, _ = run("bound", MODELS / "cp3.model", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cat_value"] == {"value": 3, "provenance": "lechuga-murillo"}
    assert payload["tc_upper"] == {"value": 6, "provenance": "thm-3.1"}


def test_bound_mixed_length_exit_1():
    code, _, err = run("bound", MODELS / "mixed_length.model")
    assert code == 1
    assert "error[" in err


def test_bound_nonpure_requires_pure_sub():
    code, _, err = run("bound", MODELS / "nonpure.model")
    assert code == 1
    code, out, _ = run("bound", MODELS / "nonpure.model",
                       "--pure-sub", "x,w", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tc_upper"] == {"value": 5, "provenance": "cor-3.5"}


def test_cohomology():
    code, out, _ = run("cohomology", MODELS / "s2.model",
                       "--up-to", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [1, 0, 1, 0, 0]


def _dims_json(name, up_to, dims):
    body = "".join(f"\n    {d}," for d in dims)[:-1]
    return f'{{\n  "dims": [{body}\n  ],\n  "model": "{name}",\n  "up_to": {up_to}\n}}\n'


@pytest.mark.parametrize("path, up_to, expected", [
    # every generator inert: the classes of the exterior algebra on 3, 5, 7
    ("odd_spheres.model", 15, _dims_json("odd-spheres", 15,
                                         [1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1])),
    # closed y1, y2 used by dz = y1*y2: none inert
    ("nonpure.model", 12, _dims_json("nonpure", 12, [1, 0, 1, 2, 0, 2, 0, 0, 2, 0, 2, 1, 0])),
], ids=["odd_spheres", "nonpure"])
def test_cohomology_json_is_pinned(path, up_to, expected):
    code, out, err = run("cohomology", MODELS / path, "--up-to", up_to, "--json")
    assert (code, out, err) == (0, expected, "")


def test_cohomology_through_the_finite_complex_at_once(tmp_path):
    # ladder model (4, 2) plus three odd generators: the oracle takes minutes
    path = tmp_path / "ladder.model"
    path.write_text(_ladder_plus(4, 2, 3))
    start = time.perf_counter()
    code, out, err = run("cohomology", path, "--up-to", "17")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert out.endswith("total dimension through degree 17: 60\n")


def test_cohomology_requires_up_to():
    code, _, err = run("cohomology", MODELS / "s2.model")
    assert code == 2


def test_cohomology_rejects_a_negative_up_to():
    code, out, err = run("cohomology", MODELS / "s2.model", "--up-to", "-3")
    assert (code, out) == (2, "")
    assert err == "error[invalid-input]: --up-to -3 is negative\n"


def test_cohomology_reaches_far_degrees():
    code, out, err = run("cohomology", MODELS / "s2.model", "--up-to", "9999")
    assert (code, err) == (0, "")
    assert out.endswith("total dimension through degree 9999: 2\n")


def test_cohomology_refuses_a_degree_past_the_layout():
    code, out, err = run("cohomology", MODELS / "s2.model", "--up-to", "40000")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("error[invalid-input]: ")
    assert err.endswith(" 32767\n")


def test_cohomology_cost_guard_exit_2_at_once(tmp_path):
    # five copies of S^2 and a non-pure c = a*b, which no finite complex
    # serves: 3,332,379 basis monomials through degree 41
    s2x5ab = tmp_path / "s2x5ab.model"
    s2x5ab.write_text('model "s2x5ab"\n'
                      + "".join(f"even x{i} : 2\n" for i in range(1, 6))
                      + "".join(f"odd y{i} : 3 = x{i}^2\n" for i in range(1, 6))
                      + "odd a : 3\nodd b : 3\nodd c : 5 = a*b\n")
    start = time.perf_counter()
    code, out, err = run("cohomology", s2x5ab, "--up-to", "40")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error[invalid-input]: cohomology through degree 40 needs "
                          "3332379 basis monomials")
    assert err.count("\n") == 1


def test_cohomology_past_the_oracle_limit_through_the_complex(tmp_path):
    # ladder model (5, 2) plus four odd generators: 193,863 monomials of
    # Lambda V through degree 23, over MAX_BASIS, but a finite complex of
    # 2^5 * 2^4 = 512 elements
    path = tmp_path / "ladder.model"
    path.write_text(_ladder_plus(5, 2, 4))
    start = time.perf_counter()
    code, out, err = run("cohomology", path, "--up-to", "22")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert out.endswith("total dimension through degree 22: 192\n")


def test_search_exits_3_when_a_failing_prefix_is_not_confirmed(monkeypatch, tmp_path):
    _witness_withheld(monkeypatch)
    path = tmp_path / "prefix.model"
    path.write_text(_workloads().prefix_model(random.Random(1), 0, 3, 2, 4, _finite).text())
    code, out, err = run("search", path)
    assert (code, out) == (3, "")
    assert err == ("error[verification-failed]: element 2 drops no Krull dimension but "
                   "has no zero-divisor witness\n")


def test_nilpotency_search_starts_at_the_pure_power(tmp_path):
    # x^16383 is the one leading monomial: the search makes one membership
    # test, not 16383 of them
    top = tmp_path / "top.model"
    top.write_text('model "top"\neven x : 2\nodd y : 32765 = x^16383\n')
    start = time.perf_counter()
    code, out, err = run("analyze", top)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert "nilpotency exponent of x: 16383" in out


def test_quotient_dimension_answers_at_once(tmp_path):
    # Q[x, z]/(x^16383, z^16383): 268,402,689 standard monomials, counted
    # from the two leading monomials, not one by one
    huge = tmp_path / "huge.model"
    huge.write_text('model "huge"\neven x : 2\neven z : 2\n'
                    "odd y : 32765 = x^16383\nodd w : 32765 = z^16383\n")
    start = time.perf_counter()
    code, out, err = run("analyze", huge)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert "nilpotency exponent of x: 16383" in out
    code, out, err = run("extend", huge, "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["verification"]["quotient_dimension"] == 268402689


def test_large_quotients_get_answers_through_every_command(tmp_path):
    # Q[x, z]/(x^400, z^400) has 160,000 standard monomials; kept out of
    # models/, whose every file the CLI golden lists
    model = tmp_path / "e400.model"
    model.write_text('model "e400"\neven x : 2\neven z : 2\n'
                     "odd y : 799 = x^400\nodd w : 799 = z^400\n")
    for command in ("analyze", "extend", "search"):
        start = time.perf_counter()
        code, out, err = run(command, model)
        assert time.perf_counter() - start < 1.0, command
        assert code == 0 and err == "", command
    code, out, err = run("extend", model, "--json")
    assert json.loads(out)["verification"]["quotient_dimension"] == 160000


def test_search_combines_inside_one_degree_next_to_another(tmp_path):
    # two odd generators of degree 3 and one of degree 5: no plain pair is
    # regular, and the assignment (1, 1) takes a degree-3 combination with
    # y3; kept out of models/, whose every file the CLI golden lists
    model = tmp_path / "two_degrees.model"
    model.write_text('model "two-degrees"\neven x : 2\neven w : 2\n'
                     "odd y1 : 3 = x^2 + x*w\nodd y2 : 3 = x*w + w^2\n"
                     "odd y3 : 5 = x^2*w - x*w^2\n")
    code, out, err = run("search", model, "--json")
    assert code == 0 and err == ""
    result = json.loads(out)
    assert result["found"] == ["y1 + y2", "y3"]
    assert result["tried"] == 5
    assert [r["candidate"] for r in result["rejected"]] == [
        ["y1", "y2"], ["y1", "y3"], ["y2", "y3"], ["y1 - y2", "y3"]]


def test_json_byte_determinism():
    invocations = [
        ("analyze", MODELS / "mixed_length.model", "--json"),
        ("extend", MODELS / "coformal_tower.model", "--json"),
        ("extend", MODELS / "needs_combination.model", "--json"),
        ("search", MODELS / "mixed_length.model", "--json"),
        ("search", MODELS / "needs_combination.model", "--json"),
        ("bound", MODELS / "cp4.model", "--json"),
    ]
    first = [run(*argv) for argv in invocations]
    second = [run(*argv) for argv in invocations]
    assert first == second


def test_internal_errors_map_to_exit_3(monkeypatch):
    import sullivan.cli as cli_mod
    from sullivan.errors import VerificationFailed

    def boom(args):
        raise VerificationFailed("invariant broke")

    monkeypatch.setattr(cli_mod, "cmd_validate", boom)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_mod.main(["validate", str(MODELS / "cp1.model")])
    assert code == 3
    assert err.getvalue().startswith(
        f"error[{VerificationFailed('x').code}]")


def _error_classes(cls=SullivanError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


def _documented_exit(cls):
    if issubclass(cls, ApplicabilityError):
        return 1  # a negative mathematical result
    if issubclass(cls, VerificationFailed):
        return 3  # an internal fault
    return 2  # an input or budget problem


@pytest.mark.parametrize("cls", sorted(_error_classes(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_package_error_ends_in_its_documented_exit(cls, monkeypatch):
    import sullivan.cli as cli_mod

    def boom(args):
        raise cls(None, "it failed") if issubclass(cls, ValidationError) else cls("it failed")

    monkeypatch.setattr(cli_mod, "cmd_validate", boom)
    code, out, err = run("validate", MODELS / "cp1.model")
    assert code == cls.exit == _documented_exit(cls)
    assert out == ""
    assert err == f"error[{cls.code}]: it failed\n"


def test_a_reimported_package_is_freed():
    # no runtime typing object may keep a package class, and with it every
    # module of that copy of the package, alive after the copy is dropped
    ours = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "sullivan"}
    try:
        for name in ours:
            del sys.modules[name]
        fresh = importlib.import_module("sullivan.cli")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert fresh.main(["analyze", str(MODELS / "mixed_length.model")]) == 0
            assert fresh.main(["cohomology", str(MODELS / "cp2.model"), "--up-to", "6"]) == 0
        generator = weakref.ref(sys.modules["sullivan.algebra"].Generator)
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "sullivan"]:
            del sys.modules[name]
        sys.modules.update(ours)
    del fresh
    gc.collect()
    assert generator() is None


def test_unexpected_exceptions_map_to_exit_3(monkeypatch):
    import sullivan.cli as cli_mod

    def boom(args):
        raise RecursionError("maximum recursion\ndepth exceeded")

    monkeypatch.setattr(cli_mod, "cmd_validate", boom)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_mod.main(["validate", str(MODELS / "cp1.model")])
    assert code == 3
    assert out.getvalue() == ""
    assert err.getvalue() == (
        "error[internal]: RecursionError: maximum recursion depth exceeded\n")
