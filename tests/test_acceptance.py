"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria (each exact, no tolerances):
1. membership table and ordered-pair regularity failures of the
   mixed-length example, under 1 s
2. the same example admits no homogeneous F0 basis, yet the
   non-homogeneous pair (dy3, dy1+dy2) is regular, under 1 s
3. 200 randomly generated pure elliptic constant-length models all
   extend, with every soundness invariant verified, under 60 s
4. on every generated model of formal dimension <= 40 the Groebner
   ellipticity decision matches the degreewise cohomology oracle, the
   oracle's dims equal those of the finite complex Q[X]/(dZ) (x) Lambda Y'
   in every degree, Poincare duality holds, and the Euler characteristic
   is the Groebner layer's quotient dimension when chi_pi = 0 and 0 when
   chi_pi < 0, under 120 s
5. bound formulas on the projective series and every coformal random
   model, under 5 s
6. every certificate collected anywhere in the suite satisfies
   d(witness) = generator^exponent by direct evaluation
7. two runs of the full CLI suite are byte-identical
"""
import io
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

from conftest import MODELS, record_criterion

from sullivan.bounds import tc_upper_bound
from sullivan.cli import main as cli_main
from sullivan.ellipticity import (
    _complex_dims,
    _inert,
    _oracle_dims,
    cohomology_dims,
    differential_ideal_basis,
    exactness_certificate,
    is_elliptic,
)
from sullivan.extension import exhaustive_homogeneous_search, f0_extend
from sullivan.groebner import is_regular_sequence, quotient_dimension
from sullivan.parsing import load_model

# certificates collected across criteria, re-verified by criterion 6 as
# (model, certificate) pairs
_CERTIFICATES = []


@contextmanager
def criterion(n: int, budget: float | None, detail: str = ""):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        record_criterion(n, False, time.perf_counter() - t0, budget)
        raise
    elapsed = time.perf_counter() - t0
    ok = budget is None or elapsed < budget
    record_criterion(n, ok, elapsed, budget, detail)
    assert ok, f"criterion {n} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_1_membership_table(mixed_model):
    with criterion(1, 1.0, "memberships and all 6 ordered-pair failures"):
        m = mixed_model
        gens = m.even_generators
        x1 = m.element("x1")
        x2 = m.element("x2")
        g = {i: m.d(m.element(f"y{i}")) for i in (1, 2, 3)}

        from sullivan.groebner import buchberger, member
        gb1 = buchberger([g[1]], gens)
        assert member(x1 * g[2], gb1)
        assert member((x1 ** 4 + x2 ** 3) * g[3], gb1)

        ok, idx = is_regular_sequence([g[1], g[2]], gens)
        assert (ok, idx) == (False, 2)
        for i, j in ((1, 3), (2, 1), (2, 3), (3, 1), (3, 2)):
            ok, idx = is_regular_sequence([g[i], g[j]], gens)
            assert (ok, idx) == (False, 2), (i, j)


def test_criterion_2_no_homogeneous_basis(mixed_model):
    with criterion(2, 1.0, "search exhausts all three 2-subsets"):
        out = exhaustive_homogeneous_search(mixed_model)
        assert out.found is None
        assert out.subset_complete and out.fully_exhaustive
        assert {tuple(r.candidate) for r in out.rejected} == {
            ("y1", "y2"), ("y1", "y3"), ("y2", "y3")}

        m = mixed_model
        gens = m.even_generators
        g1, g2, g3 = (m.d(m.element(f"y{i}")) for i in (1, 2, 3))
        ok, idx = is_regular_sequence([g3, g1 + g2], gens)
        assert ok and idx is None


def test_criterion_3_random_models_all_extend(random_suite_cache):
    with criterion(3, 60.0, "200/200 extensions verified"):
        suite = random_suite_cache.get()
        assert len(suite) >= 200
        for model in suite:
            res = f0_extend(model)
            assert res.verification.passed, model.name
            ext = res.extension
            # same even part, by name and degree
            assert [(x.name, x.degree) for x in ext.even_generators] == \
                [(x.name, x.degree) for x in model.even_generators], model.name
            assert ext.chi_pi() == 0, model.name
            assert res.verification.finite_dimensional, model.name
            assert res.verification.regular, model.name
            assert len(res.certificates) == len(ext.even_generators)
            for cert in res.certificates:
                assert cert.verify(ext), model.name
                _CERTIFICATES.append((ext, cert))
            for e in res.odd_basis:
                assert e.is_homogeneous(), model.name


def test_criterion_4_oracle_equivalence(random_suite_cache):
    suite = random_suite_cache.get()
    small = [m for m in suite if m.formal_dimension() <= 40]
    with criterion(4, 120.0, f"{len(small)} models, the oracle against the complex"):
        assert len(small) == 185
        for model in small:
            assert is_elliptic(model), model.name
            f = model.formal_dimension()
            dims = cohomology_dims(model, f + 6)
            # the second method: the structure theorem's finite complex
            inert = _inert(model)
            assert _oracle_dims(model, inert, f + 6) == _complex_dims(model, inert, f + 6)
            # the oracle agrees this is elliptic: one top class, nothing above
            assert dims[f] == 1, model.name
            assert all(d == 0 for d in dims[f + 1:]), model.name
            for k in range(f + 1):
                assert dims[k] == dims[f - k], (model.name, k)
            # Halperin 1977: chi = dim Q[X]/(dY) when chi_pi = 0, else 0
            chi = sum((-1) ** k * d for k, d in enumerate(dims[:f + 1]))
            quotient = quotient_dimension(differential_ideal_basis(model))
            assert chi == (quotient if model.chi_pi() == 0 else 0), model.name


def test_criterion_5_bound_formulas(random_suite_cache):
    with criterion(5, 5.0, "projective series and all coformal models"):
        for n in (1, 2, 3, 4):
            m = load_model(MODELS / f"cp{n}.model")
            report = tc_upper_bound(m)
            assert report.cat_value == n, n
            assert report.tc_upper == 2 * n, n
            _CERTIFICATES.append((m, exactness_certificate(m, "x")))

        s2 = load_model(MODELS / "s2.model")
        assert tc_upper_bound(s2).tc_upper == 2

        suite = random_suite_cache.get()
        coformal = [m for m in suite
                    if m.differential_length().render() == "constant(2)"]
        assert coformal
        for m in coformal:
            assert tc_upper_bound(m).tc_upper == m.dim_v(), m.name


def test_criterion_6_certificate_soundness(mixed_model):
    for name in ("x1", "x2"):
        _CERTIFICATES.append((mixed_model,
                              exactness_certificate(mixed_model, name)))
    with criterion(6, None, f"{len(_CERTIFICATES)} certificates re-verified"):
        assert len(_CERTIFICATES) > 200
        for model, cert in _CERTIFICATES:
            power = model.element(cert.generator.name) ** cert.exponent
            assert model.d(cert.witness) == power
            assert cert.power == power


def _cli_suite() -> list:
    """Every command against every applicable shipped model."""
    files = sorted(MODELS.glob("*.model"))
    invocations = []
    for path in files:
        invocations.append(("validate", str(path), "--json"))
        invocations.append(("analyze", str(path), "--json"))
    for name in ("coformal_tower", "cp1", "cp2", "cp3", "cp4", "s2",
                 "odd_spheres", "mixed_length", "nonpure", "needs_combination"):
        path = str(MODELS / f"{name}.model")
        invocations.append(("extend", path, "--json"))
        invocations.append(("search", path, "--json"))
        invocations.append(("bound", path, "--json"))
    invocations.append(("bound", str(MODELS / "nonpure.model"),
                        "--pure-sub", "x,w", "--json"))
    for name in ("s2", "cp2", "coformal_tower"):
        invocations.append(("cohomology", str(MODELS / f"{name}.model"),
                            "--up-to", "20", "--json"))
    results = []
    for argv in invocations:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(list(argv))
        results.append((argv, code, out.getvalue(), err.getvalue()))
    return results


def test_criterion_7_determinism():
    with criterion(7, None, "two byte-identical CLI suite runs"):
        first = _cli_suite()
        second = _cli_suite()
        assert len(first) > 30
        assert first == second
        # sanity: the sweep exercises every exit class
        codes = {code for _, code, _, _ in first}
        assert 0 in codes and 1 in codes
