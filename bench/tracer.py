"""Span recorder and call-site patching for the benchmark's traced runs.

``install`` wraps the public functions of every ``sullivan`` module and the
public methods of ``SullivanModel``, then rebinds each wrapped function at
every module that imported it by name (``from .groebner import buchberger``
binds a second reference that patching ``groebner`` alone would miss).
Each wrapped call records a span (name, start, end, parent) in memory;
``write`` saves them when the run ends.

Per-term arithmetic is not wrapped: ``algebra.mul_monomials`` runs once per
pair of terms in every product, millions of times per workload, and a
wrapper there would dominate the traced run and distort every self time
above it.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

MODULES = ("parsing", "algebra", "model", "groebner", "ellipticity",
           "extension", "bounds", "cli")
NOT_WRAPPED = {"algebra.mul_monomials"}
#: spans under this name hold the recorder's own bookkeeping; they count as
#: children of the span they sit in, so its self time excludes them
BOOKKEEPING = "(trace)"


class SpanRecorder:
    """Spans as (name, start, end, parent) tuples plus named counters, kept
    in memory.  ``wrapped`` names every function ``install`` wrapped."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self.wrapped: set[str] = set()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        name, t0, _, parent = self.spans[idx]
        self.spans[idx] = (name, t0, perf_counter(), parent)
        self._stack.pop()

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def maximum(self, key: str, value: int) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def see(self, key: str, item) -> None:
        self.distinct.setdefault(key, set()).add(item)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, name, t0, t1, parent]) + "\n")


def self_times(spans, lo: int = 0) -> dict[str, tuple[int, float]]:
    """Per-name (calls, self seconds) over spans given as (name, start, end,
    parent) with parent an absolute index, or -1, and the first span at
    index ``lo``.  Self time is a span's duration minus the part of its
    interval that its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for name, t0, t1, parent in spans:
        if parent >= lo:
            children.setdefault(parent, []).append((t0, t1))
    out: dict[str, list] = {}
    for i, (name, t0, t1, _) in enumerate(spans, start=lo):
        covered = 0.0
        reach = t0
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        if name == BOOKKEEPING:
            continue
        agg = out.setdefault(name, [0, 0.0])
        agg[0] += 1
        agg[1] += (t1 - t0) - covered
    return {k: (v[0], v[1]) for k, v in out.items()}


# -- counters recorded at span boundaries -------------------------------------

def _buchberger_counts(rec: SpanRecorder, args, kwargs, gb) -> None:
    elements = args[0] if args else kwargs["elements"]
    variables = args[1] if len(args) > 1 else kwargs["variables"]
    order = gb.order
    rec.see("groebner.buchberger.distinct",
            (tuple(variables), order.weights, order.elim, tuple(elements)))
    bits = 0
    terms = 0
    for g in gb.generators:
        for _, c in g.items():
            terms += 1
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    rec.add("groebner.buchberger.basis_terms", terms)
    rec.maximum("groebner.buchberger.coeff_bits_max", bits)


def _enumerate_basis_counts(rec, args, kwargs, out) -> None:
    rec.add("algebra.enumerate_basis.monomials", len(out))


def _regular_subset_counts(rec, args, kwargs, out) -> None:
    rec.add("extension.find_homogeneous_regular_subset.tried", out.tried)


def _search_counts(rec, args, kwargs, out) -> None:
    rec.add("extension.exhaustive_homogeneous_search.tried", out.tried)
    rec.add("extension.exhaustive_homogeneous_search.rejected", len(out.rejected))


COUNTERS = {
    "groebner.buchberger": _buchberger_counts,
    "algebra.enumerate_basis": _enumerate_basis_counts,
    "extension.find_homogeneous_regular_subset": _regular_subset_counts,
    "extension.exhaustive_homogeneous_search": _search_counts,
}
#: the counts the functions above record; a round that never reaches one
#: records 0
COUNTED = (
    "groebner.buchberger.basis_terms",
    "groebner.buchberger.coeff_bits_max",
    "algebra.enumerate_basis.monomials",
    "extension.find_homogeneous_regular_subset.tried",
    "extension.exhaustive_homogeneous_search.tried",
    "extension.exhaustive_homogeneous_search.rejected",
)


def _wrap(rec: SpanRecorder, name: str, fn):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if counter is not None:
            book = rec.open(BOOKKEEPING)
            try:
                counter(rec, args, kwargs, out)
            finally:
                rec.close(book)
        return out

    return traced


def install(rec: SpanRecorder):
    """Wrap every public function of the imported ``sullivan`` package at
    every binding site; returns an undo callable."""
    mods = {m: importlib.import_module(f"sullivan.{m}") for m in MODULES}
    wrappers: dict[int, object] = {}
    undo: list[tuple[object, str, object]] = []
    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or f"{short}.{attr}" in NOT_WRAPPED):
                continue
            wrappers[id(fn)] = (fn, _wrap(rec, f"{short}.{attr}", fn))
            rec.wrapped.add(f"{short}.{attr}")
    cls = mods["model"].SullivanModel
    for attr, fn in list(vars(cls).items()):
        if not attr.startswith("_") and inspect.isfunction(fn):
            undo.append((cls, attr, fn))
            setattr(cls, attr, _wrap(rec, f"model.{attr}", fn))
            rec.wrapped.add(f"model.{attr}")
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "sullivan" or mod_name.startswith("sullivan.")):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                undo.append((mod, attr, val))
                setattr(mod, attr, hit[1])

    def uninstall():
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)

    return uninstall
