"""Span tracer that times engine functions from outside the engine.

The tracer replaces each listed function with a wrapper at every place the
function is bound: its home module, every module that imported it by name
(``from .x import f``), and the class dict for methods.  Each call records a
span ``[name, start, end, parent, decision]``; spans stay in memory until
``dump`` writes them out.  A function that no longer exists is reported in
``absent`` instead of failing, so the span list can outlive renames.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, qualified name) of every function that gets a span.
SPANS = [
    ("exterior", "wedge"),
    ("exterior", "substitute"),
    ("exterior", "apply_antiderivation"),
    ("liealg", "check_jacobi"),
    ("liealg", "is_unimodular"),
    ("linalg", "rref"),
    ("linalg", "inverse"),
    ("linalg", "solve"),
    ("linalg", "hermitian_pivots"),
    ("polynomials", "char_poly"),
    ("polynomials", "minimal_poly"),
    ("cxstruct", "ComplexStructureSpec.from_equations"),
    ("cxstruct", "ComplexStructureSpec.from_coframe"),
    ("cxstruct", "ComplexStructureSpec.d"),
    ("cxstruct", "structure_equations"),
    ("cxstruct", "check_integrability"),
    ("positivity", "gram_matrix"),
    ("positivity", "gram_positive_definite"),
    ("positivity", "volume_coefficient"),
    ("positivity", "check_transverse"),
    ("simplex", "feasibility"),
    ("simplex", "verify_farkas"),
    ("pkahler", "find_pkahler"),
    ("pkahler", "closed_pp_space"),
    ("pkahler", "verify_report"),
    ("pkahler", "obstruction_check"),
    ("pkahler", "obstruction_search"),
    ("catalog", "build_snn8"),
    ("catalog", "build_almost_abelian"),
    ("catalog", "kahler_decision_almost_abelian"),
]


def _rref_cells(args, _result) -> dict:
    m = args[0]
    return {"cells": len(m) * (len(m[0]) if m else 0)}


def _pd_accepted(_args, result) -> dict:
    return {"accepted": int(bool(result[0]))}


def _lp_infeasible(_args, result) -> dict:
    return {"infeasible": int(not result.feasible)}


# Extra counters taken from a call's arguments or result.
COUNTERS = {
    "linalg.rref": _rref_cells,
    "positivity.gram_positive_definite": _pd_accepted,
    "simplex.feasibility": _lp_infeasible,
}


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


class Tracer:
    def __init__(self, specs=SPANS):
        self.specs = list(specs)
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, int]] = {}
        self.absent: list[str] = []
        self.decision: int | None = None  # id of the workload item being run
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------------

    def install(self) -> None:
        for module, qualname in self.specs:
            name = span_name(module, qualname)
            try:
                home = importlib.import_module(f"pklie.{module}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(name)
                continue
            self.counters[name] = {}
            if owner_name:
                self._patch_method(owner, attr, raw, name)
            else:
                self._patch_everywhere(raw, self._wrap(name, raw))

    def _patch_method(self, cls, attr: str, raw, name: str) -> None:
        if isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(name, raw.__func__))
        else:
            new = self._wrap(name, raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, new)

    def _patch_everywhere(self, func, wrapper) -> None:
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if value is func:
                    self._undo.append((module, attr, func))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, func):
        spans, stack, counters = self.spans, self._stack, self.counters[name]
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.decision]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, result).items():
                    counters[key] = counters.get(key, 0) + value
            return result

        return wrapper

    # -- results --------------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s (span time minus child spans) and counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, **extra} for name, extra in self.counters.items()}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child[idx]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, decision in self.spans:
                fh.write(json.dumps([name, start, end, parent, decision]) + "\n")
