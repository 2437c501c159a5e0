"""One workload in one fresh process: set up, run closed-loop passes, check.

``run.py`` starts this file as a child process; it is not meant to be run by
hand.  Modes:

- ``setup``: import the engine, generate the inputs, print ``ready``, exit.
- ``probes``: set up and print the workload's CLI commands with the
  outputs they must give, as JSON.
- ``run``: set up, then run whole passes over the workload's input set
  until ``--seconds`` have gone by and at least the workload's
  ``MIN_PASSES`` were made, and print one JSON line of samples.
- ``trace``: set up, then run ``TRACE_PAIRS`` pairs of one untraced and one
  traced pass (every engine function in ``tracer.SPANS`` wrapped),
  alternating which of the two goes first, and print the span summary of
  the traced passes, the pass times, the tracing overhead and a scalar
  microbenchmark as JSON.

Every pass runs the whole input set made at set-up, so the inputs a run
measures do not depend on how many passes fit into ``--seconds``: a faster
engine only repeats the same set more often.  Each decision runs only after
the previous one finished: one client, one thread, no concurrency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
from fractions import Fraction
from time import perf_counter

from pklie.catalog import (
    build_almost_abelian,
    build_snn8,
    kahler_decision_almost_abelian,
    named_example,
)
from pklie.exterior import ComplexForm, form_from_json, form_to_json, form_to_literal, monomial
from pklie.pkahler import (
    PKVerdict,
    find_pkahler,
    obstruction_check,
    verify_report,
)
from pklie.positivity import SearchBudget
from pklie.scalars import GaussianRational

import gen
import hostspeed

CATALOG8 = [
    "snn8f1:0,0,0,1",
    "snn8f1:0,0,1,0",
    "snn8f1:0,0,1,1:-1",
    "snn8f1:0,1,0,1",
    "snn8f1:0,1,1,1/2",
    "snn8f1:1,0,0,1",
    "snn8f1:1,1,1,1",
    "snn8f2:1,1,0,0,0",
    "snn8f2:1,0,1,1,1",
    "snn8f2:1,0,0,0,2",
    "snn8f2:1,0,0,1,-1",
    "snn8f2:0,1,0,1,0",
    "qn8a",
    "qn8b",
    "qn8c",
    "iwasawa_x_c",
    "torus4",
]
CATALOG8_CLI = ["snn8f1:0,0,0,1", "snn8f2:1,0,1,1,1", "qn8b"]
AAB_BUDGET = dict(restarts=20, steps=100, witness_cap=6)
TRACE_PAIRS = 2


class FailedCheck(Exception):
    """A verdict, formula or certificate did not match what was expected."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise FailedCheck(what)


def _round_trip(obj: dict) -> dict:
    return json.loads(json.dumps(obj, sort_keys=True))


class Recorder:
    """Samples and outcomes of the decisions of one run.

    Times are kept at the reference host speed: ``checkpoint`` takes a host
    speed sample and scales every time recorded since the previous one by
    the factor of the two samples around them (``hostspeed.factor``).
    ``busy_s`` sums the wall time between checkpoints, scaled the same way,
    without the time the samples take.
    """

    def __init__(self):
        self.decide_s: list[float] = []  # one sample per decision that finished
        self.verify_s: list[float] = []
        self.factors: list[float] = []  # host speed factor of each checkpoint
        self.busy_s = 0.0
        self.decisions = 0  # attempted, including those that raised
        self.definitive = 0
        self.failures: list[str] = []
        self.reports: list[str] = []  # serialized outputs of the first pass
        self.closed_dim_sum = 0
        self.witness_rounds_sum = 0
        self.keep_reports = True
        self._speed = hostspeed.sample()
        self._marks = (0, 0)
        self._t0 = perf_counter()

    def checkpoint(self) -> None:
        elapsed = perf_counter() - self._t0
        after = hostspeed.sample()
        factor = hostspeed.factor(self._speed, after)
        d, v = self._marks
        self.decide_s[d:] = [t * factor for t in self.decide_s[d:]]
        self.verify_s[v:] = [t * factor for t in self.verify_s[v:]]
        self.busy_s += elapsed * factor
        self.factors.append(factor)
        self._speed = after
        self._marks = (len(self.decide_s), len(self.verify_s))
        self._t0 = perf_counter()

    def decided(self, seconds: float, definitive: bool) -> None:
        self.decide_s.append(seconds)
        self.decisions += 1
        self.definitive += int(definitive)

    def output(self, data: dict) -> None:
        if self.keep_reports:
            self.reports.append(json.dumps(data, sort_keys=True, separators=(",", ":")))

    def pk_report(self, struct, rep, seconds: float) -> dict:
        """Record a find_pkahler decision; verify it if definitive, after a
        checkpoint, so that a long decision and its verification are scaled
        by host speed samples taken close to each."""
        definitive = rep.verdict != PKVerdict.INCONCLUSIVE
        self.decided(seconds, definitive)
        data = _round_trip(rep.to_json())
        self.output(data)
        self.closed_dim_sum += rep.stats.get("closed_dim", 0)
        self.witness_rounds_sum += rep.stats.get("witness_rounds", 0)
        if definitive:
            self.checkpoint()
            t0 = perf_counter()
            failures = verify_report(struct, data)
            self.verify_s.append(perf_counter() - t0)
            _check(not failures, f"verify_report: {failures}")
        return data


# -- snn8_obstruct ---------------------------------------------------------------------


def snn8_beta(family: int, params) -> tuple[ComplexForm, ComplexForm]:
    """The paper's beta for p = 2 and the closed form of the (2,2) part of d beta."""
    if family == 1:
        _eps, _nu, a, b = params
        beta = monomial(4, (1, 4), (1,), b) - monomial(4, (1, 3), (2,), a)
        return beta, monomial(4, (1, 2), (1, 2), a * a + b * b)
    eps, mu, _nu, _a, _b = params
    beta = monomial(4, (1, 4), (1,)) + monomial(4, (1, 2), (3,), 1 - mu)
    return beta, monomial(4, (1, 2), (1, 2), eps - eps * mu - mu)


def snn8_name(family: int, params, delta: int) -> str:
    name = f"snn8f{family}:" + ",".join(str(x) for x in params)
    return name + (f":{delta}" if family == 1 else "")


def snn8_inputs(rng: random.Random):
    return gen.snn8_params(rng)


def snn8_item(item, rec: Recorder, seed: int) -> None:
    family, params, delta = item
    t0 = perf_counter()
    struct = build_snn8(family, params, delta)
    beta, expected = snn8_beta(family, params)
    cert = obstruction_check(struct, 2, beta)
    rec.decided(perf_counter() - t0, True)
    _check(cert.component == expected, f"{snn8_name(*item)}: component is not the closed formula")
    data = _round_trip(cert.to_json())
    rec.output(data)
    t0 = perf_counter()
    n = struct.n
    terms = [(GaussianRational.parse(t["c"]), form_from_json(t["psi"], n)) for t in data["terms"]]
    again = obstruction_check(struct, 2, form_from_json(data["beta"], n), terms)
    rec.verify_s.append(perf_counter() - t0)
    _check(again.component == form_from_json(data["component"], n), "certificate re-check failed")


def snn8_probes(items, seed: int):
    out = []
    for family, params, delta in (items[0], items[30], items[60]):
        beta, expected = snn8_beta(family, params)
        argv = ["obstruct", "--catalog", snn8_name(family, params, delta), "--p", "2",
                f"--beta={form_to_literal(beta)}", "--format", "json"]
        out.append({"argv": argv, "expect": {"obstructed": True,
                                             "certificate.component": form_to_json(expected)}})
    return out


# -- catalog8 --------------------------------------------------------------------------


def catalog8_inputs(_rng: random.Random):
    return CATALOG8


def catalog8_item(name: str, rec: Recorder, seed: int) -> None:
    struct = named_example(name)
    t0 = perf_counter()
    rep = find_pkahler(struct, 2, SearchBudget(seed=seed))
    data = rec.pk_report(struct, rep, perf_counter() - t0)
    expected = "FOUND" if name == "torus4" else "REFUTED"
    _check(data["verdict"] == expected, f"{name}: {data['verdict']}, expected {expected}")


def catalog8_probes(_items, seed: int):
    return [
        {"argv": ["find", "--catalog", name, "--p", "2", "--format", "json", "--seed", str(seed)],
         "expect": {"report.verdict": "REFUTED"}}
        for name in CATALOG8_CLI
    ]


# -- aab -------------------------------------------------------------------------------


def aab_inputs(_rng: random.Random):
    return gen.aab_set()


def aab_item(data, rec: Recorder, seed: int) -> None:
    struct = build_almost_abelian(data)
    decision = kahler_decision_almost_abelian(data)
    for p in sorted({1, data.n - 2}):
        t0 = perf_counter()
        rep = find_pkahler(struct, p, SearchBudget(seed=seed, **AAB_BUDGET))
        out = rec.pk_report(struct, rep, perf_counter() - t0)
        _check(out["verdict"] != "FOUND" or decision.value, f"n={data.n} p={p} FOUND but not Kahler")


def aab_payload(data) -> dict:
    return {"almost_abelian": {"n": data.n, "lambda": str(data.lam), "v": [str(x) for x in data.v],
                               "A": [[str(x) for x in row] for row in data.A]}}


def aab_probes(items, _seed: int):
    return [
        {"argv": ["aab-kahler", "--in", "{file}", "--format", "json"], "file": aab_payload(data),
         "expect": {"kahler": kahler_decision_almost_abelian(data).value}}
        for data in (items[0], items[8], items[19])
    ]


WORKLOADS = {
    "snn8_obstruct": (snn8_inputs, snn8_item, snn8_probes),
    "catalog8": (catalog8_inputs, catalog8_item, catalog8_probes),
    "aab": (aab_inputs, aab_item, aab_probes),
}
# Whole passes a timed run makes at least, so that its decide_tail_ms
# percentile (run.TAIL_PERCENTILE) has ten decisions beyond it: 144 decisions
# for snn8_obstruct, 34 for catalog8 and 72 for aab.  aab makes a third pass
# so that its tail percentile falls inside its group of slow decisions.
MIN_PASSES = {"snn8_obstruct": 2, "catalog8": 2, "aab": 3}


# -- running ---------------------------------------------------------------------------


def run_passes(items, run_item, seed: int, min_passes: int = 1, seconds: float = 0.0, tracer=None):
    """Whole passes over ``items`` until ``seconds`` elapsed and at least
    ``min_passes`` were made.  Every item ends with a host speed checkpoint
    (``Recorder.checkpoint``); a pass time is the scaled busy time of its
    items."""
    rec = Recorder()
    pass_s = []
    deadline = perf_counter() + seconds
    while len(pass_s) < min_passes or perf_counter() < deadline:
        start = rec.busy_s
        for item_id, item in enumerate(items):
            if tracer is not None:
                tracer.decision = item_id
            decisions = rec.decisions
            try:
                run_item(item, rec, seed)
            except Exception as exc:  # every failure is counted, the run goes on
                rec.failures.append(f"{type(exc).__name__}: {exc}")
                if rec.decisions == decisions:  # raised before its decision was recorded
                    rec.decisions += 1
            rec.checkpoint()
        pass_s.append(rec.busy_s - start)
        rec.keep_reports = False
    return rec, pass_s


def summary(rec: Recorder, pass_s: list[float], elapsed: float) -> dict:
    return {
        "elapsed_s": elapsed,
        "pass_s": pass_s,
        "decide_s": rec.decide_s,
        "verify_s": rec.verify_s,
        "factors": rec.factors,
        "decisions": rec.decisions,
        "definitive": rec.definitive,
        "failures": rec.failures,
        "reports_sha256": hashlib.sha256("\n".join(rec.reports).encode()).hexdigest(),
        "closed_dim_sum": rec.closed_dim_sum,
        "witness_rounds_sum": rec.witness_rounds_sum,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def scalar_ns(operands: list, rng: random.Random, rounds: int = 7, size: int = 400) -> dict:
    """Median ns per GaussianRational mul and add on operand pairs from the workload."""
    xs = [rng.choice(operands) for _ in range(size)]
    ys = [rng.choice(operands) for _ in range(size)]
    out = {}
    for op, fn in (("mul", lambda x, y: x * y), ("add", lambda x, y: x + y)):
        times = []
        for _ in range(rounds):
            t0 = perf_counter()
            for x, y in zip(xs, ys):
                fn(x, y)
            times.append(perf_counter() - t0)
        out[op] = statistics.median(times) / size * 1e9
    return out


def report_operands(reports: list[str]) -> list:
    """Every distinct scalar in the serialized outputs, in a fixed order."""
    seen = set()

    def walk(node):
        if isinstance(node, dict):
            if "re" in node and "im" in node:
                seen.add((node["re"], node["im"]))
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    for text in reports:
        walk(json.loads(text))
    values = [GaussianRational(Fraction(re), Fraction(im)) for re, im in sorted(seen)]
    return [v for v in values if not v.is_zero()]


def traced_pairs(items, run_item, seed: int, trace_out: str | None) -> dict:
    """``TRACE_PAIRS`` pairs of an untraced and a traced pass, alternating
    which goes first.  Counts come from the first traced pass, self times
    are medians over the traced passes, and the tracing overhead is the
    median over the pairs of traced / untraced pass time - 1."""
    from tracer import Tracer

    untraced_s, traced_s, failures, tracers = [], [], [], []
    first = None
    for pair in range(TRACE_PAIRS):
        for traced in (False, True) if pair % 2 == 0 else (True, False):
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                rec, pass_s = run_passes(items, run_item, seed, tracer=tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            failures += rec.failures
            if tracer is None:
                untraced_s += pass_s
                continue
            traced_s += pass_s
            tracers.append(tracer)
            first = first or rec
    out = summary(first, traced_s, sum(untraced_s) + sum(traced_s))
    out["decisions"] = first.decisions * 2 * TRACE_PAIRS
    out["failures"] = failures
    out["untraced_pass_s"] = untraced_s
    out["overhead_frac"] = statistics.median(t / u - 1 for t, u in zip(traced_s, untraced_s))
    spans = tracers[0].summary()
    for name, entry in spans.items():
        entry["self_s"] = statistics.median(t.summary()[name]["self_s"] for t in tracers)
    out["spans"] = spans
    out["absent"] = tracers[0].absent
    if trace_out:
        tracers[0].dump(trace_out)
    out["scalar_ns"] = scalar_ns(report_operands(first.reports), random.Random(seed))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "probes", "run", "trace"), default="run")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    make_inputs, run_item, make_probes = WORKLOADS[args.workload]
    items = make_inputs(random.Random(args.seed))
    if args.mode == "setup":
        print("ready", flush=True)
        return 0
    if args.mode == "probes":
        print(json.dumps({"probes": make_probes(items, args.seed)}), flush=True)
        return 0

    if args.mode == "run":
        t0 = perf_counter()
        rec, pass_s = run_passes(items, run_item, args.seed, MIN_PASSES[args.workload], args.seconds)
        out = summary(rec, pass_s, perf_counter() - t0)
    else:
        out = traced_pairs(items, run_item, args.seed, args.trace_out)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
