"""pklie benchmark: certified-verdict latency on seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload catalog8 --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- ``snn8_obstruct``: SnN families 1 and 2 in dimension 8, ``build_snn8`` plus
  ``obstruction_check`` on the paper's beta, component checked against the
  closed formula;
- ``catalog8``: ``find_pkahler`` at p = 2 on the 16 non-abelian dimension-8
  instances (all REFUTED) and torus4 (FOUND), then ``verify_report``;
- ``aab``: a fixed set of unimodular integrable almost-abelian data, n in
  {3, 4}, half of it Kahler-able: Kahler decision, ``find_pkahler`` at
  p = 1 and n - 2, ``verify_report``.

Each workload runs in its own fresh child process with BLAS/OpenMP pinned
to one thread; a timed run repeats whole passes over the workload's input
set.  ``--trace 0`` prints the end-to-end metrics; their times are scaled
to a reference host speed (see ``hostspeed.py``), and an informational line
gives the factors.  ``--trace 1`` runs alternating untraced and traced
passes in one further process and prints the per-layer metrics of the
traced passes, unscaled.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are informational.  Exits 2 without a result when the engine
sources under ``src/pklie`` are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from functools import partial
from time import perf_counter

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 5
PROBE_REPEATS = 5
# Times each CLI command runs.  The snn8_obstruct and aab commands are
# start-up-bound ~0.35 s runs, cheap to repeat, whose time swings most with
# the host's state; catalog8's spend most of their ~0.9 s deciding and
# already spread little over 12 runs.
PROBE_ROUNDS = {"snn8_obstruct": 8, "catalog8": 4, "aab": 6}
CHILD_TIMEOUT = 150

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

SPAN_METRICS = {
    "exterior.wedge": ("calls", "self_s"),
    "exterior.substitute": ("calls", "self_s"),
    "exterior.apply_antiderivation": ("calls", "self_s"),
    "liealg.check_jacobi": ("calls", "self_s"),
    "liealg.is_unimodular": ("calls", "self_s"),
    "linalg.rref": ("calls", "self_s", "cells"),
    "linalg.inverse": ("calls", "self_s"),
    "linalg.solve": ("calls", "self_s"),
    "linalg.hermitian_pivots": ("calls", "self_s"),
    "polynomials.char_poly": ("calls", "self_s"),
    "polynomials.minimal_poly": ("calls", "self_s"),
    "cxstruct.ComplexStructureSpec.from_equations": ("calls", "self_s"),
    "cxstruct.structure_equations": ("calls", "self_s"),
    "cxstruct.ComplexStructureSpec.from_coframe": ("self_s",),
    "cxstruct.check_integrability": ("self_s",),
    "cxstruct.ComplexStructureSpec.d": ("calls", "self_s"),
    "positivity.gram_matrix": ("calls", "self_s"),
    "positivity.gram_positive_definite": ("calls", "self_s", "accepted"),
    "positivity.volume_coefficient": ("calls", "self_s"),
    "positivity.check_transverse": ("calls", "self_s"),
    "simplex.feasibility": ("calls", "self_s", "infeasible"),
    "simplex.verify_farkas": ("calls", "self_s"),
    "pkahler.find_pkahler": ("self_s",),
    "pkahler.closed_pp_space": ("calls", "self_s"),
    "pkahler.verify_report": ("self_s",),
    "pkahler.obstruction_check": ("self_s",),
    "pkahler.obstruction_search": ("calls",),
    "catalog.build_snn8": ("self_s",),
    "catalog.build_almost_abelian": ("self_s",),
    "catalog.kahler_decision_almost_abelian": ("self_s",),
}

# decide_tail_ms: the highest whole percentile with ten decisions beyond it
# in the shortest run of each workload (worker.MIN_PASSES whole passes:
# catalog8 34 decisions, aab 72).  It is fixed, so that a faster engine,
# which repeats the input set more often, is measured at the same place.
# snn8_obstruct makes ~700 decisions of ~15 ms; above p90 its decisions
# mostly time short slow spells of the shared host rather than the engine.
TAIL_PERCENTILE = {"snn8_obstruct": 90, "catalog8": 70, "aab": 86}
WORKLOADS = tuple(TAIL_PERCENTILE)

# Per-layer metrics that do not come from spans.
LAYER_EXTRAS = {
    "pkahler.closed_dim.sum": "count",
    "pkahler.witness_rounds.sum": "count",
    "scalars.gr_mul_ns": "ns",
    "scalars.gr_add_ns": "ns",
    "cli.python_ms": "ms",
    "cli.import_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "trace.overhead_frac": "ratio",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "decide_p50_ms": "ms",
    "decide_tail_ms": "ms",
    "verify_p50_ms": "ms",
    "cli_cold_ms": "ms",
    "peak_rss_mib": "MiB",
    "definitive_frac": "ratio",
}


def per_layer_units() -> dict:
    units = {
        f"{name}.{field}": "s" if field == "self_s" else "count"
        for name, fields in SPAN_METRICS.items()
        for field in fields
    }
    return {**units, **LAYER_EXTRAS}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv: list[str], env: dict, timeout: float = CHILD_TIMEOUT) -> str:
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def worker_argv(args, mode: str) -> list[str]:
    return [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--mode", mode]


def worker_json(env: dict, args, mode: str, *extra: str) -> dict:
    out = run_child([*worker_argv(args, mode), *extra], env)
    return json.loads(out.strip().splitlines()[-1])


def timed_setup(env: dict, args) -> float:
    """Fresh process start until the child has imported pklie and made its inputs."""
    argv = worker_argv(args, "setup")
    t0 = perf_counter()
    with subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        _, err = proc.communicate(timeout=CHILD_TIMEOUT)
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up child failed: {err.strip()[-2000:]}")
    return elapsed


def _dig(data, path: str):
    for key in path.split("."):
        data = data[key]
    return data


def cold_reference_ms(env: dict) -> float:
    """Wall time of ``hostspeed.cold_reference`` in a fresh interpreter."""
    t0 = perf_counter()
    run_child([sys.executable, hostspeed.__file__], env)
    return (perf_counter() - t0) * 1e3


def run_probe(env: dict, probe: dict, index: int) -> tuple[float, str | None]:
    """Cold ``python -m pklie.cli`` run; returns (ms, failure or None)."""
    argv = list(probe["argv"])
    if "file" in probe:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"probe-{index}.json")
        with open(path, "w") as fh:
            json.dump(probe["file"], fh)
        argv = [path if a == "{file}" else a for a in argv]
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pklie.cli", *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    ms = (perf_counter() - t0) * 1e3
    if proc.returncode != 0:
        return ms, f"cli {argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    data = json.loads(proc.stdout)
    for path, want in probe["expect"].items():
        if _dig(data, path) != want:
            return ms, f"cli {argv[0]}: {path} = {_dig(data, path)!r}, expected {want!r}"
    return ms, None


def tail(samples: list[float], percentile: int) -> tuple[float | None, int]:
    """Nearest-rank percentile and the number of samples beyond it; the value
    is None when fewer than ten samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    beyond = len(ordered) - rank
    return (ordered[rank - 1] if beyond >= 10 else None), beyond


def median(samples, scale: float = 1.0) -> float | None:
    return statistics.median(samples) * scale if samples else None


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(env: dict, args) -> tuple[dict, list[str]]:
    workload = args.workload
    probes = worker_json(env, args, "probes")["probes"]
    rounds = probes * PROBE_ROUNDS[workload]
    setups, cli_ms, ref_ms, failures = [], [], [], []
    setup_scaled, cli_scaled = [], []

    def probe(idx: int) -> float:
        ms, failure = run_probe(env, rounds[idx], idx % len(probes))
        if failure and idx < len(probes):
            failures.append(failure)
        return ms

    def sample(indices):
        # set-up and CLI samples alternate, half before and half after the
        # timed run, so a slow spell of the machine hits neither one whole;
        # a cold reference run comes before and after each, and each is
        # scaled by the mean of the two
        runs = []
        for idx in indices:
            if idx < SETUP_REPEATS:
                runs.append((setups, setup_scaled, partial(timed_setup, env, args)))
            if idx < len(rounds):
                runs.append((cli_ms, cli_scaled, partial(probe, idx)))
        before = cold_reference_ms(env)
        ref_ms.append(before)
        for raw_out, scaled_out, measure in runs:
            raw = measure()
            after = cold_reference_ms(env)
            ref_ms.append(after)
            raw_out.append(raw)
            scaled_out.append(hostspeed.cold_scale(raw, (before + after) / 2))
            before = after

    count = max(SETUP_REPEATS, len(rounds))
    sample(range(0, count, 2))
    res = worker_json(env, args, "run")
    failures += res["failures"]
    sample(range(1, count, 2))
    pct = TAIL_PERCENTILE[workload]
    tail_s, beyond = tail(res["decide_s"], pct)
    decisions = res["decisions"]
    # Every time is at the reference host speed: the worker scaled the timed
    # run's between host speed checkpoints, and sample() scaled the rest.
    values = {
        "setup_s": median(setup_scaled),
        "wall_s": median(res["pass_s"]),
        "decide_p50_ms": median(res["decide_s"], 1e3),
        "decide_tail_ms": tail_s and tail_s * 1e3,
        "verify_p50_ms": median(res["verify_s"], 1e3),
        "cli_cold_ms": median(cli_scaled),
        "peak_rss_mib": res["peak_rss_mib"],
        "definitive_frac": res["definitive"] / decisions if decisions else None,
    }
    missing = [name for name, value in values.items() if value is None]
    if missing and not failures:
        raise BenchError(f"no samples for {', '.join(missing)}")
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    info = [
        f"workload {workload}, seed {args.seed}: {len(res['pass_s'])} passes in {res['elapsed_s']:.2f} s, "
        f"{decisions} decisions, {len(res['verify_s'])} verifications",
        f"decide_tail_ms is p{pct} of {decisions} decisions, {beyond} above it",
        f"fail_frac {len(failures) / max(decisions, 1):.6g} ({len(failures)} of {decisions})",
        f"reports_sha256 {res['reports_sha256']}",
        f"cli_cold_ms over {len(cli_ms)} runs of {len(probes)} commands",
        f"host speed: timed-run factor median {median(res['factors']):.6g}, cold reference run median "
        f"{median(ref_ms):.6g} ms; raw setup_s {median(setups):.6g}, raw cli_cold_ms {median(cli_ms):.6g}",
    ]
    info += [f"FAILED: {f}" for f in failures[:20]]
    return {"attempted": decisions, "failed": len(failures), "metrics": metrics}, info


def import_ms(env: dict, statement: str) -> float:
    code = f"import time; t = time.perf_counter(); {statement}; print(time.perf_counter() - t)"
    out = run_child([sys.executable, "-c", code], env)
    return float(out.strip()) * 1e3


def python_ms(env: dict) -> float:
    t0 = perf_counter()
    run_child([sys.executable, "-c", "pass"], env)
    return (perf_counter() - t0) * 1e3


def per_layer(env: dict, args) -> tuple[dict, list[str]]:
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
    traced = worker_json(env, args, "trace", "--trace-out", trace_path)
    values = {
        f"{name}.{field}": traced["spans"].get(name, {}).get(field, 0)
        for name, fields in SPAN_METRICS.items()
        for field in fields
    }
    values.update({
        "pkahler.closed_dim.sum": traced["closed_dim_sum"],
        "pkahler.witness_rounds.sum": traced["witness_rounds_sum"],
        "scalars.gr_mul_ns": traced["scalar_ns"]["mul"],
        "scalars.gr_add_ns": traced["scalar_ns"]["add"],
        "cli.python_ms": statistics.median(python_ms(env) for _ in range(PROBE_REPEATS)),
        "cli.import_ms": statistics.median(import_ms(env, "import pklie.cli") for _ in range(PROBE_REPEATS)),
        "cli.numpy_import_ms": statistics.median(import_ms(env, "import numpy") for _ in range(PROBE_REPEATS)),
        "trace.overhead_frac": traced["overhead_frac"],
    })
    metrics = {name: metric(values[name], unit) for name, unit in per_layer_units().items()}
    failures = traced["failures"]
    info = [
        f"workload {args.workload}, seed {args.seed}: untraced passes "
        f"{', '.join(f'{t:.3f}' for t in traced['untraced_pass_s'])} s, traced passes "
        f"{', '.join(f'{t:.3f}' for t in traced['pass_s'])} s, first traced pass's spans written to "
        f"{os.path.relpath(trace_path, ROOT)}",
        f"absent functions: {', '.join(traced['absent']) or 'none'}",
    ]
    info += [f"FAILED: {f}" for f in failures[:20]]
    return {"attempted": traced["decisions"], "failed": len(failures), "metrics": metrics}, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pklie benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pklie", "__init__.py")):
        print(f"error: engine sources not found under {SRC}/pklie", file=sys.stderr)
        return 2
    env = child_env()
    try:
        if args.trace:
            result, info = per_layer(env, args)
        else:
            result, info = end_to_end(env, args)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in info:
        print(line)
    for name, entry in result["metrics"].items():
        value = "none" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"{name} = {value} {entry['unit']}")
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
