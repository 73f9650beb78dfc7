"""The repo's benchmark: four workloads, end-to-end and per-layer metrics.

    PYTHONPATH=src python bench/run.py --seed 42          # all workloads, tracing off
    python3 bench/run.py --workload city-flood --seed 7 --trace 1

Each repetition runs in a fresh interpreter (``bench/workloads.py rep``),
one after another, until ``--seconds`` is spent (at least ``MIN_REPS``).
The run length is the benchmark's: ``--seconds`` defaults to
``BENCHMARK.json``'s ``run_seconds``, and a caller of the benchmark's
command line passes that same value.
Tracing off, the run prints every end-to-end metric with unit and sample
count: a timing's best repetition, or the median of set-up time, memory
and the deterministic metrics.  ``--trace`` alternates
untraced and traced repetitions and prints the per-layer metrics of the
traced ones instead; the spans of the first traced repetition go to
``bench/out/trace-<workload>-seed<seed>.jsonl``.

Before any repetition a preflight reruns the committed lossy 10k city and
compares it with its golden.  The run fails (exit 1, ``"correct":
false``) when the preflight, any repetition's own checks, or the equality
of the repetitions' output fingerprints fails; it exits 2 without a
result when a repetition cannot run at all.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
One ``PERF_RECORD {...}`` line per workload precedes it, in the shape
``tools/bench_record.py`` appends to a trajectory file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

# Metrics that are a pure function of (seed, workload): compare.py
# requires them to be identical, whatever the bound says.
DETERMINISTIC = ("match_rate", "frames_per_episode")
# Interference from other tenants of a shared machine only ever slows a
# repetition down, so a timing reports its best repetition.  Set-up time
# (set up once per repetition), memory and the deterministic metrics
# report the median.
MEDIAN_METRICS = frozenset({"setup_s", "peak_rss_mb", *DETERMINISTIC})
MIN_REPS = 3  # untraced repetitions per run, whatever --seconds says
SMOKE_MIN_REPS = 2
# Every child still running this long after the start (plus --seconds per
# workload after the first) is killed, so a 25-s run ends within 180 s.
RUN_SLACK_S = 145


class BenchError(RuntimeError):
    """A repetition could not run; no result is printed."""


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def _child(args: list[str], deadline: float) -> dict:
    """Run ``bench/workloads.py`` in a fresh interpreter; parse its last line."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"workloads.py {' '.join(args)} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(
            f"workloads.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"workloads.py {' '.join(args)} printed no result") from None


def _rep_function(smoke: bool, deadline: float):
    """(workload, seed, traced, trace_out) -> rep dict, in-process for smoke."""
    if smoke:
        import workloads  # imports the program; only the smoke scale runs in-process

        return lambda w, seed, traced, out: workloads.run_rep(
            w, seed, smoke=True, traced=traced, trace_out=out)

    def rep(w, seed, traced, out):
        args = ["rep", "--workload", w, "--seed", str(seed), "--trace", str(int(traced))]
        if out:
            args += ["--trace-out", str(out)]
        return _child(args, deadline)

    return rep


def preflight(smoke: bool, deadline: float) -> dict:
    if smoke:
        import workloads

        return workloads.preflight()
    return _child(["preflight"], deadline)


def estimate(name: str, values: list[float], better: str) -> float:
    """One end-to-end metric's value over a run's repetitions."""
    if name in MEDIAN_METRICS:
        return statistics.median(values)
    return min(values) if better == "lower" else max(values)


def measure(workload: str, seed: int, seconds: float, *, trace: bool = False,
            smoke: bool = False, trace_dir: Path | None = None,
            deadline: float | None = None) -> dict:
    """Run one workload's repetitions for *seconds*; aggregate and check them."""
    if deadline is None:
        deadline = time.monotonic() + RUN_SLACK_S + seconds
    run_rep = _rep_function(smoke, deadline)
    trace_out = None
    if trace and trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_out = trace_dir / f"trace-{workload}-seed{seed}.jsonl"
    untraced: list[dict] = []
    traced: list[dict] = []
    took = {False: [], True: []}
    min_untraced = 1 if trace else (SMOKE_MIN_REPS if smoke else MIN_REPS)
    start = time.monotonic()
    while True:
        kind = trace and len(traced) < len(untraced)  # trace: alternate U, T, U, ...
        enough = len(untraced) >= min_untraced and (not trace or traced)
        if enough and time.monotonic() - start + max(took[kind]) > seconds:
            break
        t0 = time.monotonic()
        rep = run_rep(workload, seed, kind, trace_out if kind and not traced else None)
        took[kind].append(time.monotonic() - t0)
        (traced if kind else untraced).append(rep)

    reps = untraced + traced
    checks = sorted({c for rep in reps for c in rep["checks"]})
    fingerprints = sorted({rep["fingerprint"] for rep in reps})
    if len(fingerprints) > 1:
        checks.append(f"repetitions disagree: fingerprints {fingerprints}")
    better = {m["name"]: m["better"] for m in load_spec()["end_to_end"]}
    metrics = {
        name: estimate(name, [rep["metrics"][name] for rep in untraced], better.get(name))
        for name in untraced[0]["metrics"]
    }
    result = {
        "workload": workload, "seed": seed, "smoke": smoke,
        "fingerprint": fingerprints[0],
        "reps": [rep["metrics"] for rep in untraced],
        "samples": {k: statistics.median([rep["samples"][k] for rep in untraced])
                    for k in untraced[0]["samples"]},
        "metrics": metrics,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "checks": checks,
    }
    if trace:
        layers = {name: statistics.median([rep["layers"][name] for rep in traced])
                  for name in traced[0]["layers"]}
        untraced_wall = statistics.median(rep["metrics"]["wall_s"] for rep in untraced)
        layers["trace.overhead_pct"] = 100 * (layers["trace.wall_s"] / untraced_wall - 1)
        for rep in traced:
            gap = _self_time_gap(rep["layers"])
            if gap > 0.05:
                checks.append(f"layer self times miss {gap:.1%} of the traced wall")
        result["traced_reps"] = [rep["layers"] for rep in traced]
        result["per_layer"] = layers
    return result


def self_time_metrics(layers: dict) -> list[str]:
    """The per-layer metrics that partition a traced repetition's wall."""
    return [k for k in layers
            if k.endswith("_s") and not k.endswith("_incl_s") and k != "trace.wall_s"]


def _self_time_gap(layers: dict) -> float:
    """|layer self times + setup.other_s - traced wall| as a share of the wall."""
    total = sum(layers[k] for k in self_time_metrics(layers))
    return abs(total - layers["trace.wall_s"]) / layers["trace.wall_s"]


def _check_names(computed: dict, declared: list[dict], what: str) -> None:
    names = {m["name"] for m in declared}
    if set(computed) != names:
        raise BenchError(
            f"{what} metrics differ from BENCHMARK.json: "
            f"missing {sorted(names - set(computed))}, undeclared {sorted(set(computed) - names)}")


def report(result: dict, spec: dict, trace: bool) -> dict[str, dict]:
    """Print one workload's metrics; return them as ``{name: {value, unit}}``."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["per_layer"] if trace else result["metrics"]
    _check_names(values, declared, "per-layer" if trace else "end-to-end")
    n = len(result["traced_reps"] if trace else result["reps"])
    kind = "traced" if trace else "untraced"
    print(f"workload {result['workload']}  seed {result['seed']}  {n} {kind} reps"
          f"  fingerprint {result['fingerprint']}")
    out = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = values[name]
        how = "best" if not trace and name not in MEDIAN_METRICS else "median"
        samples = f"{how} of {n} reps"
        calls = result["samples"].get(name.rsplit("_", 1)[0]) if not trace else None
        if calls is not None:
            samples += f", {calls:g} calls each"
        print(f"  {name:34s} {value:14.6g} {unit:8s} ({samples})")
        out[name] = {"value": value, "unit": unit}
    for check in result["checks"]:
        print(f"  CHECK FAILED: {check}")
    record = {"bench": "benchmark", "workload": result["workload"], "seed": result["seed"],
              "trace": int(trace), "reps": n, "fingerprint": result["fingerprint"],
              **{name: m["value"] for name, m in out.items()}}
    print("PERF_RECORD " + json.dumps(record))
    return out


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run the repo's benchmark.")
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=42,
                        help="input seed (default 42; 7 is kept back for checking claims)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time per workload; part of the benchmark's command "
                             "line, always BENCHMARK.json's run_seconds (the default)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="alternate traced repetitions and print per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="a few percent of each workload, in-process (for the smoke test)")
    parser.add_argument("--out", type=Path, help="also write every repetition to this JSON file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else names
    deadline = time.monotonic() + RUN_SLACK_S + len(selected) * args.seconds
    try:
        golden = preflight(args.smoke, deadline)
        results = [
            measure(w, args.seed, args.seconds, trace=bool(args.trace), smoke=args.smoke,
                    trace_dir=BENCH / "out", deadline=deadline)
            for w in selected
        ]
        printed = {r["workload"]: report(r, spec, bool(args.trace)) for r in results}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not golden["ok"]:
        print(f"CHECK FAILED: preflight lossy 10k city gave {golden['frames']} frames / "
              f"{golden['matches']} matches, expected {golden['expected']}")
    correct = golden["ok"] and not any(r["checks"] for r in results)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "correct": correct, "preflight": golden,
            "deterministic": list(DETERMINISTIC),
            "workloads": {r["workload"]: r for r in results},
        }, indent=1))
    if args.workload:
        metrics = printed[args.workload]
    else:
        metrics = {f"{w}.{name}": m for w, ms in printed.items() for name, m in ms.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
