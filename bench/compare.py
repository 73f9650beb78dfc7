"""Compare benchmark runs metric by metric, against BENCHMARK.json's bounds.

Two sets of runs, the first the baseline.  A set is one result file
(``bench/run.py --out FILE``) or a directory of them:

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py set-a/ set-b/

Each run contributes the value it reported, the statistic run.py prints
(best or median of its repetitions), whatever the shape of its set.
Each workload x end-to-end metric is *within bound*, *better* or *worse*
by the median of those values, or *unresolved* when the spread
(interquartile range over median, either side) is wider than the bound
-- unless every run of B reads better than every run of A.  A set of
several runs takes its spread over their values; a set of one run takes
it over that run's repetitions.  Runs of the same seed in both sets must
have identical outputs (fingerprint) and identical deterministic
metrics.  Exit 1 unless every row is within bound, better or identical.

Paired runs of two checkouts, for claiming a gain:

    python3 bench/compare.py --paired PARENT_DIR CHANGE_DIR --workload city-flood --seed 7

runs ``bench/run.py`` in both checkouts ``--pairs`` times (default 10),
alternating which side goes first, and claims a gain on a metric only
when the change wins at least 9 of every 10 pairs (ties count for
neither) and the medians differ by more than the parent's interquartile
range.  Both checkouts must hold the same benchmark (``BENCHMARK.json``
and ``bench/*.py``), so both sides run for its ``run_seconds``.  Exit 0
when every ``--metric`` asked for (default: all) gains.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC_PATH = BENCH.parent / "BENCHMARK.json"

WIN_SHARE = 0.9
MIN_PAIRS = 10


def iqr(values) -> float:
    """Distance between the first and third quartile (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _beats(x: float, y: float, better: str) -> bool:
    return x < y if better == "lower" else x > y


def set_verdict(a: list[float], b: list[float], *, better: str, bound: float,
                spread: float | None = None) -> str:
    """Verdict for one metric: set B's values against baseline A's.

    *spread* defaults to the wider of the two sets' own spreads.
    """
    a_med, b_med = statistics.median(a), statistics.median(b)
    if spread is None:
        spread = max(_spread(a), _spread(b))
    if spread > bound:
        return "better" if all(_beats(y, x, better) for x in a for y in b) else "unresolved"
    change = (b_med - a_med) / abs(a_med) if a_med else 0.0
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "within bound"


def _spread(values) -> float:
    median = statistics.median(values)
    return iqr(values) / abs(median) if median else 0.0


def paired_verdict(parent: list[float], change: list[float], *, better: str) -> dict:
    """The gain rule for pairs of runs (parent[i], change[i])."""
    wins = sum(_beats(c, p, better) for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    spread = iqr(parent)
    gain = (
        len(parent) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(parent)
        and _beats(c_med, p_med, better)
        and abs(c_med - p_med) > spread
    )
    return {"wins": wins, "pairs": len(parent), "parent_median": p_med,
            "change_median": c_med, "parent_iqr": spread, "gain": gain}


def load_runs(path: Path) -> list[dict]:
    """Result files from one file, or from every ``*.json`` in a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def set_values(runs: list[dict], workload: str, name: str) -> tuple[list[float], float]:
    """One metric of one set: each run's reported value, and their spread.

    A lone run's spread is that of its repetitions, so that one file
    still says how steady the metric is; its value stays the reported one.
    """
    found = [run["workloads"][workload] for run in runs if workload in run["workloads"]]
    values = [result["metrics"][name] for result in found]
    spread_of = values if len(values) > 1 else [rep[name] for rep in found[0]["reps"]]
    return values, _spread(spread_of)


def _by_seed(runs: list[dict], workload: str) -> dict[int, dict]:
    return {run["seed"]: run["workloads"][workload]
            for run in runs if workload in run["workloads"]}


def compare_sets(a_path: Path, b_path: Path, spec: dict) -> int:
    a_runs, b_runs = load_runs(a_path), load_runs(b_path)
    if not a_runs or not b_runs:
        print("error: a set holds no result files", file=sys.stderr)
        return 2
    deterministic = set(a_runs[0]["deterministic"])
    bad = 0
    print(f"{'workload':12s} {'metric':22s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a_seeds, b_seeds = _by_seed(a_runs, workload), _by_seed(b_runs, workload)
        if not a_seeds or not b_seeds:
            continue
        common = sorted(a_seeds.keys() & b_seeds.keys())
        for metric in spec["end_to_end"]:
            name = metric["name"]
            (av, a_spread), (bv, b_spread) = (
                set_values(a_runs, workload, name), set_values(b_runs, workload, name))
            spread = max(a_spread, b_spread)
            a_med, b_med = statistics.median(av), statistics.median(bv)
            if name in deterministic:
                same = all(a_seeds[s]["metrics"][name] == b_seeds[s]["metrics"][name]
                           for s in common)
                verdict = ("identical" if same else "changed") if common else "no common seed"
            else:
                verdict = set_verdict(av, bv, better=metric["better"], bound=metric["bound"],
                                      spread=spread)
            change = (b_med - a_med) / a_med if a_med else 0.0
            print(f"{workload:12s} {name:22s} {a_med:12.6g} {b_med:12.6g} {change:+8.1%} "
                  f"{spread:7.1%} {metric['bound']:6.0%}  {verdict}")
            bad += verdict not in ("within bound", "better", "identical", "no common seed")
        differ = [s for s in common
                  if a_seeds[s]["fingerprint"] != b_seeds[s]["fingerprint"]]
        print(f"{workload:12s} outputs identical on {len(common) - len(differ)}"
              f"/{len(common)} common seeds" + (f" (differ: {differ})" if differ else ""))
        bad += len(differ)
    print(f"{bad} row(s) not within bound" if bad else "every row within bound")
    return 1 if bad else 0


def run_paired(args, spec: dict) -> int:
    out_dir = BENCH / "out" / "paired"
    out_dir.mkdir(parents=True, exist_ok=True)
    sides = {"parent": Path(args.paired[0]), "change": Path(args.paired[1])}
    for side, root in sides.items():
        if not (root / "bench" / "run.py").is_file():
            print(f"error: {root} has no bench/run.py", file=sys.stderr)
            return 2
    differ = benchmark_differences(*sides.values())
    if differ:
        print(f"error: the two checkouts hold different benchmarks: {differ}", file=sys.stderr)
        return 2
    values = {side: [] for side in sides}
    fingerprints = {side: set() for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            out = out_dir / f"{args.workload}-seed{args.seed}-pair{i}-{side}.json"
            cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
                   "--seed", str(args.seed), "--out", str(out.resolve())]
            proc = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"error: {side} run {i} failed:\n{proc.stderr[-4000:]}", file=sys.stderr)
                return 2
            result = json.loads(out.read_text())["workloads"][args.workload]
            values[side].append(result["metrics"])
            fingerprints[side].add(result["fingerprint"])
    if fingerprints["parent"] != fingerprints["change"]:
        print(f"{args.workload}: outputs differ (fingerprints {sorted(fingerprints['parent'])}"
              f" -> {sorted(fingerprints['change'])})")
    wanted = args.metric or [m["name"] for m in spec["end_to_end"]]
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    all_gain = True
    for name in wanted:
        parent = [run[name] for run in values["parent"]]
        change = [run[name] for run in values["change"]]
        v = paired_verdict(parent, change, better=directions[name])
        all_gain &= v["gain"]
        print(f"{args.workload} {name}: change won {v['wins']}/{v['pairs']} pairs; "
              f"median {v['parent_median']:.6g} -> {v['change_median']:.6g} "
              f"(parent IQR {v['parent_iqr']:.3g}; quartiles parent "
              f"{_quartiles(parent)}, change {_quartiles(change)}): "
              f"{'GAIN' if v['gain'] else 'no gain'}")
    return 0 if all_gain else 1


def benchmark_differences(parent: Path, change: Path) -> list[str]:
    """The benchmark files (``BENCHMARK.json``, ``bench/*.py``) that differ."""
    names = {"BENCHMARK.json"} | {
        f"bench/{p.name}" for root in (parent, change) for p in (root / "bench").glob("*.py")}
    return sorted(
        name for name in names
        if not ((parent / name).is_file() and (change / name).is_file()
                and (parent / name).read_bytes() == (change / name).read_bytes()))


def _quartiles(values) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4g}/{q2:.4g}/{q3:.4g}"


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="*", type=Path,
                        help="A B: result files or directories of them (run.py --out)")
    parser.add_argument("--paired", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=7,
                        help="paired mode seed (default 7, the held-back seed)")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--metric", action="append",
                        choices=[m["name"] for m in spec["end_to_end"]])
    args = parser.parse_args(argv)
    if args.paired:
        if not args.workload:
            parser.error("--paired needs --workload")
        if args.pairs < MIN_PAIRS:
            parser.error(f"--pairs must be at least {MIN_PAIRS}")
        return run_paired(args, spec)
    if len(args.sets) != 2:
        parser.error("give two sets of result files, or --paired PARENT_DIR CHANGE_DIR")
    return compare_sets(args.sets[0], args.sets[1], spec)


if __name__ == "__main__":
    sys.exit(main())
