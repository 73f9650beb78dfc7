"""Flood-plane throughput on the 10k-node lossy city spec (PR 5 + PR 6).

Measures end-to-end datagram throughput (frames per wall-clock second) of
the city-scale flood the experiment runner drives: the committed
``examples/specs/lossy_city.json`` base population (10k nodes, 8 episodes,
random-waypoint snapshot, retries armed, 2 ms jitter) at the sweep's
``loss_rate = 0.1`` point.  Two arms, each with fate pinning plus an armed
throughput floor against the same PR-4 anchor:

**v1 arm** (``test_flood_plane_city_throughput``)
    The scratch-MT fate plane.  The run must reproduce the exact frame
    count and match set the PR-4 engine produced for this (seed, spec) --
    the PR-5 fast path and everything since are pure mechanism changes --
    and beat PR-4 by ``FLOOD_SPEEDUP_FLOOR`` (default 2.0).

**v2 arm** (``test_flood_plane_city_throughput_v2``)
    The counter-mode fate plane (PR 6 tentpole): same spec with
    ``channel_version = 2``.  Fates are equally valid but deliberately
    different, so the arm pins its *own* frame/match goldens, and the
    floor is ``FLOOD_V2_SPEEDUP_FLOOR`` (default 3.0): dropping the
    per-transmission reseed must clear 3x over PR-4 where v1 plateaus
    around 2.0-2.6x.

Both floors relax via their env vars on slow runners (like
``PARALLEL_SPEEDUP_FLOOR``).  Running the file as a script executes both
arms and, with ``FLOOD_100K=1``, a 100k-node v2 point
(``examples/specs/lossy_city_100k_v2.json``) whose record lands in
``BENCH_crypto.json`` -- too heavy for the tier-1 pytest pass, cheap
enough for an explicit bench run.

Run with:  PYTHONPATH=src python benchmarks/bench_flood_plane.py
"""

from __future__ import annotations

import gc
import json
import os
from pathlib import Path

from repro.analysis.experiments import ScenarioSpec, load_plan, run_scenario

SPECS_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"
SPEC_PATH = SPECS_DIR / "lossy_city.json"
SPEC_100K_V2_PATH = SPECS_DIR / "lossy_city_100k_v2.json"
LOSS_RATE = 0.1
ROUNDS = int(os.environ.get("FLOOD_BENCH_ROUNDS", "3"))
SPEEDUP_FLOOR = float(os.environ.get("FLOOD_SPEEDUP_FLOOR", "2.0"))
V2_SPEEDUP_FLOOR = float(os.environ.get("FLOOD_V2_SPEEDUP_FLOOR", "3.0"))

# PR-4 engine on this exact spec, this machine, same harness (gc disabled,
# best of 3): 30586 frames in 1.13 s.  The constant is the comparison
# anchor for the trajectory; re-baseline it when the reference machine
# changes (tools/bench_record.py stamps every record with the commit).
PR4_BASELINE_FPS = 27_000

# Deterministic outcome of (seed=42, loss=0.1) on this spec: any drift
# here means a channel fate or flood-plane semantic changed, which the
# fast path must never do.
EXPECTED_FRAMES = 30_586
EXPECTED_MATCHES = 116

# Same (seed, spec) under the v2 counter-mode plane: different (equally
# valid) fates, pinned the day the plane shipped.  Drift means the
# keystream derivation or draw discipline changed, which would break the
# v2 reproducibility contract exactly like MT drift would break v1's.
EXPECTED_FRAMES_V2 = 29_461
EXPECTED_MATCHES_V2 = 104


def _city_spec(loss_rate: float = LOSS_RATE) -> ScenarioSpec:
    plan = load_plan(SPEC_PATH)
    for spec in plan.specs:
        if spec.loss_rate == loss_rate:
            return spec
    raise AssertionError(f"lossy_city.json sweep has no loss_rate={loss_rate} point")


def _city_spec_v2(loss_rate: float = LOSS_RATE) -> ScenarioSpec:
    base = _city_spec(loss_rate)
    return ScenarioSpec.from_dict({**base.as_dict(), "channel_version": 2})


def _measure(spec: ScenarioSpec, rounds: int = ROUNDS):
    """Best-of-*rounds* run of *spec* with gc parked: (best_fps, record)."""
    best_fps = 0.0
    record_run = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            rec = run_scenario(spec)
            fps = rec["frames_sent"] / rec["wall_seconds"]
            if fps > best_fps:
                best_fps, record_run = fps, rec
    finally:
        if gc_was_enabled:
            gc.enable()
    return best_fps, record_run


def _emit(
    name: str,
    spec: ScenarioSpec,
    best_fps: float,
    record_run,
    floor: float,
    rounds: int = ROUNDS,
):
    speedup = best_fps / PR4_BASELINE_FPS
    record = {
        "bench": name,
        "spec": "lossy_city.json" if spec.nodes == 10_000 else "lossy_city_100k_v2.json",
        "nodes": spec.nodes,
        "episodes": spec.episodes,
        "loss_rate": spec.loss_rate,
        "jitter_ms": spec.jitter_ms,
        "channel_version": spec.channel_version,
        "rounds": rounds,
        "frames_sent": record_run["frames_sent"],
        "matches": record_run["matches"],
        "wall_seconds": record_run["wall_seconds"],
        "frames_per_wall_sec": round(best_fps),
        "pr4_baseline_frames_per_wall_sec": PR4_BASELINE_FPS,
        "speedup_vs_pr4": round(speedup, 2),
        "floor": floor,
    }
    print()
    print("PERF_RECORD " + json.dumps(record))
    return speedup


def test_flood_plane_city_throughput():
    """10k-node lossy city flood, v1 plane: pinned fates, >= 2x floor."""
    spec = _city_spec()
    assert spec.nodes == 10_000
    assert spec.channel_version == 1

    best_fps, record_run = _measure(spec)

    # Fate pinning: the fast path must not move a single frame.
    assert record_run["frames_sent"] == EXPECTED_FRAMES, (
        f"frame count drifted: {record_run['frames_sent']} != {EXPECTED_FRAMES} "
        "(a channel fate or flood semantic changed)"
    )
    assert record_run["matches"] == EXPECTED_MATCHES, (
        f"match set drifted: {record_run['matches']} != {EXPECTED_MATCHES}"
    )
    assert record_run["match_rate"] > 0

    speedup = _emit("flood_plane_city", spec, best_fps, record_run, SPEEDUP_FLOOR)
    assert speedup >= SPEEDUP_FLOOR, (
        f"flood-plane speedup {speedup:.2f}x < {SPEEDUP_FLOOR}x floor "
        f"({best_fps:.0f} vs PR-4 {PR4_BASELINE_FPS} frames/wall-sec)"
    )


def test_flood_plane_city_throughput_v2():
    """Same city flood on the counter-mode plane: pinned fates, >= 3x floor."""
    spec = _city_spec_v2()
    assert spec.nodes == 10_000
    assert spec.channel_version == 2

    best_fps, record_run = _measure(spec)

    assert record_run["frames_sent"] == EXPECTED_FRAMES_V2, (
        f"v2 frame count drifted: {record_run['frames_sent']} != "
        f"{EXPECTED_FRAMES_V2} (the keystream derivation changed)"
    )
    assert record_run["matches"] == EXPECTED_MATCHES_V2, (
        f"v2 match set drifted: {record_run['matches']} != {EXPECTED_MATCHES_V2}"
    )
    assert record_run["match_rate"] > 0

    speedup = _emit("flood_plane_city_v2", spec, best_fps, record_run, V2_SPEEDUP_FLOOR)
    assert speedup >= V2_SPEEDUP_FLOOR, (
        f"v2 flood-plane speedup {speedup:.2f}x < {V2_SPEEDUP_FLOOR}x floor "
        f"({best_fps:.0f} vs PR-4 {PR4_BASELINE_FPS} frames/wall-sec)"
    )


def run_city_100k_v2():  # pragma: no cover -- explicit bench runs only
    """100k-node v2 point: one round, record only (no floor -- it is a
    scale datapoint, not a regression gate)."""
    plan = load_plan(SPEC_100K_V2_PATH)
    spec = plan.specs[0]
    assert spec.nodes == 100_000
    assert spec.channel_version == 2
    best_fps, record_run = _measure(spec, rounds=1)
    _emit("flood_plane_city_100k_v2", spec, best_fps, record_run, 0.0, rounds=1)


if __name__ == "__main__":  # pragma: no cover
    test_flood_plane_city_throughput()
    test_flood_plane_city_throughput_v2()
    if os.environ.get("FLOOD_100K") == "1":
        run_city_100k_v2()
