"""Long-running soak harness: hours of sim-time under open-world churn.

Drives one engine through the incremental ``begin``/``step`` plane for a
configurable stretch of simulated time, continuously injecting fresh
friending episodes while the churn plane joins, sleeps and crashes nodes
and an optional fault campaign fires.  The point is not throughput -- the
benchmarks own that -- but *survival*: the run must hold three invariants
for however long it goes:

1. **No wedges.** Every injected episode eventually retires; the live
   episode count stays bounded by the injection rate times the validity
   window, and ``wedged_episodes()`` stays empty at every checkpoint.
2. **Bounded state.** The engine's decode/reject caches respect their
   caps, per-node rate-limiter histories are pruned, and retired episode
   state is freed -- checked with ``tracemalloc`` growth between the
   warm-up checkpoint and the end of the run.
3. **Bounded RSS.** ``ru_maxrss`` stays under a hard ceiling.

Usage::

    PYTHONPATH=src python tools/soak.py --sim-hours 1 --nodes 400
    SOAK=1 PYTHONPATH=src python tools/soak.py --sim-hours 1 \\
        | python tools/bench_record.py BENCH_crypto.json

Exits non-zero (with an ``AssertionError``) the moment an invariant
breaks; prints one ``PERF_RECORD {...}`` line on success so CI can append
the soak record to the perf trajectory.  Fully deterministic for a given
argument vector: the churn schedule is a counter-mode function of
``(seed, spec)`` and episode injection happens at fixed boundaries.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import tracemalloc

from repro.analysis.experiments import (
    ScenarioSpec,
    churn_runner_for,
    prepare_scenario,
)
from repro.core.attributes import RequestProfile
from repro.core.protocols import Initiator
from repro.network.engine import EpisodeSpec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sim-hours", type=float, default=1.0,
                        help="simulated hours to soak for (default: 1.0)")
    parser.add_argument("--nodes", type=int, default=400,
                        help="initial population size (default: 400)")
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--churn-rate", type=float, default=4.0,
                        help="join+leave events per simulated second (default: 4)")
    parser.add_argument("--churn-crash-rate", type=float, default=0.5,
                        help="crashes per simulated second (default: 0.5)")
    parser.add_argument("--fault-plan", default="blackout",
                        help="fault campaign name or 'none' (default: blackout)")
    parser.add_argument("--inject-every-ms", type=int, default=5_000,
                        help="simulated ms between episode injections (default: 5000)")
    parser.add_argument("--loss", type=float, default=0.1,
                        help="channel loss rate (default: 0.1)")
    parser.add_argument("--channel-version", type=int, choices=(1, 2), default=2)
    parser.add_argument("--reliability", default="window_fec")
    parser.add_argument("--rss-limit-mb", type=int, default=1024,
                        help="hard ru_maxrss ceiling in MiB (default: 1024)")
    parser.add_argument("--leak-limit-mb", type=int, default=64,
                        help="max tracemalloc growth after warm-up in MiB (default: 64)")
    parser.add_argument("--step-ms", type=int, default=1_000,
                        help="checkpoint interval in simulated ms (default: 1000)")
    return parser


def _max_rss_mb() -> float:
    """Peak RSS of this process in MiB (Linux reports ru_maxrss in KiB)."""
    import resource

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover -- bytes on macOS
        rss //= 1024
    return rss / 1024


def run_soak(args) -> dict:
    horizon_ms = int(args.sim_hours * 3_600_000)
    spec = ScenarioSpec(
        name="soak",
        nodes=args.nodes,
        episodes=1,  # placeholder; soak injects its own episodes
        seed=args.seed,
        radio_radius=max(0.05, min(0.25, (8.0 / args.nodes) ** 0.5)),
        loss_rate=args.loss,
        channel_version=args.channel_version,
        reliability=args.reliability,
        until_ms=horizon_ms,
        churn_rate=args.churn_rate,
        churn_crash_rate=args.churn_crash_rate,
        fault_plan=None if args.fault_plan in (None, "none") else args.fault_plan,
    )
    prepared = prepare_scenario(spec)
    engine = prepared.engine
    engine.begin(start_ms=0)
    runner = churn_runner_for(spec, prepared, horizon_ms)

    decode_cap = engine._frame_cache.cap
    reject_cap = engine._reject_cache.cap
    # One flood is bounded by the validity window, so at any instant no
    # more than ceil(validity / inject_every) injected episodes can be
    # live; +8 leaves room for degraded stragglers draining their timers.
    live_bound = 60_000 // max(1, args.inject_every_ms) + 8

    state = {
        "injected": 0,
        "checkpoints": 0,
        "warmup_bytes": None,
        "peak_live": 0,
        "limiter_pruned": 0,
        "sessions_swept": 0,
    }
    warmup_ms = max(args.step_ms, horizon_ms // 10)

    def on_step(runner, now_ms: int) -> None:
        if now_ms % args.inject_every_ms == 0 and runner.live:
            ordered = sorted(runner.live)
            node = ordered[(state["injected"] * 7) % len(ordered)]
            community = state["injected"] % spec.communities
            tags = [f"c{community}:tag{j}" for j in range(spec.tags_per_community)]
            request = RequestProfile(
                necessary=[tags[0]], optional=tags[1:], beta=1, normalized=True
            )
            engine.inject(EpisodeSpec(
                initiator_node=node,
                initiator=Initiator(
                    request, protocol=spec.protocol,
                    rng=random.Random(spec.seed * 1000 + state["injected"]),
                ),
                start_ms=now_ms,
            ))
            state["injected"] += 1

        state["checkpoints"] += 1
        live = engine.live_episode_count()
        state["peak_live"] = max(state["peak_live"], live)
        assert live <= live_bound, (
            f"live episodes unbounded at t={now_ms}: {live} > {live_bound}"
        )
        wedged = engine.wedged_episodes()
        assert not wedged, f"wedged episodes at t={now_ms}: {wedged}"
        assert len(engine._frame_cache) <= decode_cap, "frame cache over cap"
        assert len(engine._package_cache) <= decode_cap, "package cache over cap"
        assert len(engine._reject_cache) <= reject_cap, "reject cache over cap"

        if now_ms % 60_000 == 0:
            state["limiter_pruned"] += engine.network.prune_rate_limiters(now_ms)
            state["sessions_swept"] += engine.network.evict_expired_sessions(now_ms)
        if state["warmup_bytes"] is None and now_ms >= warmup_ms:
            state["warmup_bytes"] = tracemalloc.get_traced_memory()[0]
        rss = _max_rss_mb()
        assert rss <= args.rss_limit_mb, (
            f"RSS {rss:.0f} MiB exceeded the {args.rss_limit_mb} MiB ceiling"
        )

    tracemalloc.start()
    wall_start = time.perf_counter()
    runner.drive(0, horizon_ms, step_ms=args.step_ms, on_step=on_step)
    result = engine.finish()
    wall_s = time.perf_counter() - wall_start

    final_bytes = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert engine.live_episode_count() == 0, "episodes still live after finish()"
    assert state["injected"] > 0, "soak injected no episodes"
    grown_mb = (final_bytes - (state["warmup_bytes"] or final_bytes)) / 2**20
    assert grown_mb <= args.leak_limit_mb, (
        f"traced memory grew {grown_mb:.1f} MiB after warm-up "
        f"(limit {args.leak_limit_mb} MiB): leak"
    )

    total = result.aggregate.total
    return {
        "bench": "soak",
        "sim_hours": args.sim_hours,
        "nodes": args.nodes,
        "seed": args.seed,
        "churn_rate": args.churn_rate,
        "churn_crash_rate": args.churn_crash_rate,
        "fault_plan": spec.fault_plan,
        "reliability": spec.reliability,
        "channel_version": spec.channel_version,
        "episodes_injected": state["injected"],
        "episodes_retired": len(result.episodes),
        "peak_live_episodes": state["peak_live"],
        "checkpoints": state["checkpoints"],
        "churn_events_applied": runner.events_applied,
        "nodes_joined": total.nodes_joined,
        "nodes_left": total.nodes_left,
        "nodes_crashed": total.nodes_crashed,
        "orphaned_replies": total.orphaned_replies,
        "degraded_episodes": total.degraded_episodes,
        "matches": result.aggregate.matches,
        "frames_sent": total.frames_sent,
        "limiter_peers_pruned": state["limiter_pruned"],
        "sessions_swept": state["sessions_swept"],
        "max_rss_mb": round(_max_rss_mb(), 1),
        "traced_growth_mb": round(grown_mb, 2),
        "wall_seconds": round(wall_s, 2),
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    record = run_soak(args)
    print(
        f"soak ok: {record['sim_hours']} sim-h, "
        f"{record['episodes_injected']} episodes injected and retired, "
        f"{record['churn_events_applied']} churn/fault events, "
        f"0 wedged, RSS {record['max_rss_mb']} MiB, "
        f"{record['wall_seconds']}s wall",
        file=sys.stderr,
    )
    print("PERF_RECORD " + json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
