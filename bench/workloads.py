"""The benchmark's workloads: inputs from a seed, one timed repetition, checks.

Each repetition runs in a fresh interpreter (``python3 bench/workloads.py
rep ...``), because a user's ``repro experiments run`` pays every cold
cost each time; the orchestrator (``bench/run.py``) starts one after
another and reads the JSON line each prints last.  Imports happen before
any timer starts.

Three workloads drive the friending engine through the public experiment
runner (``run_scenario``); ``crowd-match`` drives the protocol API
directly, one participant call at a time (a closed loop).  The program
receives only inputs generated from ``--seed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.experiments import ScenarioSpec, load_plan, run_scenario  # noqa: E402
from repro.core.attributes import RequestProfile  # noqa: E402
from repro.core.protocols import Initiator, Participant  # noqa: E402
from repro.dataset.weibo import WeiboGenerator  # noqa: E402

from tracer import LAYERS, PROBES, Tracer, count_outcomes  # noqa: E402

WORKLOADS = ("city-flood", "metro-build", "crowd-match", "churn-fec")

# The committed lossy 10k city at loss 0.1 on fate plane v2, and the
# frames/matches it has produced since that plane landed.
GOLDEN_SPEC = ROOT / "examples" / "specs" / "lossy_city.json"
GOLDEN_FRAMES, GOLDEN_MATCHES = 29461, 104

# Record fields that are a pure function of (seed, spec): the fingerprint.
_DETERMINISTIC_RECORD_KEYS = (
    "episodes", "matches", "match_rate", "latency_p50_ms", "latency_p95_ms",
    "sim_duration_ms", "total_bytes", "nodes_reached", "replies",
    "rejected_replies", "frames_sent", "frames_dropped", "frames_duplicated",
    "frames_corrupted", "frames_rejected", "frame_bytes", "duplicate_replies",
    "retransmissions", "selective_retx", "fec_recovered", "sessions_overflow",
    "nodes_joined", "nodes_left", "nodes_crashed", "orphaned_replies",
    "degraded_episodes", "mean_degree", "largest_component_fraction",
)


def _radius(nodes: int, degree: float) -> float:
    """Unit-disk radius giving *degree* expected neighbours among *nodes*."""
    return math.sqrt(degree / (math.pi * nodes))


def engine_spec(workload: str, seed: int, smoke: bool = False) -> ScenarioSpec:
    """The scenario one engine workload runs; ``smoke`` is a few % of it."""
    if workload == "city-flood":
        # lossy_city.json's base at loss 0.1 on fate plane v2, 64 episodes.
        nodes, episodes = (400, 4) if smoke else (10_000, 64)
        return ScenarioSpec(
            name=workload, nodes=nodes, episodes=episodes, protocol=2,
            arrival_rate_per_s=10, mobility="random_waypoint",
            radio_radius=_radius(nodes, 10_000 * math.pi * 0.02 ** 2),
            communities=16, tags_per_community=3, retries=2, jitter_ms=2,
            loss_rate=0.1, channel_version=2, seed=seed,
        )
    if workload == "metro-build":
        # metro_1m's density (mean degree 8) at a size where several
        # fresh-interpreter repetitions fit in one run.
        nodes, episodes = (2_000, 2) if smoke else (50_000, 16)
        return ScenarioSpec(
            name=workload, nodes=nodes, episodes=episodes, protocol=2,
            arrival_rate_per_s=10, mobility="static",
            radio_radius=_radius(nodes, 8.0), communities=32,
            tags_per_community=3, retries=1, loss_rate=0.05, jitter_ms=1,
            channel_version=2, seed=seed,
        )
    if workload == "churn-fec":
        # Flood cost depends on how near the initiator sits to the city's
        # edge; 128 episodes average that out across seeds.
        nodes, episodes = (300, 8) if smoke else (2_000, 128)
        return ScenarioSpec(
            name=workload, nodes=nodes, episodes=episodes, protocol=2,
            arrival_rate_per_s=4, mobility="static",
            radio_radius=_radius(nodes, 10.0), communities=16,
            tags_per_community=3, loss_rate=0.1, jitter_ms=2,
            channel_version=2, reliability="window_fec", churn_rate=4.0,
            churn_crash_rate=0.5, fault_plan="blackout", seed=seed,
        )
    raise ValueError(f"{workload!r} is not an engine workload")


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of *values* (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _latencies(tracer: Tracer, since_ns: int) -> dict[str, list[float]]:
    """Per-call µs of the participant and initiator-verify probes, for
    calls after *since_ns*."""
    return {
        key: [ns / 1e3 for ns in tracer.durations_ns(span, since_ns)]
        for key, span in (("process_us", "protocol.handle_request"),
                          ("verify_us", "protocol.handle_reply"))
    }


def _engine_rep(workload: str, seed: int, smoke: bool, tracer: Tracer) -> dict:
    spec = engine_spec(workload, seed, smoke)
    initiators: list[Initiator] = []
    tracer.hooks["protocol.create_request"] = (
        lambda args, kwargs, result: initiators.append(args[0]))
    start = time.perf_counter_ns()
    with tracer:
        record = run_scenario(spec)
    end = time.perf_counter_ns()
    # run_s is the engine's window -- first entry (run/begin) to last exit
    # (run/finish) -- which is what the record's wall_seconds times,
    # here at full precision.
    run_start, run_end = tracer.window_ns("engine")
    episodes = record["episodes"]
    matched_episodes = sum(1 for ini in initiators if ini.matches)
    checks = []
    if record["warnings"]:
        checks.append(f"fragmentation warning: {record['warnings']}")
    if not matched_episodes:
        checks.append("match_rate is 0")
    if len(initiators) != episodes:
        checks.append(f"{len(initiators)} requests created for {episodes} episodes")
    fingerprint = _digest({
        "record": {k: record[k] for k in _DETERMINISTIC_RECORD_KEYS},
        "episodes": [
            [[(m.responder_id, m.similarity, m.session_key.hex()) for m in ini.matches],
             [r.reason for r in ini.rejected]]
            for ini in initiators
        ],
    })
    return {
        "start_ns": start, "run_start_ns": run_start,
        "setup_s": (end - start) / 1e9 - (run_end - run_start) / 1e9,
        "run_s": (run_end - run_start) / 1e9,
        "wall_s": (end - start) / 1e9,
        "episodes": episodes, "matched_episodes": matched_episodes,
        "frames": record["frames_sent"],
        # No episode can fail on its own: the engine drains its queue, so
        # every episode retires with a result (none can wedge), and an
        # exception ends the whole repetition -- run.py then exits 2.
        "attempted": episodes, "failed": 0, "checks": checks,
        "fingerprint": fingerprint, "record": record,
    }


def _crowd_rep(seed: int, smoke: bool, tracer: Tracer) -> dict:
    n_users, n_requests = (200, 2) if smoke else (2_000, 16)
    pick = random.Random(seed)
    start = time.perf_counter_ns()
    with tracer:
        users = WeiboGenerator(n_users=n_users, tag_vocabulary=2_000, seed=seed).generate()
        participants = [
            Participant(u.profile(), rng=random.Random(seed * 100_003 + i))
            for i, u in enumerate(users)
        ]
        setup_end = time.perf_counter_ns()
        # Table VII: m_t = 6 (the target's first 6 tags), theta = 0.5, p = 11.
        # Fixing m_t keeps the per-request work comparable across seeds.
        eligible = [u for u in users if len(u.tags) >= 6]
        requests = [
            (t, RequestProfile.with_threshold(
                necessary=(), optional=[f"tag:{tag}" for tag in t.tags][:6],
                theta=0.5, normalized=True))
            for t in pick.sample(eligible, n_requests + 1)
        ]
        _crowd_request(*requests[0], participants, pick)  # untimed warm-up
        run_start = time.perf_counter_ns()
        outcomes = [_crowd_request(t, r, participants, pick) for t, r in requests[1:]]
        end = time.perf_counter_ns()
    by_id = {u.user_id: p for u, p in zip(users, participants)}
    checks = []
    failed = sum(o["failed"] for o in outcomes)
    matched = 0
    for o in outcomes:
        initiator = o["initiator"]
        if o["target"] in {m.responder_id for m in initiator.matches}:
            matched += 1
        else:
            checks.append(f"target {o['target']} missing from its own request's matches")
        rid = initiator.secret.request_id
        for m in initiator.matches:
            if m.session_key not in by_id[m.responder_id].channel_keys(rid):
                checks.append(f"session key of {m.responder_id} not among its channel keys")
    if failed:
        first = next(o["error"] for o in outcomes if o["error"])
        checks.append(f"{failed} protocol calls raised, first: {first}")
    setup_s = (setup_end - start) / 1e9
    run_s = (end - run_start) / 1e9
    return {
        # The warm-up request is neither set-up nor run: wall_s leaves it out.
        "start_ns": start, "run_start_ns": run_start, "skip_ns": (setup_end, run_start),
        "setup_s": setup_s, "run_s": run_s, "wall_s": setup_s + run_s,
        "episodes": n_requests, "matched_episodes": matched,
        "frames": sum(o["calls"] + o["replies"] for o in outcomes),
        "attempted": sum(o["calls"] + o["replies"] + 1 for o in outcomes),
        "failed": failed, "checks": checks,
        "fingerprint": _digest([
            [o["target"], o["candidates"], o["replies"],
             sorted((m.responder_id, m.similarity) for m in o["initiator"].matches),
             [r.reason for r in o["initiator"].rejected]]
            for o in outcomes
        ]),
        "record": {},
    }


def _crowd_request(target, request, participants, pick) -> dict:
    """One closed-loop friending request over the whole crowd."""
    initiator = Initiator(request, protocol=2, p=11, rng=random.Random(pick.getrandbits(64)))
    package = initiator.create_request(now_ms=0)
    candidates = replies = failed = 0
    error = None
    for participant in participants:
        try:
            reply = participant.handle_request(package, now_ms=1)
            if participant.last_outcome is not None and participant.last_outcome.candidate:
                candidates += 1
            if reply is not None:
                replies += 1
                initiator.handle_reply(reply, now_ms=2)
        except Exception as exc:  # a failed operation: counted, and fails the gate
            failed += 1
            error = error or repr(exc)
    return {"target": target.user_id, "initiator": initiator, "calls": len(participants),
            "candidates": candidates, "replies": replies, "failed": failed, "error": error}


def run_rep(workload: str, seed: int, *, smoke: bool = False, traced: bool = False,
            trace_out: str | None = None) -> dict:
    """One repetition: end-to-end metrics, checks, fingerprint, layers if traced.

    Untraced repetitions carry only the probes (three protocol calls and
    the engine entry points); a traced one wraps every layer boundary.
    """
    tracer = Tracer(LAYERS if traced else PROBES)
    if traced:
        tracer.hooks.update(count_outcomes(tracer.counts))
    if workload == "crowd-match":
        rep = _crowd_rep(seed, smoke, tracer)
    else:
        rep = _engine_rep(workload, seed, smoke, tracer)
    latencies = _latencies(tracer, rep["run_start_ns"])
    episodes = rep["episodes"]
    rep["metrics"] = {
        "setup_s": rep["setup_s"],
        "run_s": rep["run_s"],
        "wall_s": rep["wall_s"],
        "frames_per_s": rep["frames"] / rep["run_s"],
        "episodes_per_s": episodes / rep["wall_s"],
        "process_us_p50": percentile(latencies["process_us"], 50),
        "process_us_p99": percentile(latencies["process_us"], 99),
        "verify_us_p50": percentile(latencies["verify_us"], 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "match_rate": rep["matched_episodes"] / episodes,
        "frames_per_episode": rep["frames"] / episodes,
    }
    rep["samples"] = {key: len(values) for key, values in latencies.items()}
    if traced:
        summary = tracer.summary(rep["run_start_ns"], skip_ns=rep.get("skip_ns"))
        rep["layers"] = layer_metrics(summary, rep)
        if trace_out:
            tracer.write_jsonl(trace_out, rep["start_ns"])
    for key in ("record", "start_ns", "run_start_ns", "skip_ns"):
        rep.pop(key, None)
    return rep


def layer_metrics(summary: dict, rep: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (all but the overhead)."""
    self_s = summary["self_s"]
    incl_s = summary["incl_s"]
    calls = summary["calls"]
    counts = summary["counts"]
    record = rep["record"]
    out: dict[str, float] = {}
    for boundary in LAYERS:
        if not boundary.count_only:
            # The engine entry points' self time is the engine's own work.
            name = "engine.self" if boundary.span == "engine" else boundary.span
            out[f"{name}_s"] = self_s.get(boundary.span, 0.0)
    for span in ("protocol.handle_request", "matching.process_request"):
        out[f"{span}_incl_s"] = incl_s.get(span, 0.0)
    for span in ("protocol.handle_request", "protocol.handle_reply",
                 "matching.solve_candidate", "wire.decode_frame", "wire.reframe",
                 "wire.encode_segment_frame", "channel.transmit_many",
                 "channel.transmit", "sessions.open"):
        out[f"{span}_calls"] = calls.get(span, 0)
    setup_other = rep["setup_s"] - summary["setup_covered_s"]
    requests = calls.get("protocol.handle_request", 0)
    candidates = counts["protocol.candidates"]
    replies_opened = calls.get("protocol.handle_reply", 0)
    frames_sent = record.get("frames_sent", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out.update({
        "setup.other_s": setup_other,
        "population.participants": calls.get("population.participant_init", 0),
        "events.scheduled": counts.get("events.scheduled", 0),
        "engine.retransmissions": record.get("retransmissions", 0),
        "churn.nodes_joined": record.get("nodes_joined", 0),
        "churn.nodes_crashed": record.get("nodes_crashed", 0),
        "churn.degraded_episodes": record.get("degraded_episodes", 0),
        "protocol.candidates": candidates,
        "protocol.replies": counts["protocol.replies"],
        "matching.candidate_ratio": ratio(candidates, requests),
        "matching.reply_ratio": ratio(counts["protocol.replies"], candidates),
        "protocol.match_ratio": ratio(counts["protocol.matches"], replies_opened),
        "wire.decode_ratio": ratio(calls.get("wire.decode_frame", 0), frames_sent),
        "channel.links": counts["channel.links"],
        "channel.frames_dropped": record.get("frames_dropped", 0),
        "channel.drop_ratio": ratio(record.get("frames_dropped", 0), frames_sent),
        "sessions.overflow": record.get("sessions_overflow", 0),
        "reliability.fec_recovered": record.get("fec_recovered", 0),
        "trace.spans": summary["spans"],
        "trace.wall_s": rep["wall_s"],
        "trace.unattributed_pct": 100 * (rep["wall_s"] - summary["covered_s"]) / rep["wall_s"],
    })
    return out


def preflight() -> dict:
    """Run the committed lossy 10k city and compare it with its golden."""
    plan = load_plan(GOLDEN_SPEC)
    spec = next(s for s in plan.specs if s.loss_rate == 0.1)
    record = run_scenario(dataclasses.replace(spec, channel_version=2))
    ok = (record["frames_sent"], record["matches"]) == (GOLDEN_FRAMES, GOLDEN_MATCHES)
    return {
        "ok": ok,
        "frames": record["frames_sent"], "matches": record["matches"],
        "expected": [GOLDEN_FRAMES, GOLDEN_MATCHES],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    rep = sub.add_parser("rep", help="run one repetition and print it as JSON")
    rep.add_argument("--workload", required=True, choices=WORKLOADS)
    rep.add_argument("--seed", type=int, required=True)
    rep.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rep.add_argument("--trace-out")
    sub.add_parser("preflight", help="check the lossy 10k city golden")
    args = parser.parse_args(argv)
    if args.cmd == "preflight":
        result = preflight()
    else:
        result = run_rep(args.workload, args.seed,
                         traced=bool(args.trace), trace_out=args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
