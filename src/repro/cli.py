"""Command-line interface: demos, population statistics, experiments.

Installed as the ``repro`` command (``pyproject.toml``'s
``[project.scripts]``); ``python -m repro.cli`` runs the same.  Subcommands:

- ``demo``         one friending exchange, verbose.
- ``population``   generate a calibrated population and print its statistics.
- ``simulate``     run a friending episode over a simulated MANET.
- ``tables``       regenerate the measured PPL tables (I and II).
- ``experiments``  run a config-driven ScenarioSpec sweep
  (``experiments run spec.json``); see ``docs/experiments.md``.
- ``profiles``     list the named built-in scenario profiles
  (``simulate --profile NAME`` runs one); see ``docs/reliability.md``.
- ``conformance``  wire-format conformance suite against the independent
  mini endpoint (``conformance run``); see ``docs/wire_format.md``.
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.analysis.experiments import ScenarioSpec, SpecError, run_plan, run_scenario
from repro.analysis.ppl import evaluate_hbc_table, evaluate_malicious_table
from repro.analysis.reporting import render_series, render_table
from repro.core.attributes import Profile, RequestProfile
from repro.core.protocols import Initiator, Participant
from repro.dataset.stats import (
    attribute_count_distribution,
    profile_collision_cdf,
    unique_profile_fraction,
)
from repro.dataset.weibo import WeiboGenerator
from repro.network.channel_model import ChannelModel
from repro.network.engine import DEFAULT_RETRANSMIT_TIMEOUT_MS, FriendingEngine
from repro.network.profiles import BUILTIN_PROFILES, available_profiles
from repro.network.reliability import available_reliability_modes
from repro.network.simulator import AdHocNetwork
from repro.network.topology import city_topology

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy-preserving friending (Zhang & Li, ICDCS 2013) -- reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run one verbose friending exchange")
    demo.add_argument("--protocol", type=int, choices=(1, 2, 3), default=1)

    population = sub.add_parser("population", help="generate + describe a population")
    population.add_argument("--users", type=int, default=2000)
    population.add_argument("--vocabulary", type=int, default=20_000)
    population.add_argument("--seed", type=int, default=2013)

    simulate = sub.add_parser("simulate", help="friending episode(s) over a MANET")
    simulate.add_argument("--nodes", type=int, default=50)
    simulate.add_argument("--radius", type=float, default=0.25)
    simulate.add_argument("--theta", type=float, default=0.6)
    simulate.add_argument("--protocol", type=int, choices=(1, 2, 3), default=2)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument(
        "--episodes", type=int, default=1,
        help="number of overlapping episodes from distinct initiators",
    )
    simulate.add_argument(
        "--arrival-ms", type=int, default=50,
        help="stagger between consecutive episode starts (ms)",
    )
    simulate.add_argument(
        "--workers", type=int, default=1,
        help="shard episodes across N processes (default: 1 = one event queue)",
    )
    simulate.add_argument(
        "--loss", type=float, default=0.0, metavar="P",
        help="per-hop frame drop probability (default: 0 = perfect channel)",
    )
    simulate.add_argument(
        "--dup", type=float, default=0.0, metavar="P",
        help="per-hop link-layer duplication probability (default: 0)",
    )
    simulate.add_argument(
        "--reorder", type=float, default=0.0, metavar="P",
        help="per-copy reordering probability (extra hold-back delay; default: 0)",
    )
    simulate.add_argument(
        "--corrupt", type=float, default=0.0, metavar="P",
        help="per-copy bit-flip probability; CRC-rejected at the receiver (default: 0)",
    )
    simulate.add_argument(
        "--jitter-ms", type=int, default=0,
        help="uniform extra per-hop latency in [0, N] simulated ms (default: 0)",
    )
    simulate.add_argument(
        "--retries", type=int, default=0,
        help="retransmission waves for unanswered requests (default: 0)",
    )
    simulate.add_argument(
        "--retransmit-timeout-ms", type=int, default=DEFAULT_RETRANSMIT_TIMEOUT_MS,
        help="base retransmission timeout in simulated ms; the reliability "
             f"mode's backoff scales it per wave (default: "
             f"{DEFAULT_RETRANSMIT_TIMEOUT_MS})",
    )
    simulate.add_argument(
        "--reliability", choices=available_reliability_modes(), default="simple",
        help="reliability mode: simple = blind re-floods, stage = escalating "
             "backoff, window = selective segment retransmission, window_fec "
             "= XOR parity recovery with no waves (default: simple; "
             "docs/reliability.md)",
    )
    simulate.add_argument(
        "--profile", choices=available_profiles(), default=None,
        help="run a named built-in scenario profile through the experiment "
             "runner instead of the ad-hoc simulate topology; simulate flags "
             "set to non-default values override the profile's settings "
             "(see `profiles list`)",
    )
    simulate.add_argument(
        "--channel-version", type=int, choices=(1, 2), default=1,
        help="channel fate-derivation plane: 1 = scratch-MT reference "
             "(default), 2 = counter-mode keystream (same rates, different "
             "drawn fates, faster; see docs/wire_format.md)",
    )
    simulate.add_argument(
        "--churn-rate", type=float, default=0.0, metavar="R",
        help="open-world churn in events per simulated second, split evenly "
             "between arrivals and graceful departures; any non-zero value "
             "routes the run through the engine's incremental begin/step "
             "plane (default: 0 = closed world; docs/robustness.md)",
    )
    simulate.add_argument(
        "--churn-crash-rate", type=float, default=0.0, metavar="R",
        help="crash rate in events per simulated second on top of "
             "--churn-rate; crashed nodes lose volatile state (default: 0)",
    )
    simulate.add_argument(
        "--fault-plan", default=None, metavar="NAME",
        help="named fault campaign to inject (initiator crashes, blackouts, "
             "session pressure); unknown names list the registered campaigns "
             "(docs/robustness.md)",
    )
    simulate.add_argument(
        "--profile-top", type=int, default=0, metavar="N",
        help="run under cProfile and print the top-N functions by internal "
             "time after the tables (0 = off; tools/profile_engine.py offers "
             "the spec-driven variant)",
    )

    sub.add_parser("tables", help="regenerate measured PPL tables I and II")

    experiments = sub.add_parser(
        "experiments", help="config-driven scenario sweeps (docs/experiments.md)"
    )
    exp_sub = experiments.add_subparsers(dest="experiments_command", required=True)
    run_parser = exp_sub.add_parser(
        "run", help="run every scenario in a JSON spec; write JSON + markdown artifacts"
    )
    run_parser.add_argument("spec", help="path to the ScenarioSpec / sweep-plan JSON file")
    run_parser.add_argument(
        "--out-dir", default="results",
        help="directory for the JSON artifact and markdown report (default: results/)",
    )

    conformance = sub.add_parser(
        "conformance",
        help="protocol conformance suite against the independent mini endpoint",
    )
    conf_sub = conformance.add_subparsers(dest="conformance_command", required=True)
    conf_run = conf_sub.add_parser(
        "run", help="run the checks; write schema-validated JSON verdicts + markdown report"
    )
    conf_run.add_argument(
        "--suite", default=None,
        help="restrict to one suite (frames, sessions, episodes; default: all)",
    )
    conf_run.add_argument(
        "--smoke", action="store_true",
        help="run only the fast smoke subset (the tier-1 slice)",
    )
    conf_run.add_argument(
        "--out-dir", default="results",
        help="directory for the JSON verdicts and markdown report (default: results/)",
    )
    conf_sub.add_parser("list", help="list registered checks with suite + trust context")

    profiles = sub.add_parser(
        "profiles", help="named built-in scenario profiles (docs/reliability.md)"
    )
    prof_sub = profiles.add_subparsers(dest="profiles_command", required=True)
    prof_sub.add_parser("list", help="list built-in profiles and their settings")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "population":
        return _cmd_population(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "tables":
        return _cmd_tables()
    if args.command == "experiments":
        return _cmd_experiments(args)
    if args.command == "conformance":
        return _cmd_conformance(args)
    if args.command == "profiles":
        return _cmd_profiles(args)
    return 2  # pragma: no cover -- argparse enforces the choices


def _cmd_demo(args) -> int:
    request = RequestProfile(
        necessary=["interest:basketball"],
        optional=["profession:engineer", "city:nyc", "music:jazz"],
        beta=2,
    )
    initiator = Initiator(request, protocol=args.protocol)
    package = initiator.create_request(now_ms=0)
    print(f"request: protocol {args.protocol}, {package.wire_size_bytes()} bytes, "
          f"theta={request.theta:.0%}")
    matcher = Participant(Profile(
        ["interest:basketball", "profession:engineer", "city:nyc"], user_id="match"
    ))
    stranger = Participant(Profile(["hobby:stamps"], user_id="stranger"))
    for participant in (matcher, stranger):
        reply = participant.handle_request(package, now_ms=1)
        if reply is None:
            print(f"{participant.profile.user_id}: relays silently")
            continue
        record = initiator.handle_reply(reply, now_ms=2)
        verdict = f"verified (similarity {record.similarity})" if record else "rejected"
        print(f"{participant.profile.user_id}: replied -> {verdict}")
    return 0


def _cmd_population(args) -> int:
    users = WeiboGenerator(
        n_users=args.users, tag_vocabulary=args.vocabulary, seed=args.seed
    ).generate()
    mean_tags = sum(len(u.tags) for u in users) / len(users)
    print(render_table(
        "population summary",
        ["metric", "value"],
        [
            ["users", len(users)],
            ["mean tags", f"{mean_tags:.2f}"],
            ["max tags", max(len(u.tags) for u in users)],
            ["unique profiles (tags only)",
             f"{unique_profile_fraction(users, include_keywords=False):.1%}"],
            ["unique profiles (with keywords)",
             f"{unique_profile_fraction(users, include_keywords=True):.1%}"],
        ],
    ))
    histogram = attribute_count_distribution(users)
    xs = sorted(histogram)
    print()
    print(render_series("tag count distribution", "tags", xs, {"users": [histogram[x] for x in xs]}))
    cdf = profile_collision_cdf(users, include_keywords=False, max_collisions=5)
    print()
    print(render_series("collision CDF", "collisions <=", list(range(1, 6)),
                        {"fraction": [round(v, 4) for v in cdf]}))
    return 0


def _prime_exceeding(n: int) -> int:
    """Smallest prime strictly greater than max(n, 10)."""
    candidate = max(n, 10) + 1
    while any(candidate % d == 0 for d in range(2, int(candidate**0.5) + 1)):
        candidate += 1
    return candidate


# simulate flags that map onto ScenarioSpec fields, with the argparse
# defaults they carry (kept in sync with build_parser): in --profile mode
# a flag overrides the profile's setting only when it differs from its
# default, i.e. when the user actually asked for it.
_SIMULATE_SPEC_FLAGS = {
    "nodes": ("nodes", 50),
    "radius": ("radio_radius", 0.25),
    "protocol": ("protocol", 2),
    "seed": ("seed", 1),
    "episodes": ("episodes", 1),
    "workers": ("workers", 1),
    "loss": ("loss_rate", 0.0),
    "dup": ("dup_rate", 0.0),
    "reorder": ("reorder_rate", 0.0),
    "corrupt": ("corrupt_rate", 0.0),
    "jitter_ms": ("jitter_ms", 0),
    "retries": ("retries", 0),
    "retransmit_timeout_ms": ("retransmit_timeout_ms", DEFAULT_RETRANSMIT_TIMEOUT_MS),
    "reliability": ("reliability", "simple"),
    "channel_version": ("channel_version", 1),
    "churn_rate": ("churn_rate", 0.0),
    "churn_crash_rate": ("churn_crash_rate", 0.0),
    "fault_plan": ("fault_plan", None),
}


def _run_simulate_profile(args) -> int:
    """``simulate --profile NAME``: one profile run via the experiment runner."""
    overrides = {
        spec_field: getattr(args, attr)
        for attr, (spec_field, default) in _SIMULATE_SPEC_FLAGS.items()
        if getattr(args, attr) != default
    }
    try:
        spec = ScenarioSpec.from_profile(args.profile, name=args.profile, **overrides)
        record = run_scenario(spec)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_scenario_record(f"profile run: {args.profile}", record)
    return 0


def _print_scenario_record(title: str, record) -> None:
    keys = [
        "nodes", "episodes", "protocol", "mobility", "reliability",
        "retries", "retransmit_timeout_ms", "loss_rate",
        "channel_version", "matches", "match_rate", "frames_sent",
        "frames_dropped", "retransmissions", "selective_retx",
        "fec_recovered", "frame_bytes", "latency_p50_ms",
        "latency_p95_ms", "wall_seconds",
    ]
    if record["churn_rate"] or record["churn_crash_rate"] or record["fault_plan"]:
        keys += [
            "churn_rate", "churn_crash_rate", "fault_plan", "nodes_joined",
            "nodes_left", "nodes_crashed", "orphaned_replies",
            "degraded_episodes",
        ]
    print(render_table(title, ["metric", "value"], [[k, record[k]] for k in keys]))
    for warning in record["warnings"]:
        print(f"warning: {warning}")


def _run_simulate_churn(args) -> int:
    """Ad-hoc ``simulate --churn-rate/--fault-plan``: open-world run.

    Churn needs the experiment runner's engine plumbing (positions for
    joiner placement, the churn runner, degradation counters), so the
    ad-hoc flags are folded into a ScenarioSpec instead of the bare
    simulate topology.
    """
    overrides = {
        spec_field: getattr(args, attr)
        for attr, (spec_field, _) in _SIMULATE_SPEC_FLAGS.items()
    }
    overrides["episodes"] = max(1, overrides.get("episodes", 1))
    try:
        spec = ScenarioSpec(
            name="simulate",
            arrival_rate_per_s=1000 / max(1, args.arrival_ms),
            **overrides,
        )
        record = run_scenario(spec)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_scenario_record(
        f"open-world run (churn {spec.churn_rate}/s, crash "
        f"{spec.churn_crash_rate}/s, faults {spec.fault_plan or 'none'})",
        record,
    )
    return 0


def _cmd_simulate(args) -> int:
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.profile is not None:
        if args.profile_top:
            print("error: --profile-top is not supported with --profile "
                  "(use tools/profile_engine.py)", file=sys.stderr)
            return 2
        return _run_simulate_profile(args)
    if args.churn_rate or args.churn_crash_rate or args.fault_plan is not None:
        if args.profile_top:
            print("error: --profile-top is not supported with churn/fault "
                  "flags (use tools/profile_engine.py)", file=sys.stderr)
            return 2
        return _run_simulate_churn(args)
    try:
        channel = ChannelModel(
            drop_rate=args.loss, dup_rate=args.dup, reorder_rate=args.reorder,
            corrupt_rate=args.corrupt, jitter_ms=args.jitter_ms, seed=args.seed,
            version=args.channel_version,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not 0 <= args.retries <= 255:
        print("error: --retries must be in [0, 255] (one envelope byte names "
              "the retransmission wave)", file=sys.stderr)
        return 2
    if args.profile_top < 0:
        print("error: --profile-top must be >= 0", file=sys.stderr)
        return 2
    if args.profile_top:
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        code = _run_simulate(args, channel)
        profiler.disable()
        buffer = io.StringIO()
        pstats.Stats(profiler, stream=buffer).sort_stats("tottime").print_stats(
            args.profile_top
        )
        print()
        print(buffer.getvalue().rstrip())
        return code
    return _run_simulate(args, channel)


def _run_simulate(args, channel: ChannelModel) -> int:
    rng = random.Random(args.seed)
    users = WeiboGenerator(
        n_users=args.nodes, tag_vocabulary=1_000, seed=args.seed
    ).generate()
    adjacency, _ = city_topology(args.nodes, args.radius, seed=args.seed)
    nodes = list(adjacency)
    episodes = max(1, args.episodes)
    if episodes > len(nodes):
        print(f"error: --episodes {episodes} exceeds the {len(nodes)} nodes", file=sys.stderr)
        return 2

    def request_for(user):
        return RequestProfile.with_threshold(
            necessary=(), optional=[f"tag:{t}" for t in user.tags],
            theta=args.theta, normalized=True,
        )

    def initiator_for(user, episode: int = 0):
        # The remainder prime must exceed the request size m_t, which here
        # is however many tags the target user happens to have.  Each
        # episode gets its own seeded RNG: the engine's sharding identity
        # (workers=N == workers=1) requires that an episode's request
        # bytes never depend on how many episodes ran before it.
        request = request_for(user)
        return Initiator(
            request, protocol=args.protocol, p=_prime_exceeding(len(user.tags)),
            rng=random.Random(args.seed * 1000 + episode),
        )

    if episodes == 1:
        participants = {}
        for node, user in zip(nodes, users):
            participants[node] = Participant(
                Profile(user.profile().attributes, user_id=node, normalized=True), rng=rng
            )
        participants[nodes[0]] = None
        target = users[min(len(users) - 1, args.nodes // 2)]
        initiator = initiator_for(target)
        network = AdHocNetwork(adjacency, participants, rng=rng, channel=channel)
        result = network.run_friending(
            nodes[0], initiator, retries=args.retries,
            retransmit_timeout_ms=args.retransmit_timeout_ms,
            reliability=args.reliability,
        )
        metrics = result.metrics.as_dict()
        print(render_table(
            f"friending episode (n={args.nodes}, theta={args.theta}, protocol {args.protocol})",
            ["metric", "value"],
            [[k, v] for k, v in metrics.items() if v]
            + [["matches", ", ".join(result.matched_ids) or "none"]],
        ))
        return 0

    # Concurrent mode: every node is a participant; episode initiators are
    # spread across the network and each requests a different user's tags.
    participants = {
        node: Participant(
            Profile(user.profile().attributes, user_id=node, normalized=True), rng=rng
        )
        for node, user in zip(nodes, users)
    }
    network = AdHocNetwork(adjacency, participants, rng=rng, channel=channel)
    stride = max(1, len(nodes) // episodes)
    launches = []
    for i in range(episodes):
        initiator_node = nodes[(i * stride) % len(nodes)]
        target = users[(i * stride + len(users) // 2) % len(users)]
        launches.append((initiator_node, initiator_for(target, episode=i)))
    engine = FriendingEngine(
        network,
        retries=args.retries,
        retransmit_timeout_ms=args.retransmit_timeout_ms,
        reliability=args.reliability,
    )
    result = engine.run_staggered(
        launches, arrival_ms=args.arrival_ms, workers=args.workers
    )

    print(render_table(
        f"concurrent friending (n={args.nodes}, episodes={episodes}, "
        f"arrival={args.arrival_ms}ms, protocol {args.protocol}, "
        f"workers={args.workers})",
        ["metric", "value"],
        [[k, v] for k, v in result.aggregate.as_dict().items() if v],
    ))
    print()
    rows = [
        [ep.episode, ep.initiator_node, ep.started_at_ms,
         ep.completed_at_ms, ", ".join(ep.matched_ids) or "none"]
        for ep in result.episodes
    ]
    print(render_table(
        "per-episode outcomes",
        ["episode", "initiator", "start ms", "done ms", "matches"],
        rows,
    ))
    return 0


def _cmd_experiments(args) -> int:
    try:
        json_path, md_path, records = run_plan(args.spec, args.out_dir, echo=print)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print()
    print(render_table(
        f"experiment sweep ({len(records)} scenario(s))",
        ["scenario", "nodes", "proto", "matches", "ep/sim-s", "p95 ms", "bytes"],
        [
            [r["scenario"], r["nodes"], r["protocol"], r["matches"],
             r["episodes_per_sim_sec"], r["latency_p95_ms"], r["total_bytes"]]
            for r in records
        ],
    ))
    print()
    print(f"wrote {json_path}")
    print(f"wrote {md_path}")
    return 0


def _cmd_conformance(args) -> int:
    from repro.conformance.harness import available_checks, load_check, run_and_report

    if args.conformance_command == "list":
        rows = []
        for name in available_checks():
            entry = load_check(name)
            rows.append([
                entry.name, entry.suite, "+".join(entry.trust.names()),
                "yes" if entry.smoke else "", entry.doc,
            ])
        print(render_table(
            f"conformance checks ({len(rows)})",
            ["check", "suite", "trust", "smoke", "what it pins"],
            rows,
        ))
        return 0
    try:
        json_path, md_path, records = run_and_report(
            args.suite, args.out_dir, smoke_only=args.smoke, echo=print
        )
    except ValueError as exc:  # unknown suite name
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = [r for r in records if r["status"] == "fail"]
    print()
    print(render_table(
        f"conformance ({len(records)} check(s), {len(failed)} failed)",
        ["check", "suite", "trust", "status"],
        [[r["check"], r["suite"], "+".join(r["trust"]), r["status"]] for r in records],
    ))
    print()
    print(f"wrote {json_path}")
    print(f"wrote {md_path}")
    return 1 if failed else 0


def _cmd_profiles(args) -> int:
    if args.profiles_command != "list":  # pragma: no cover -- argparse enforces
        return 2
    rows = []
    for name in available_profiles():
        profile = BUILTIN_PROFILES[name]
        settings = profile.settings
        rows.append([
            profile.name,
            settings["nodes"],
            settings["episodes"],
            settings["reliability"],
            settings.get("retries", 0),
            f"{settings.get('loss_rate', 0.0):g}",
            profile.description,
        ])
    print(render_table(
        f"built-in scenario profiles ({len(rows)})",
        ["profile", "nodes", "episodes", "reliability", "retries", "loss", "scenario"],
        rows,
    ))
    print()
    print("run one with: repro simulate --profile NAME "
          "(explicit simulate flags override profile settings)")
    return 0


def _cmd_tables() -> int:
    pairs = ["A_I vs v_M", "A_I vs v_U", "A_M vs v_I", "A_U vs v_I"]
    measured = {(c.protocol, c.pair): c.level for c in evaluate_hbc_table()}
    rows = [
        [protocol] + [measured[(protocol, pair)] for pair in pairs]
        for protocol in ("Protocol 1", "Protocol 2", "Protocol 3")
    ]
    print(render_table("Table I (measured, HBC)", ["scheme"] + pairs, rows))

    pairs2 = ["A_I vs v'_P", "A_M vs v'_I", "A_U vs v'_P"]
    measured2 = {(c.protocol, c.pair): c.level for c in evaluate_malicious_table()}
    rows2 = [
        [protocol] + [measured2[(protocol, pair)] for pair in pairs2]
        for protocol in ("Protocol 1", "Protocol 2", "Protocol 3")
    ]
    print()
    print(render_table("Table II (measured, malicious)", ["scheme"] + pairs2, rows2))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
