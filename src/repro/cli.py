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
import sys
from dataclasses import fields

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
from repro.network.profiles import BUILTIN_PROFILES, available_profiles
from repro.network.reliability import available_reliability_modes

__all__ = ["main", "build_parser"]


# simulate's own defaults, used when no --profile is named; every other
# field takes ScenarioSpec's default.
_SIMULATE_DEFAULTS = {"nodes": 50, "radio_radius": 0.25, "seed": 1, "episodes": 1}
_SPEC_FIELDS = frozenset(f.name for f in fields(ScenarioSpec))

# The rows simulate prints: the settings the run used, then its measurements.
_SIMULATE_ROWS = (
    "nodes", "episodes", "arrival_ms", "protocol", "mobility", "reliability",
    "retries", "retransmit_timeout_ms", "loss_rate", "dup_rate",
    "reorder_rate", "corrupt_rate", "jitter_ms", "channel_version",
    "matches", "match_rate", "frames_sent", "frames_dropped",
    "frames_duplicated", "frames_corrupted", "frames_rejected",
    "retransmissions", "selective_retx", "fec_recovered", "duplicate_replies",
    "sessions_overflow", "frame_bytes", "bytes_broadcast", "bytes_unicast",
    "total_bytes", "nodes_reached", "candidates", "replies",
    "latency_p50_ms", "latency_p95_ms", "sim_duration_ms",
    "episodes_per_sim_sec",
)
_OPEN_WORLD_ROWS = (
    "churn_rate", "churn_crash_rate", "fault_plan", "nodes_joined",
    "nodes_left", "nodes_crashed", "orphaned_replies", "degraded_episodes",
)


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

    # The defaults each help text shows: simulate's own, else ScenarioSpec's.
    base = ScenarioSpec(name="simulate", **_SIMULATE_DEFAULTS)
    simulate = sub.add_parser(
        "simulate", help="friending episodes over a MANET (one ScenarioSpec run)",
        description="Build a ScenarioSpec from the flags and run it.  A flag "
                    "not given takes --profile's setting, or else the default "
                    "shown; a flag given always wins.",
    )
    # Every flag defaults to None ("not given") and its dest names the
    # ScenarioSpec field it sets; only --arrival-ms needs converting.
    simulate.add_argument("--nodes", type=int,
                          help=f"population size (default: {base.nodes})")
    simulate.add_argument(
        "--radius", dest="radio_radius", type=float,
        help=f"radio range as a fraction of the city side (default: {base.radio_radius})",
    )
    simulate.add_argument("--protocol", type=int, choices=(1, 2, 3),
                          help=f"paper protocol (default: {base.protocol})")
    simulate.add_argument("--seed", type=int, help=f"master seed (default: {base.seed})")
    simulate.add_argument(
        "--episodes", type=int,
        help="number of overlapping episodes from distinct initiators "
             f"(default: {base.episodes})",
    )
    simulate.add_argument(
        "--arrival-ms", type=int, metavar="MS",
        help="stagger between consecutive episode starts in simulated ms "
             f"(default: {base.arrival_ms})",
    )
    simulate.add_argument(
        "--workers", type=int,
        help="shard episodes across N processes; 1 runs one event queue "
             f"(default: {base.workers})",
    )
    simulate.add_argument(
        "--loss", dest="loss_rate", type=float, metavar="P",
        help=f"per-hop frame drop probability (default: {base.loss_rate})",
    )
    simulate.add_argument(
        "--dup", dest="dup_rate", type=float, metavar="P",
        help=f"per-hop link-layer duplication probability (default: {base.dup_rate})",
    )
    simulate.add_argument(
        "--reorder", dest="reorder_rate", type=float, metavar="P",
        help="per-copy reordering probability (extra hold-back delay; "
             f"default: {base.reorder_rate})",
    )
    simulate.add_argument(
        "--corrupt", dest="corrupt_rate", type=float, metavar="P",
        help="per-copy bit-flip probability; CRC-rejected at the receiver "
             f"(default: {base.corrupt_rate})",
    )
    simulate.add_argument(
        "--jitter-ms", type=int,
        help="uniform extra per-hop latency in [0, N] simulated ms "
             f"(default: {base.jitter_ms})",
    )
    simulate.add_argument(
        "--retries", type=int,
        help=f"retransmission waves for unanswered requests (default: {base.retries})",
    )
    simulate.add_argument(
        "--retransmit-timeout-ms", type=int,
        help="base retransmission timeout in simulated ms; the reliability "
             f"mode's backoff scales it per wave (default: {base.retransmit_timeout_ms})",
    )
    simulate.add_argument(
        "--reliability", choices=available_reliability_modes(),
        help="reliability mode: simple = blind re-floods, stage = escalating "
             "backoff, window = selective segment retransmission, window_fec "
             f"= XOR parity recovery with no waves (default: {base.reliability}; "
             "docs/reliability.md)",
    )
    simulate.add_argument(
        "--profile", choices=available_profiles(),
        help="start from a named built-in scenario profile's settings; any "
             "flag given overrides them (see `profiles list`)",
    )
    simulate.add_argument(
        "--channel-version", type=int, choices=(1, 2),
        help="channel fate-derivation plane: 1 = scratch-MT reference, "
             "2 = counter-mode keystream (same rates, different drawn fates, "
             f"faster; default: {base.channel_version}; see docs/wire_format.md)",
    )
    simulate.add_argument(
        "--churn-rate", type=float, metavar="R",
        help="open-world churn in events per simulated second, split evenly "
             "between arrivals and graceful departures; any non-zero value "
             "routes the run through the engine's incremental begin/step "
             f"plane (default: {base.churn_rate}; docs/robustness.md)",
    )
    simulate.add_argument(
        "--churn-crash-rate", type=float, metavar="R",
        help="crash rate in events per simulated second on top of "
             "--churn-rate; crashed nodes lose volatile state "
             f"(default: {base.churn_crash_rate})",
    )
    simulate.add_argument(
        "--fault-plan", metavar="NAME",
        help="named fault campaign to inject (initiator crashes, blackouts, "
             "session pressure); unknown names list the registered campaigns "
             "(docs/robustness.md)",
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


def _cmd_simulate(args) -> int:
    given = {
        name: value for name, value in vars(args).items()
        if name in _SPEC_FIELDS and value is not None
    }
    if args.arrival_ms is not None:
        if args.arrival_ms < 1:
            print(f"error: --arrival-ms must be >= 1 (simulated ms), "
                  f"got {args.arrival_ms}", file=sys.stderr)
            return 2
        given["arrival_rate_per_s"] = 1000 / args.arrival_ms
    defaults = {} if args.profile else _SIMULATE_DEFAULTS
    try:
        spec = ScenarioSpec.from_dict(
            {"name": args.profile or "simulate", **defaults, **given}
        )
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = run_scenario(spec)
    keys = _SIMULATE_ROWS + (_OPEN_WORLD_ROWS if spec.open_world else ())
    print(render_table(
        f"{spec.name} run (seed {spec.seed}, workers={spec.workers})",
        ["metric", "value"],
        [[key, record[key]] for key in keys],
    ))
    for warning in record["warnings"]:
        print(f"warning: {warning}")
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
