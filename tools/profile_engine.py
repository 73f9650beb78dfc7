"""cProfile the friending engine on a ScenarioSpec and print a top-N report.

The profiling harness behind the before/after tables in
``docs/performance.md``: builds the population and topology *outside* the
profiled region and profiles ``run_prepared``, the call that
``run_scenario`` times, through the experiment runner's own
``prepare_and_run`` (so under the same garbage-collector scope as its
``wall_seconds`` accounting), and prints the top-N functions by internal
and cumulative time.

Usage::

    PYTHONPATH=src python tools/profile_engine.py                      # default spec
    PYTHONPATH=src python tools/profile_engine.py --spec examples/specs/lossy_city.json \\
        --loss 0.1 --top 25 --sort tottime
    PYTHONPATH=src python tools/profile_engine.py --spec examples/specs/lossy_city.json \\
        --loss 0.1 --channel-version 2   # the docs' channel-plane-v2 'after' profile
    PYTHONPATH=src python tools/profile_engine.py --nodes 2000 --episodes 4
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys


def profile_spec(spec, *, top: int, sort: str, out=sys.stdout) -> pstats.Stats:
    """Profile one engine run of *spec*; print the report; return the stats.

    The world is built and run by
    :func:`~repro.analysis.experiments.prepare_and_run`, as in
    ``run_scenario``, and the profiled call is
    :func:`~repro.analysis.experiments.run_prepared`, the one
    ``run_scenario`` times, so the profile describes the workload a record
    of this spec measures, collector work included.  The world's warnings
    (a fragmented city, say) follow the header line, as ``repro
    simulate`` prints them.
    """
    from repro.analysis.experiments import prepare_and_run, run_prepared

    profiler = cProfile.Profile()

    def profiled(spec, prepared):
        profiler.enable()
        try:
            return run_prepared(spec, prepared)
        finally:
            profiler.disable()

    prepared, result, _ = prepare_and_run(spec, profiled)

    agg = result.aggregate
    print(
        f"# {spec.name}: {spec.nodes} nodes, {agg.episodes} episodes, "
        f"loss={spec.loss_rate}, {agg.total.frames_sent} frames, "
        f"{agg.matches} matches",
        file=out,
    )
    for warning in prepared.warnings:
        print(f"warning: {warning}", file=out)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(top)
    print(buffer.getvalue(), file=out)
    return stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="profile one FriendingEngine run and print the top-N report"
    )
    parser.add_argument(
        "--spec", help="ScenarioSpec JSON (single spec or base+sweep plan)"
    )
    parser.add_argument(
        "--loss", type=float, default=None,
        help="pick/override the sweep point with this loss_rate",
    )
    parser.add_argument("--nodes", type=int, default=None, help="override population")
    parser.add_argument("--episodes", type=int, default=None)
    parser.add_argument(
        "--channel-version", type=int, choices=(1, 2), default=None,
        help="override the spec's channel fate plane (1 = scratch-MT, "
             "2 = counter-mode); the docs' before/after profiles are "
             "--loss 0.1 with each version in turn",
    )
    parser.add_argument("--top", type=int, default=25, help="rows to print (default 25)")
    parser.add_argument(
        "--sort", choices=("tottime", "cumulative", "calls"), default="tottime"
    )
    args = parser.parse_args(argv)

    from repro.analysis.experiments import ScenarioSpec, SpecError, load_plan

    try:
        if args.spec:
            plan = load_plan(args.spec)
            spec = plan.specs[0]
            if args.loss is not None:
                matching = [s for s in plan.specs if s.loss_rate == args.loss]
                spec = matching[0] if matching else spec
        else:
            spec = ScenarioSpec(name="profile", nodes=1000, episodes=4,
                                mobility="random_waypoint", radio_radius=0.05)
        overrides = {}
        if args.loss is not None and spec.loss_rate != args.loss:
            overrides["loss_rate"] = args.loss
        if args.nodes is not None:
            overrides["nodes"] = args.nodes
        if args.episodes is not None:
            overrides["episodes"] = args.episodes
        if args.channel_version is not None:
            overrides["channel_version"] = args.channel_version
        if overrides:
            spec = ScenarioSpec.from_dict({**spec.as_dict(), **overrides})
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    profile_spec(spec, top=args.top, sort=args.sort)
    return 0


if __name__ == "__main__":
    sys.exit(main())
