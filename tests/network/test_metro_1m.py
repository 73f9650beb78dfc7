"""1M-node metro run: one event queue at the roadmap's scale.

Runs the committed ``examples/specs/metro_1m.json`` point end to end —
1M static nodes at mean degree ~8, TTL-bounded local floods, v2
counter-mode fates — and asserts it finishes inside a generous
wall-clock budget with a healthy, connected outcome and the ``metro_1m``
golden (14548 frames, 59 matches).  Locally the point takes about 35 s
and ~2.9 GiB peak RSS (building the world dominates: topology, then the
population; the floods themselves are local), so on top of the ``slow``
marker the test only runs with ``METRO_1M=1`` — the same opt-in idiom as
the 100k flood bench arm (``FLOOD_100K=1``).  It prints one ``PERF_RECORD`` line, so with
``-s`` its output pipes into ``tools/bench_record.py``:

    METRO_1M=1 PYTHONPATH=src python -m pytest -q -s -m slow tests/network/test_metro_1m.py
"""

from __future__ import annotations

import json
import os
import resource
import time
from pathlib import Path

import pytest

from repro.analysis.experiments import load_plan, run_scenario

SPEC = Path(__file__).resolve().parent.parent.parent / "examples" / "specs" / "metro_1m.json"
WALL_BUDGET_S = 1800.0
GOLDEN_FRAMES, GOLDEN_MATCHES = 14_548, 59


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("METRO_1M") != "1", reason="set METRO_1M=1 to run")
def test_metro_1m_completes_within_budget():
    (spec,) = load_plan(SPEC).specs
    assert spec.nodes == 1_000_000

    start = time.perf_counter()
    record = run_scenario(spec)
    elapsed = time.perf_counter() - start

    print()
    print("PERF_RECORD " + json.dumps({
        "bench": "metro_1m",
        "spec": "metro_1m.json",
        "nodes": spec.nodes,
        "episodes": record["episodes"],
        "loss_rate": spec.loss_rate,
        "channel_version": spec.channel_version,
        "mean_degree": record["mean_degree"],
        "largest_component_fraction": record["largest_component_fraction"],
        "frames_sent": record["frames_sent"],
        "matches": record["matches"],
        "population_seconds": record["population_seconds"],
        "topology_seconds": record["topology_seconds"],
        "network_seconds": record["network_seconds"],
        "wall_seconds": record["wall_seconds"],
        "frames_per_wall_sec": round(record["frames_sent"] / record["wall_seconds"]),
        "elapsed_seconds": round(elapsed, 2),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "cpus": os.cpu_count(),
    }))

    assert elapsed < WALL_BUDGET_S, (
        f"1M-node metro run took {elapsed:.1f}s > {WALL_BUDGET_S}s budget"
    )
    # Healthy outcome: mean degree ~8 keeps a giant component holding
    # nearly the whole metro, and the TTL-bounded floods find matches.
    assert record["largest_component_fraction"] > 0.9
    assert record["warnings"] == []
    assert record["frames_sent"] == GOLDEN_FRAMES
    assert record["matches"] == GOLDEN_MATCHES
