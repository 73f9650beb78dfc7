"""Reliability-mode sweep: what a match costs, mode by mode, under loss.

Runs ``examples/specs/reliability_city.json`` -- the lossy 10k-node city
(10% loss, 2-wave budget) -- once per reliability mode and prints the
match-rate-per-frame-byte table: blind re-floods (``simple``/``stage``)
buy reliability with whole-network byte multiplication, ``window``
re-sends only the missing reply segments, and ``window_fec`` recovers
lost elements from XOR parity without retransmitting at all (see
``docs/reliability.md``).

The sweep asserts the headline: at loss >= 0.1, ``window_fec`` beats
the ``retries=2`` blind re-flood on match rate per frame byte.  One
``PERF_RECORD`` line carries the verdict into ``BENCH_crypto.json``
via ``tools/bench_record.py`` (the perf-smoke CI wiring).

Equivalent CLI:

    repro experiments run examples/specs/reliability_city.json

Everything is deterministic: frame, segment and parity fates all hash
from (seed, flow, link, seq), so re-running reproduces these numbers
exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.experiments import run_plan

SPEC = Path(__file__).parent / "specs" / "reliability_city.json"

#: Matches per frame megabyte -- the honest cost metric under loss.
#: (The ``match_rate`` record field is the fraction of episodes that
#: matched at all; on this dense city every mode saturates it at 1.0,
#: while the verified-match *count* is where the modes part ways.)
def _mrpmb(record: dict) -> float:
    return record["matches"] / (record["frame_bytes"] / 1e6)


def main() -> None:
    json_path, md_path, records = run_plan(SPEC, "results", echo=print)
    by_mode = {record["reliability"]: record for record in records}

    print()
    print("reliability modes on the lossy 10k city (loss=0.1, retries=2)")
    header = (
        f"{'mode':>10} | {'matches':>7} | {'frame MB':>8} | "
        f"{'matches/MB':>10} | {'retx':>5} | {'sel-retx':>8} | {'fec-rec':>7}"
    )
    print(header)
    print("-" * len(header))
    for record in records:
        print(
            f"{record['reliability']:>10} | {record['matches']:>7} | "
            f"{record['frame_bytes'] / 1e6:>8.1f} | "
            f"{_mrpmb(record):>10.2f} | {record['retransmissions']:>5} | "
            f"{record['selective_retx']:>8} | {record['fec_recovered']:>7}"
        )

    fec, simple = _mrpmb(by_mode["window_fec"]), _mrpmb(by_mode["simple"])
    assert fec > simple, (
        f"window_fec must beat the retries=2 re-flood on matches per "
        f"frame byte at loss >= 0.1: {fec:.3f} <= {simple:.3f}"
    )

    record = {
        "bench": "reliability_sweep",
        "spec": "reliability_city.json",
        "nodes": by_mode["simple"]["nodes"],
        "episodes": by_mode["simple"]["episodes"],
        "loss_rate": by_mode["simple"]["loss_rate"],
        "retries": 2,
        "matches": {mode: r["matches"] for mode, r in by_mode.items()},
        "frame_bytes": {mode: r["frame_bytes"] for mode, r in by_mode.items()},
        "matches_per_frame_mb": {
            mode: round(_mrpmb(r), 4) for mode, r in by_mode.items()
        },
        "fec_recovered": by_mode["window_fec"]["fec_recovered"],
        "selective_retx": by_mode["window"]["selective_retx"],
        "window_fec_beats_simple": True,
    }
    print()
    print("PERF_RECORD " + json.dumps(record))
    print()
    print(f"wrote {json_path}")
    print(f"wrote {md_path}")


if __name__ == "__main__":
    main()
