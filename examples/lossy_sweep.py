"""City-scale loss sweep: how match rate degrades (and retries recover it).

Runs ``examples/specs/lossy_city.json`` -- a 10k-node city where every
frame crosses a lossy channel -- over loss rates {0, 5%, 10%, 20%} with a
2-wave retransmission budget, then prints the match-rate-vs-loss table.
The same table (plus full frame counters) lands in the markdown report
the runner writes to ``results/``.

Equivalent CLI:

    repro experiments run examples/specs/lossy_city.json

Everything is deterministic: frame fates hash from (seed, flow, link,
seq), so re-running reproduces these numbers exactly.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.experiments import run_plan

SPEC = Path(__file__).parent / "specs" / "lossy_city.json"


def main() -> None:
    json_path, md_path, records = run_plan(SPEC, "results", echo=print)

    print()
    print("match rate vs loss (10k nodes, 8 episodes, retries=2)")
    header = (
        f"{'loss':>6} | {'matches':>7} | {'match-rate':>10} | {'frames sent':>11} | "
        f"{'dropped':>8} | {'retx waves':>10} | {'p95 ms':>7}"
    )
    print(header)
    print("-" * len(header))
    for record in records:
        print(
            f"{record['loss_rate']:>6.2f} | {record['matches']:>7} | "
            f"{record['match_rate']:>10.2f} | "
            f"{record['frames_sent']:>11} | {record['frames_dropped']:>8} | "
            f"{record['retransmissions']:>10} | {record['latency_p95_ms']:>7.0f}"
        )
    print()
    print(f"wrote {json_path}")
    print(f"wrote {md_path}")


if __name__ == "__main__":
    main()
