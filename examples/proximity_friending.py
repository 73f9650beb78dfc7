#!/usr/bin/env python3
"""Location-private vicinity search over a multi-hop ad-hoc network.

Scenario (paper Sec. III-D): users walk around a campus carrying phones
that form a WiFi-Direct mesh.  An initiator searches for climbing partners
*within ~30 m* without revealing her own coordinates: locations are snapped
to a hexagonal lattice and the overlap of vicinity regions becomes a fuzzy
profile match.

Run:  python examples/proximity_friending.py
"""

import random

from repro.core import Initiator, Participant, Profile
from repro.core.location import LatticeSpec, vicinity_request
from repro.network import AdHocNetwork, city_topology

MESH_SIZE = 40
RADIO_RANGE = 0.25  # unit square
CAMPUS_SCALE = 500.0  # metres
CELL = 10.0  # lattice cell size d, metres
SEARCH_RANGE = 30.0  # vicinity D, metres
OVERLAP_THRESHOLD = 0.45  # Θ


def main() -> None:
    rng = random.Random(7)
    spec = LatticeSpec(d=CELL)

    adjacency, positions = city_topology(MESH_SIZE, RADIO_RANGE, seed=3)
    nodes = list(adjacency)
    initiator_node = nodes[0]
    ix, iy = (positions[initiator_node][0] * CAMPUS_SCALE,
              positions[initiator_node][1] * CAMPUS_SCALE)

    # A handful of people happen to be physically close to the initiator
    # (radio mesh position and person position are independent things).
    nearby_nodes = set(rng.sample(nodes[1:], 4))

    # Every phone's profile = its vicinity lattice points (location privacy:
    # only lattice-point hashes are ever used, never raw coordinates).
    participants = {}
    metres = {}
    for node in nodes:
        if node in nearby_nodes:
            x = ix + rng.uniform(-0.6, 0.6) * SEARCH_RANGE
            y = iy + rng.uniform(-0.6, 0.6) * SEARCH_RANGE
        else:
            x, y = positions[node][0] * CAMPUS_SCALE, positions[node][1] * CAMPUS_SCALE
        metres[node] = (x, y)
        if node == initiator_node:
            participants[node] = None
            continue
        attrs = spec.vicinity_attributes(x, y, SEARCH_RANGE)
        participants[node] = Participant(
            Profile(attrs, user_id=node, normalized=True), rng=rng
        )

    request = vicinity_request(spec, ix, iy, SEARCH_RANGE, theta=OVERLAP_THRESHOLD)
    print(f"Initiator at ({ix:.0f}m, {iy:.0f}m); vicinity region = "
          f"{len(request)} lattice points, threshold Θ = {OVERLAP_THRESHOLD}")

    initiator = Initiator(request, protocol=1, p=1009, rng=rng)
    network = AdHocNetwork(adjacency, participants, rng=rng)
    result = network.run_friending(initiator_node, initiator)

    print(f"Flood reached {result.metrics.nodes_reached} phones with "
          f"{result.metrics.broadcasts} broadcasts "
          f"({result.metrics.total_bytes} bytes on air)")

    found = set(result.matched_ids)
    print("\nWho replied (and their true distances -- never transmitted):")
    for node in sorted(nodes[1:], key=lambda n: _dist(metres[n], (ix, iy))):
        distance = _dist(metres[node], (ix, iy))
        tag = "MATCH" if node in found else "     "
        if distance < 3 * SEARCH_RANGE:
            print(f"  [{tag}] {node}: {distance:5.1f} m")
    nearby = [n for n in nodes[1:] if _dist(metres[n], (ix, iy)) <= SEARCH_RANGE * 0.7]
    missed = [n for n in nearby if n not in found]
    print(f"\n{len(found)} matches; {len(missed)} clearly-nearby phones missed")


def _dist(a, b) -> float:
    return ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) ** 0.5


if __name__ == "__main__":
    main()
