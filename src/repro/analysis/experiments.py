"""Config-driven experiment runner: ScenarioSpec sweeps over the engine.

Table VII-style comparisons used to mean hand-running individual
``bench_*`` scripts.  This module replaces that with a declarative
pipeline:

1. A :class:`ScenarioSpec` describes one city-scale friending scenario —
   population size, protocol (1/2/3), attacker mix, mobility model and
   episode arrival rate — and validates itself on construction.
2. :func:`load_plan` reads a JSON file holding either a single spec or a
   ``base`` + ``sweep`` parameter grid, and expands the grid into the
   cartesian product of concrete specs.
3. :func:`run_scenario` builds the population over a
   :func:`~repro.network.topology.SpatialGrid`-backed topology
   (:func:`prepare_scenario`), runs the
   :class:`~repro.network.engine.FriendingEngine` (:func:`run_prepared`),
   and emits one JSON record per scenario in the same shape as
   ``benchmarks/bench_engine_throughput.py``'s ``PERF_RECORD``.
4. :func:`run_plan` sweeps every spec and writes two artifacts: a JSON
   file of records and a rendered markdown report.

Determinism: everything a record reports except the ``*_seconds``
timings, the rates derived from them and the byte counts contributed by
forged attacker replies is a pure function of the spec (the spec's
``seed`` drives population, placement, mobility and protocol RNGs).
Attacker *counts* are deterministic too; only the random bytes inside
forged elements vary.  All simulated times are milliseconds (``*_ms``);
throughput is episodes per simulated second.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from repro.core.attributes import Profile, RequestProfile
from repro.core.protocols import Initiator, Participant, Reply
from repro.network.channel_model import CHANNEL_VERSIONS, ChannelModel
from repro.network.churn import (
    SCENARIO_CHURN_SLEEP_MS,
    ChurnModel,
    ChurnRunner,
    ChurnSpec,
)
from repro.network.engine import (
    DEFAULT_RETRANSMIT_TIMEOUT_MS,
    EngineResult,
    EpisodeSpec,
    FriendingEngine,
)
from repro.network.faults import compile_campaign, load_fault_plan
from repro.network.mobility import RandomWaypoint, StaticPlacement
from repro.network.profiles import load_profile
from repro.network.reliability import load_reliability_mode
from repro.network.simulator import AdHocNetwork

__all__ = [
    "SpecError",
    "ScenarioSpec",
    "ExperimentPlan",
    "PreparedScenario",
    "churn_horizon",
    "churn_runner_for",
    "load_plan",
    "prepare_and_run",
    "prepare_scenario",
    "run_prepared",
    "run_scenario",
    "run_plan",
    "render_markdown_report",
    "write_artifacts",
    "MOBILITY_MODELS",
    "ATTACKER_KINDS",
]

MOBILITY_MODELS = ("static", "random_waypoint")
ATTACKER_KINDS = ("cheating", "flooder")

_SWEEPABLE = (
    "nodes", "protocol", "episodes", "arrival_rate_per_s", "mobility",
    "radio_radius", "refresh_interval_ms", "communities",
    "tags_per_community", "seed", "until_ms", "workers",
    "loss_rate", "dup_rate", "reorder_rate", "corrupt_rate", "jitter_ms",
    "retries", "channel_version", "reliability", "retransmit_timeout_ms",
    "profile", "churn_rate", "churn_crash_rate", "fault_plan",
)


class SpecError(ValueError):
    """A scenario spec failed validation; the message names the field."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative friending scenario for the experiment runner.

    Fields and units
    ----------------
    name:
        Label used in records, reports and artifact names.
    nodes:
        Population size (radio nodes; every node is a phone).
    protocol:
        Paper protocol id — 1, 2 or 3 (Sec. III-E reply disciplines).
    episodes:
        Concurrent friending episodes launched into the one network.
    arrival_rate_per_s:
        Episode arrival rate in episodes per simulated second; the engine
        staggers launches ``1000 / rate`` simulated ms apart.
    mobility:
        ``"static"`` (fixed uniform placement) or ``"random_waypoint"``.
    radio_radius:
        Radio range as a fraction of the city's side length; expected
        degree is ``nodes · π · radius²``.
    refresh_interval_ms:
        Optional mid-run topology refresh period in simulated ms; requires
        ``mobility="random_waypoint"``.
    attackers:
        Attacker mix, mapping kind → population fraction.  ``"cheating"``
        nodes forge match claims with random keys (rejected by the ACK
        check); ``"flooder"`` nodes send oversized acknowledge sets
        (rejected unopened by the cardinality threshold).  Fractions must
        sum to at most 1.
    communities / tags_per_community:
        Honest profiles are split into interest communities (node *i*
        belongs to ``i mod communities``).  Each episode's initiator
        requests *its own node's* community tags; initiators are spread
        through the population at stride ``nodes // episodes``, so
        episode *e* requests community
        ``(e * stride mod nodes) mod communities``.
    seed:
        Master seed; see the module docstring for what it pins down.
    until_ms:
        Optional hard stop on the simulated clock.
    workers:
        Worker processes for the engine.  ``1`` runs every episode in
        one event queue; ``> 1`` shards episodes across processes via
        :meth:`~repro.network.engine.FriendingEngine.run_parallel`
        (incompatible with ``refresh_interval_ms``, churn and
        ``fault_plan``, which need one live engine).
    loss_rate / dup_rate / reorder_rate / corrupt_rate / jitter_ms:
        The per-hop :class:`~repro.network.channel_model.ChannelModel`
        every frame passes through: probability that a transmitted frame
        copy is lost / duplicated by the link layer / held back long
        enough to be overtaken / has one bit flipped in flight, plus
        uniform extra latency in ``[0, jitter_ms]`` simulated ms.  All
        default to the perfect channel.  Channel decisions hash from
        ``(seed, flow, link, seq)``, so a lossy run is reproducible from
        the spec alone and sweeps stay deterministic.
    channel_version:
        Fate-derivation plane of the channel model: ``1`` (the scratch-MT
        reference, default) or ``2`` (the counter-mode keystream; same
        rates, different -- equally valid -- drawn fates, and a much
        cheaper hot path).  Part of the determinism contract, so it is
        validated, sweepable and emitted in every record; a recorded run
        only reproduces under the version that produced it
        (``docs/wire_format.md`` has the policy).
    retries:
        Initiator-side retransmission budget: how many fresh flood waves
        the origin may launch for a request still unanswered after the
        engine's retransmission timeout.  ``0`` (default) is single-shot.
    retransmit_timeout_ms:
        Base retransmission timeout in simulated ms (how long the origin
        waits before spending one unit of the ``retries`` budget); the
        reliability mode's backoff scales it per wave.
    reliability:
        Named reliability mode deciding how the retry budget is spent:
        ``"simple"`` (blind re-floods, the byte-frozen default),
        ``"stage"`` (escalating backoff), ``"window"`` (segmented replies
        with selective segment retransmission) or ``"window_fec"``
        (segmented replies with XOR parity recovery, no waves).  See
        ``docs/reliability.md``.
    profile:
        Optional name of a built-in scenario profile
        (:mod:`repro.network.profiles`).  The profile's settings become
        the spec's defaults; any field given explicitly wins.  Recorded
        for provenance.
    churn_rate / churn_crash_rate:
        Open-world churn, in events per simulated second.  ``churn_rate``
        splits evenly into arrivals and graceful departures;
        ``churn_crash_rate`` adds crashes (volatile state lost).  Any
        non-zero value routes the run through the engine's incremental
        ``begin``/``step`` plane driven by a
        :class:`~repro.network.churn.ChurnRunner`; departed nodes wake
        after :data:`~repro.network.churn.SCENARIO_CHURN_SLEEP_MS`.  The
        schedule is a counter-mode function of ``(seed, spec)`` alone, so
        churn-enabled runs stay reproducible.
        Zero (the default) keeps the closed-world ``run_staggered`` path
        byte for byte.  Incompatible with ``refresh_interval_ms`` and
        ``workers > 1``.
    fault_plan:
        Optional name of a registered fault campaign
        (:mod:`repro.network.faults`): timed initiator crashes,
        blackouts or session-table pressure applied at fractions of the
        run horizon.  Implies the open-world path like churn does.
    """

    name: str = "scenario"
    nodes: int = 100
    protocol: int = 2
    episodes: int = 4
    arrival_rate_per_s: float = 20.0
    mobility: str = "static"
    radio_radius: float = 0.1
    refresh_interval_ms: int | None = None
    attackers: Mapping[str, float] = field(default_factory=dict)
    communities: int = 8
    tags_per_community: int = 3
    seed: int = 0
    until_ms: int | None = None
    workers: int = 1
    loss_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    jitter_ms: int = 0
    retries: int = 0
    channel_version: int = 1
    retransmit_timeout_ms: int = DEFAULT_RETRANSMIT_TIMEOUT_MS
    reliability: str = "simple"
    profile: str | None = None
    churn_rate: float = 0.0
    churn_crash_rate: float = 0.0
    fault_plan: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SpecError("name must be a non-empty string")
        if not isinstance(self.nodes, int) or self.nodes < 2:
            raise SpecError(f"nodes must be an integer >= 2, got {self.nodes!r}")
        if self.protocol not in (1, 2, 3):
            raise SpecError(
                f"protocol must be 1, 2 or 3 (Sec. III-E), got {self.protocol!r}"
            )
        if not isinstance(self.episodes, int) or self.episodes < 1:
            raise SpecError(f"episodes must be an integer >= 1, got {self.episodes!r}")
        if self.episodes > self.nodes:
            raise SpecError(
                f"episodes ({self.episodes}) cannot exceed nodes ({self.nodes})"
            )
        if not isinstance(self.arrival_rate_per_s, (int, float)) or not (
            self.arrival_rate_per_s > 0
        ):
            raise SpecError(
                "arrival_rate_per_s must be a positive number "
                f"(episodes per simulated second), got {self.arrival_rate_per_s!r}"
            )
        if self.mobility not in MOBILITY_MODELS:
            raise SpecError(
                f"unknown mobility model {self.mobility!r}; "
                f"choose one of {', '.join(MOBILITY_MODELS)}"
            )
        if not isinstance(self.radio_radius, (int, float)) or not 0 < self.radio_radius <= 1:
            raise SpecError(
                f"radio_radius must be in (0, 1] (fraction of the city side), "
                f"got {self.radio_radius!r}"
            )
        if self.refresh_interval_ms is not None:
            if self.mobility != "random_waypoint":
                raise SpecError("refresh_interval_ms requires mobility=random_waypoint")
            if not isinstance(self.refresh_interval_ms, int) or self.refresh_interval_ms <= 0:
                raise SpecError(
                    f"refresh_interval_ms must be a positive integer (simulated ms), "
                    f"got {self.refresh_interval_ms!r}"
                )
        if not isinstance(self.attackers, Mapping):
            raise SpecError("attackers must map attacker kind -> fraction")
        for kind, fraction in self.attackers.items():
            if kind not in ATTACKER_KINDS:
                raise SpecError(
                    f"unknown attacker kind {kind!r}; "
                    f"choose from {', '.join(ATTACKER_KINDS)}"
                )
            if not isinstance(fraction, (int, float)) or not 0 <= fraction <= 1:
                raise SpecError(
                    f"attacker fraction for {kind!r} must be in [0, 1], got {fraction!r}"
                )
        if sum(self.attackers.values()) > 1:
            raise SpecError("attacker fractions must sum to at most 1")
        if not isinstance(self.communities, int) or self.communities < 1:
            raise SpecError(f"communities must be an integer >= 1, got {self.communities!r}")
        if not isinstance(self.tags_per_community, int) or self.tags_per_community < 2:
            raise SpecError(
                f"tags_per_community must be an integer >= 2, got {self.tags_per_community!r}"
            )
        if self.until_ms is not None and (
            not isinstance(self.until_ms, int) or self.until_ms <= 0
        ):
            raise SpecError(f"until_ms must be a positive integer, got {self.until_ms!r}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise SpecError(f"workers must be an integer >= 1, got {self.workers!r}")
        for rate_field in ("loss_rate", "dup_rate", "reorder_rate", "corrupt_rate"):
            value = getattr(self, rate_field)
            if not isinstance(value, (int, float)) or not 0 <= value <= 1:
                raise SpecError(
                    f"{rate_field} must be a probability in [0, 1], got {value!r}"
                )
        if not isinstance(self.jitter_ms, int) or self.jitter_ms < 0:
            raise SpecError(
                f"jitter_ms must be a non-negative integer (simulated ms), "
                f"got {self.jitter_ms!r}"
            )
        if not isinstance(self.retries, int) or not 0 <= self.retries <= 255:
            raise SpecError(
                f"retries must be an integer in [0, 255] (one envelope byte "
                f"names the wave), got {self.retries!r}"
            )
        if self.channel_version not in CHANNEL_VERSIONS:
            raise SpecError(
                f"channel_version must be one of {CHANNEL_VERSIONS} "
                f"(1 = scratch-MT, 2 = counter-mode), got {self.channel_version!r}"
            )
        if (
            not isinstance(self.retransmit_timeout_ms, int)
            or self.retransmit_timeout_ms <= 0
        ):
            raise SpecError(
                f"retransmit_timeout_ms must be a positive integer (simulated ms), "
                f"got {self.retransmit_timeout_ms!r}"
            )
        if not isinstance(self.reliability, str):
            raise SpecError(
                f"reliability must be a mode name string, got {self.reliability!r}"
            )
        try:
            load_reliability_mode(self.reliability)
        except ValueError as exc:
            raise SpecError(str(exc)) from None
        if self.profile is not None:
            try:
                load_profile(self.profile)
            except ValueError as exc:
                raise SpecError(str(exc)) from None
        if self.workers > 1 and self.refresh_interval_ms is not None:
            raise SpecError(
                "workers > 1 shards episodes across processes and cannot apply "
                "mid-run topology refreshes; drop refresh_interval_ms or use workers=1"
            )
        for churn_field in ("churn_rate", "churn_crash_rate"):
            value = getattr(self, churn_field)
            if not isinstance(value, (int, float)) or value < 0:
                raise SpecError(
                    f"{churn_field} must be a non-negative number "
                    f"(events per simulated second), got {value!r}"
                )
        try:
            self.churn_spec()  # re-validate through ChurnSpec's own bounds
        except ValueError as exc:
            raise SpecError(str(exc)) from None
        if self.fault_plan is not None:
            try:
                load_fault_plan(self.fault_plan)
            except ValueError as exc:
                raise SpecError(str(exc)) from None
        if self.open_world:
            if self.refresh_interval_ms is not None:
                raise SpecError(
                    "churn/fault runs drive the open-world engine plane, which "
                    "is exclusive with mid-run topology refreshes; drop "
                    "refresh_interval_ms or the churn/fault fields"
                )
            if self.workers > 1:
                raise SpecError(
                    "churn/fault runs need one live engine to join/crash nodes "
                    "in; workers > 1 shards episodes across processes -- use "
                    "workers=1"
                )

    @property
    def open_world(self) -> bool:
        """True when the run must go through the begin/step churn plane."""
        return bool(self.churn_rate or self.churn_crash_rate or self.fault_plan)

    def churn_spec(self) -> ChurnSpec:
        """The :class:`~repro.network.churn.ChurnSpec` this scenario implies."""
        return ChurnSpec(
            join_rate_per_s=self.churn_rate / 2,
            leave_rate_per_s=self.churn_rate / 2,
            crash_rate_per_s=self.churn_crash_rate,
            sleep_ms=SCENARIO_CHURN_SLEEP_MS,
        )

    @property
    def arrival_ms(self) -> int:
        """Stagger between episode launches, in simulated milliseconds."""
        return max(1, round(1000 / self.arrival_rate_per_s))

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ScenarioSpec":
        """Build and validate a spec from parsed JSON; unknown keys fail.

        A ``profile`` key pulls in that built-in profile's settings as
        defaults -- every key given explicitly in *raw* overrides the
        profile's value.
        """
        if not isinstance(raw, Mapping):
            raise SpecError(f"a scenario spec must be a JSON object, got {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise SpecError(
                f"unknown spec field(s) {sorted(unknown)}; known fields: {sorted(known)}"
            )
        merged = dict(raw)
        profile_name = merged.get("profile")
        if profile_name is not None:
            try:
                profile = load_profile(profile_name)
            except ValueError as exc:
                raise SpecError(str(exc)) from None
            merged = {**profile.settings, **merged}
        return cls(**merged)

    @classmethod
    def from_profile(cls, profile_name: str, **overrides: Any) -> "ScenarioSpec":
        """Build a spec from a named built-in profile plus explicit overrides."""
        return cls.from_dict({"profile": profile_name, **overrides})

    def as_dict(self) -> dict[str, Any]:
        """JSON-serialisable view of the spec (for provenance in artifacts)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["attackers"] = dict(self.attackers)
        return out


@dataclass(frozen=True)
class ExperimentPlan:
    """A named list of concrete scenario specs ready to run."""

    name: str
    specs: tuple[ScenarioSpec, ...]


def _expand_sweep(name: str, base: Mapping[str, Any], sweep: Mapping[str, Any]) -> ExperimentPlan:
    if not sweep:
        return ExperimentPlan(name=name, specs=(ScenarioSpec.from_dict({**base, "name": name}),))
    for key, values in sweep.items():
        if key not in _SWEEPABLE:
            raise SpecError(
                f"cannot sweep {key!r}; sweepable fields: {sorted(_SWEEPABLE)}"
            )
        if not isinstance(values, list) or not values:
            raise SpecError(f"sweep values for {key!r} must be a non-empty JSON list")
    keys = sorted(sweep)
    specs = []
    for combo in itertools.product(*(sweep[k] for k in keys)):
        assignment = dict(zip(keys, combo))
        label = ",".join(f"{k}={assignment[k]}" for k in keys)
        specs.append(ScenarioSpec.from_dict({**base, **assignment, "name": f"{name}/{label}"}))
    return ExperimentPlan(name=name, specs=tuple(specs))


def load_plan(source: str | Path | Mapping[str, Any]) -> ExperimentPlan:
    """Load an experiment plan from a JSON file path or a parsed mapping.

    Two layouts are accepted (see ``docs/experiments.md``):

    - a single :class:`ScenarioSpec` object, or
    - ``{"name": ..., "base": {spec fields}, "sweep": {field: [values]}}``,
      which expands into the cartesian product of the sweep lists.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            raw = json.loads(path.read_text())
        except FileNotFoundError:
            raise SpecError(f"spec file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec file {path} is not valid JSON: {exc}") from None
    else:
        raw = source
    if not isinstance(raw, Mapping):
        raise SpecError("the spec file must hold a JSON object")
    if "base" in raw or "sweep" in raw:
        extra = set(raw) - {"name", "base", "sweep"}
        if extra:
            raise SpecError(f"unknown top-level key(s) in sweep plan: {sorted(extra)}")
        name = raw.get("name", "experiment")
        base = raw.get("base", {})
        if not isinstance(base, Mapping):
            raise SpecError("base must be a JSON object of spec fields")
        return _expand_sweep(name, base, raw.get("sweep", {}))
    spec = ScenarioSpec.from_dict(raw)
    return ExperimentPlan(name=spec.name, specs=(spec,))


class _CheatingNode:
    """Engine-facing adapter: forge a match claim for every request seen.

    Reply elements are sealed under random keys, so the initiator's ACK
    verification rejects them (Sec. IV-A3) — the attack shows up as reply
    traffic and rejected replies, never as matches.
    """

    last_outcome = None

    def __init__(self, user_id: str, *, n_elements: int = 1):
        from repro.attacks.cheating import CheatingParticipant

        self._cheater = CheatingParticipant(user_id=user_id)
        self._n_elements = n_elements

    def handle_request(self, package, now_ms: int = 0) -> Reply | None:
        forged = self._cheater.forge_random_reply(package, n_elements=self._n_elements)
        return Reply(
            request_id=forged.request_id,
            responder_id=forged.responder_id,
            elements=forged.elements,
            sent_at_ms=now_ms,
        )


class _FloodingNode(_CheatingNode):
    """Dictionary-style flooder: oversized acknowledge sets.

    The element count deliberately exceeds the initiator's cardinality
    threshold, so replies are rejected *unopened* (Protocol 2/3 step 3)
    but still cost the network their transmission bytes.
    """

    def __init__(self, user_id: str, *, n_elements: int = 64):
        super().__init__(user_id, n_elements=n_elements)


def _largest_component_fraction(adjacency: Mapping[str, list[str]]) -> float:
    """Fraction of nodes in the largest connected component."""
    from repro.network.topology import _components

    if not adjacency:
        return 1.0
    return max(len(c) for c in _components(dict(adjacency))) / len(adjacency)


def _build_population(spec: ScenarioSpec, rng: random.Random):
    """Participants, attacker assignment and episode launches for *spec*."""
    node_ids = [f"n{i}" for i in range(spec.nodes)]

    def community_attrs(i: int) -> list[str]:
        community = i % spec.communities
        tags = [f"c{community}:tag{j}" for j in range(spec.tags_per_community)]
        return tags + [f"noise:n{i}"]

    # Episode initiators come first so attacker sampling can't claim them.
    stride = max(1, spec.nodes // spec.episodes)
    initiator_indices = [(e * stride) % spec.nodes for e in range(spec.episodes)]
    initiator_nodes = {node_ids[i] for i in initiator_indices}

    attacker_rng = random.Random(spec.seed + 0x5EED)
    pool = [n for n in node_ids if n not in initiator_nodes]
    assignment: dict[str, str] = {}
    for kind in ATTACKER_KINDS:
        fraction = spec.attackers.get(kind, 0)
        count = min(len(pool), round(fraction * spec.nodes))
        chosen = attacker_rng.sample(pool, count)
        for node in chosen:
            assignment[node] = kind
        pool = [n for n in pool if n not in assignment]

    participants: dict[str, Any] = {}
    for i, node in enumerate(node_ids):
        kind = assignment.get(node)
        if kind == "cheating":
            participants[node] = _CheatingNode(node)
        elif kind == "flooder":
            participants[node] = _FloodingNode(node)
        else:
            participants[node] = Participant(
                Profile(community_attrs(i), user_id=node, normalized=True), rng=rng
            )

    launches: list[tuple[str, Initiator]] = []
    for e, idx in enumerate(initiator_indices):
        community = idx % spec.communities
        tags = [f"c{community}:tag{j}" for j in range(spec.tags_per_community)]
        request = RequestProfile(
            necessary=[tags[0]], optional=tags[1:], beta=1, normalized=True
        )
        launches.append((
            node_ids[idx],
            Initiator(request, protocol=spec.protocol, rng=random.Random(spec.seed * 1000 + e)),
        ))
    attacker_counts = {
        kind: sum(1 for k in assignment.values() if k == kind) for kind in ATTACKER_KINDS
    }
    return node_ids, participants, launches, attacker_counts


@dataclass
class PreparedScenario:
    """Everything :func:`run_scenario` builds before the engine runs.

    Public so tools and tests (the soak harness, the engine profiler) can
    build the identical population/topology/engine and drive it through
    :func:`run_prepared` or the open-world ``begin``/``step`` plane.
    """

    mobility: Any
    engine: FriendingEngine
    launches: list[tuple[str, Initiator]]
    attacker_counts: dict[str, int]
    mean_degree: float
    component_fraction: float
    warnings: list[str]
    population_seconds: float
    topology_seconds: float
    network_seconds: float


def prepare_scenario(spec: ScenarioSpec) -> PreparedScenario:
    """Build the population, topology, channel and engine for *spec*.

    Times three phases of the build: the population (participants and
    initiators), the topology snapshot, and the channel, network and
    engine construction.
    """
    population_start = time.perf_counter()
    rng = random.Random(spec.seed)
    node_ids, participants, launches, attacker_counts = _build_population(spec, rng)
    population_seconds = time.perf_counter() - population_start

    if spec.mobility == "random_waypoint":
        mobility = RandomWaypoint(node_ids, seed=spec.seed)
    else:
        mobility = StaticPlacement(node_ids, seed=spec.seed)

    topo_start = time.perf_counter()
    adjacency = mobility.snapshot_topology(spec.radio_radius)
    topology_seconds = time.perf_counter() - topo_start

    # A mobility snapshot is deliberately *not* stitched into one component
    # (mid-run refreshes would undo any artificial links), so a sparse spec
    # can legitimately describe a fragmented city.  Record the connectivity
    # so such runs can never masquerade as healthy measurements.
    mean_degree = sum(len(v) for v in adjacency.values()) / max(1, len(adjacency))
    component_fraction = _largest_component_fraction(adjacency)
    warnings = []
    if component_fraction < 0.9:
        warnings.append(
            f"network is fragmented: largest component holds only "
            f"{component_fraction:.0%} of nodes (mean degree {mean_degree:.1f}); "
            f"floods cannot reach most of the population -- consider a larger "
            f"radio_radius (expected degree = nodes * pi * radius^2)"
        )

    network_start = time.perf_counter()
    channel = ChannelModel(
        drop_rate=spec.loss_rate,
        dup_rate=spec.dup_rate,
        reorder_rate=spec.reorder_rate,
        corrupt_rate=spec.corrupt_rate,
        jitter_ms=spec.jitter_ms,
        seed=spec.seed,
        version=spec.channel_version,
    )
    network = AdHocNetwork(adjacency, participants, channel=channel)
    engine_kwargs: dict[str, Any] = dict(
        retries=spec.retries,
        retransmit_timeout_ms=spec.retransmit_timeout_ms,
        reliability=spec.reliability,
    )
    if spec.refresh_interval_ms is not None:
        engine_kwargs.update(
            mobility=mobility,
            radio_radius=spec.radio_radius,
            refresh_interval_ms=spec.refresh_interval_ms,
        )
    engine = FriendingEngine(network, **engine_kwargs)
    network_seconds = time.perf_counter() - network_start
    return PreparedScenario(
        mobility=mobility,
        engine=engine,
        launches=launches,
        attacker_counts=attacker_counts,
        mean_degree=mean_degree,
        component_fraction=component_fraction,
        warnings=warnings,
        population_seconds=population_seconds,
        topology_seconds=topology_seconds,
        network_seconds=network_seconds,
    )


def _joiner_participant_factory(spec: ScenarioSpec):
    """Participants for churn arrivals: same community scheme, own seeds."""

    def factory(node_id: str, joiner_index: int) -> Participant:
        community = joiner_index % spec.communities
        tags = [f"c{community}:tag{j}" for j in range(spec.tags_per_community)]
        return Participant(
            Profile(tags + [f"noise:{node_id}"], user_id=node_id, normalized=True),
            rng=random.Random(spec.seed * 7919 + joiner_index),
        )

    return factory


def churn_horizon(spec: ScenarioSpec, engine: FriendingEngine) -> int:
    """The churn/fault window of a run: ``until_ms`` or the episodes' close.

    Called after ``begin()``: with no explicit ``until_ms`` the horizon is
    the natural close of the admitted episodes (their validity expiry).
    """
    return spec.until_ms if spec.until_ms is not None else engine.open_horizon_ms()


def churn_runner_for(
    spec: ScenarioSpec, prepared: PreparedScenario, horizon_ms: int
) -> ChurnRunner:
    """The :class:`~repro.network.churn.ChurnRunner` a spec's run uses.

    Shared by :func:`run_scenario`, the soak harness and the golden tests
    so every surface applies the identical churn/fault schedule.
    """
    faults = []
    if spec.fault_plan is not None:
        faults = compile_campaign(load_fault_plan(spec.fault_plan), 0, horizon_ms)
    return ChurnRunner(
        prepared.engine,
        ChurnModel(spec.churn_spec(), spec.seed),
        positions=prepared.mobility.positions(),
        radio_radius=spec.radio_radius,
        participant_factory=_joiner_participant_factory(spec),
        faults=faults,
    )


def run_prepared(spec: ScenarioSpec, prepared: PreparedScenario) -> EngineResult:
    """Run *prepared*'s engine as *spec* asks: the call :func:`run_scenario` times.

    Open-world specs (churn or a fault plan) go through ``begin``/``step``
    under the churn runner and then drain to completion -- degraded
    episodes settle, they never wedge the queue.  The rest go through
    ``run_staggered``, sharded across ``spec.workers`` processes.
    """
    engine = prepared.engine
    if not spec.open_world:
        return engine.run_staggered(
            prepared.launches,
            arrival_ms=spec.arrival_ms,
            until_ms=spec.until_ms,
            workers=spec.workers,
        )
    engine.begin([
        EpisodeSpec(initiator_node=node, initiator=initiator,
                    start_ms=i * spec.arrival_ms)
        for i, (node, initiator) in enumerate(prepared.launches)
    ])
    horizon = churn_horizon(spec, engine)
    churn_runner_for(spec, prepared, horizon).drive(0, horizon)
    return engine.finish()


def prepare_and_run(
    spec: ScenarioSpec,
    run: Callable[[ScenarioSpec, PreparedScenario], EngineResult] | None = None,
) -> tuple[PreparedScenario, EngineResult, float]:
    """Build *spec*'s world, run it, and time the run: ``run_scenario``'s core.

    *run* defaults to :func:`run_prepared`; the engine profiler passes a
    profiled wrapper of it.  The world is built with the cyclic collector
    paused, then frozen (``gc.freeze``) before the run, so the run's
    collections walk only the objects the run allocates -- a world of
    50k nodes is otherwise re-walked by every full collection.  Pausing
    alone would hand the deferred traversals to the run.  The world is
    unfrozen and the collector's enabled state restored on the way out,
    also when the run raises.  Returns the world, the result and the
    run's wall seconds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        prepared = prepare_scenario(spec)
        gc.freeze()
        if enabled:
            gc.enable()
        start = time.perf_counter()
        result = (run or run_prepared)(spec, prepared)
        wall_s = time.perf_counter() - start
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()
    return prepared, result, wall_s


def run_scenario(spec: ScenarioSpec) -> dict[str, Any]:
    """Run one scenario end to end and return its JSON record.

    The record carries the same measurement keys as
    ``benchmarks/bench_engine_throughput.py`` (``nodes``, ``episodes``,
    ``wall_seconds``, ``episodes_per_wall_sec``, ``episodes_per_sim_sec``,
    ``sim_duration_ms``, ``matches``, ``latency_p50_ms``,
    ``latency_p95_ms``, ``total_bytes``) plus scenario provenance,
    including the ``workers`` the run measured, and the build's
    ``population_seconds``, ``topology_seconds`` and ``network_seconds``.
    """
    prepared, result, wall_s = prepare_and_run(spec)

    agg = result.aggregate
    rejected = sum(len(ep.initiator.rejected) for ep in result.episodes)
    matched_episodes = sum(1 for ep in result.episodes if ep.matches)
    return {
        "bench": "experiment",
        "scenario": spec.name,
        "spec": spec.as_dict(),
        "nodes": spec.nodes,
        "episodes": agg.episodes,
        "protocol": spec.protocol,
        "mobility": spec.mobility,
        "workers": spec.workers,
        "loss_rate": spec.loss_rate,
        "dup_rate": spec.dup_rate,
        "reorder_rate": spec.reorder_rate,
        "corrupt_rate": spec.corrupt_rate,
        "jitter_ms": spec.jitter_ms,
        "retries": spec.retries,
        "retransmit_timeout_ms": spec.retransmit_timeout_ms,
        "reliability": spec.reliability,
        "profile": spec.profile,
        "channel_version": spec.channel_version,
        "attackers": prepared.attacker_counts,
        "arrival_ms": spec.arrival_ms,
        "mean_degree": round(prepared.mean_degree, 2),
        "largest_component_fraction": round(prepared.component_fraction, 4),
        "warnings": prepared.warnings,
        "population_seconds": round(prepared.population_seconds, 4),
        "topology_seconds": round(prepared.topology_seconds, 4),
        "network_seconds": round(prepared.network_seconds, 4),
        "wall_seconds": round(wall_s, 4),
        "episodes_per_wall_sec": round(agg.episodes / wall_s, 2) if wall_s > 0 else 0.0,
        "episodes_per_sim_sec": round(agg.episodes_per_sim_sec, 2),
        "sim_duration_ms": agg.sim_duration_ms,
        "matches": agg.matches,
        "match_rate": round(matched_episodes / agg.episodes, 4) if agg.episodes else 0.0,
        "latency_p50_ms": agg.latency_p50_ms,
        "latency_p95_ms": agg.latency_p95_ms,
        "total_bytes": agg.total.total_bytes,
        "bytes_broadcast": agg.total.bytes_broadcast,
        "bytes_unicast": agg.total.bytes_unicast,
        "nodes_reached": agg.total.nodes_reached,
        "candidates": agg.total.candidates,
        "replies": agg.total.replies,
        "rejected_replies": rejected,
        "frames_sent": agg.total.frames_sent,
        "frames_dropped": agg.total.frames_dropped,
        "frames_duplicated": agg.total.frames_duplicated,
        "frames_corrupted": agg.total.frames_corrupted,
        "frames_rejected": agg.total.frames_rejected,
        "frame_bytes": agg.total.frame_bytes,
        "duplicate_replies": agg.total.duplicate_replies,
        "retransmissions": agg.total.retransmissions,
        "selective_retx": agg.total.selective_retx,
        "fec_recovered": agg.total.fec_recovered,
        "sessions_overflow": agg.total.sessions_overflow,
        "topology_refreshes": result.topology_refreshes,
        "churn_rate": spec.churn_rate,
        "churn_crash_rate": spec.churn_crash_rate,
        "fault_plan": spec.fault_plan,
        "nodes_joined": agg.total.nodes_joined,
        "nodes_left": agg.total.nodes_left,
        "nodes_crashed": agg.total.nodes_crashed,
        "orphaned_replies": agg.total.orphaned_replies,
        "degraded_episodes": agg.total.degraded_episodes,
    }


def render_markdown_report(plan_name: str, records: list[dict[str, Any]]) -> str:
    """Render the sweep's records as a self-contained markdown report."""
    columns = [
        ("scenario", "scenario"),
        ("nodes", "nodes"),
        ("protocol", "proto"),
        ("mobility", "mobility"),
        ("loss_rate", "loss"),
        ("channel_version", "chan-v"),
        ("reliability", "mode"),
        ("retries", "retries"),
        ("churn_rate", "churn"),
        ("fault_plan", "faults"),
        ("nodes_crashed", "crashed"),
        ("degraded_episodes", "degraded"),
        ("episodes", "episodes"),
        ("matches", "matches"),
        ("match_rate", "match-rate"),
        ("frames_sent", "frames"),
        ("frames_dropped", "dropped"),
        ("retransmissions", "retx"),
        ("selective_retx", "sel-retx"),
        ("fec_recovered", "fec-rec"),
        ("episodes_per_sim_sec", "ep/sim-s"),
        ("latency_p50_ms", "p50 ms"),
        ("latency_p95_ms", "p95 ms"),
        ("total_bytes", "bytes"),
        ("topology_seconds", "topo s"),
        ("wall_seconds", "wall s"),
    ]
    lines = [
        f"# Experiment report: {plan_name}",
        "",
        f"{len(records)} scenario(s). Latencies are simulated milliseconds; "
        "throughput is episodes per simulated second; `topo s`/`wall s` are "
        "wall-clock build and run times.  `match-rate` is the fraction of "
        "episodes that verified at least one match; `frames`/`dropped`/`retx` "
        "count datagram-layer transmissions, channel losses and "
        "retransmission waves; `mode`/`sel-retx`/`fec-rec` name the "
        "reliability mode, selectively re-sent reply segments and "
        "parity-reconstructed elements (see docs/wire_format.md and "
        "docs/reliability.md).",
        "",
        "| " + " | ".join(label for _, label in columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for record in records:
        cells = []
        for key, _ in columns:
            value = record.get(key, "")
            cells.append(f"{value:g}" if isinstance(value, float) else str(value))
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    for record in records:
        attackers = {k: v for k, v in record.get("attackers", {}).items() if v}
        lines.append(
            f"- **{record['scenario']}** — {record['nodes_reached']} nodes reached, "
            f"{record['replies']} replies ({record['rejected_replies']} rejected), "
            f"{record['frames_sent']} frames sent "
            f"({record['frames_dropped']} dropped, "
            f"{record['frames_rejected']} rejected at decode), "
            f"{record['retransmissions']} retransmission waves, "
            f"{record['topology_refreshes']} topology refreshes, "
            f"mean degree {record['mean_degree']}"
            + (f", attackers {attackers}" if attackers else "")
            + "."
        )
        for warning in record.get("warnings", []):
            lines.append(f"  - ⚠️ {warning}")
    lines.append("")
    lines.append("<details><summary>Full JSON records</summary>")
    lines.append("")
    lines.append("```json")
    lines.append(json.dumps(records, indent=2))
    lines.append("```")
    lines.append("")
    lines.append("</details>")
    return "\n".join(lines) + "\n"


def write_artifacts(
    name: str,
    payload: Mapping[str, Any],
    markdown: str,
    out_dir: str | Path,
) -> tuple[Path, Path]:
    """Write the standard JSON + markdown artifact pair for a named run.

    Shared by the experiment sweep runner and the conformance harness so
    every reporting surface lands artifacts under the same naming scheme
    (``<name>.json`` + ``<name>.md``, slashes flattened).  Returns
    ``(json_path, markdown_path)``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    safe_name = name.replace("/", "_")
    json_path = out / f"{safe_name}.json"
    md_path = out / f"{safe_name}.md"
    json_path.write_text(json.dumps(payload, indent=2))
    md_path.write_text(markdown)
    return json_path, md_path


def run_plan(
    source: str | Path | Mapping[str, Any],
    out_dir: str | Path,
    *,
    echo=None,
) -> tuple[Path, Path, list[dict[str, Any]]]:
    """Run every scenario in a plan; write the JSON + markdown artifacts.

    Returns ``(json_path, markdown_path, records)``.  *echo*, when given,
    receives one progress line per scenario.
    """
    plan = load_plan(source)
    records = []
    for spec in plan.specs:
        record = run_scenario(spec)
        records.append(record)
        if echo is not None:
            echo(
                f"[{len(records)}/{len(plan.specs)}] {spec.name}: "
                f"{record['matches']} matches, "
                f"{record['episodes_per_sim_sec']} ep/sim-s, "
                f"{record['wall_seconds']}s wall"
            )
            for warning in record["warnings"]:
                echo(f"    warning: {warning}")
    json_path, md_path = write_artifacts(
        plan.name,
        {"plan": plan.name, "records": records},
        render_markdown_report(plan.name, records),
        out_dir,
    )
    return json_path, md_path, records
