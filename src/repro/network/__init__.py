"""Decentralized multi-hop mobile social network simulator.

The paper's protocols run over ad-hoc WiFi/Bluetooth networks: a request is
broadcast, flooded by relays until it expires or hits its TTL, and matching
users unicast replies back.  This package provides a discrete-event
simulator faithful to that transport -- TTL flooding with duplicate
suppression, per-hop latency, request expiry, per-neighbor rate limiting
(the paper's DoS defence), and byte-level accounting of every transmission.
"""

from repro.network.channel_model import ChannelModel, Delivery, PerfectChannel
from repro.network.events import (
    BroadcastEvent,
    DeliveryEvent,
    EventQueue,
    FrameEvent,
    ReplyHopEvent,
    RetransmitEvent,
    TopologyRefreshEvent,
)
from repro.network.sessions import Session, SessionTable
from repro.network.metrics import AggregateMetrics, NetworkMetrics, percentile
from repro.network.topology import (
    SpatialGrid,
    city_topology,
    complete_topology,
    grid_topology,
    line_topology,
    naive_adjacency,
    proximity_adjacency,
)
from repro.network.simulator import AdHocNetwork, FriendingResult, Node, RateLimiter
from repro.network.engine import EngineResult, EpisodeResult, EpisodeSpec, FriendingEngine
from repro.network.mobility import RandomWaypoint, StaticPlacement
from repro.network.scenario import MobileScenario, ScenarioSummary, SearchReport

__all__ = [
    "AdHocNetwork",
    "AggregateMetrics",
    "BroadcastEvent",
    "ChannelModel",
    "Delivery",
    "DeliveryEvent",
    "EngineResult",
    "EpisodeResult",
    "EpisodeSpec",
    "EventQueue",
    "FrameEvent",
    "FriendingEngine",
    "FriendingResult",
    "MobileScenario",
    "NetworkMetrics",
    "Node",
    "PerfectChannel",
    "RandomWaypoint",
    "RateLimiter",
    "ReplyHopEvent",
    "RetransmitEvent",
    "ScenarioSummary",
    "SearchReport",
    "Session",
    "SessionTable",
    "SpatialGrid",
    "StaticPlacement",
    "TopologyRefreshEvent",
    "city_topology",
    "complete_topology",
    "grid_topology",
    "line_topology",
    "naive_adjacency",
    "percentile",
    "proximity_adjacency",
]
