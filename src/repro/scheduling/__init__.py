"""DGS's downlink scheduler -- the paper's core contribution (Sec. 3.1).

Per time instant the scheduler:

1. propagates every satellite and finds which are above each station's
   horizon ("Orbit Calculations");
2. builds the weighted bipartite satellite x station graph, with edge
   weights from the link-quality model and the value function Phi
   ("Graph Construction");
3. picks a matching -- stable (Gale-Shapley, the paper's choice), optimal
   (max-weight assignment), or greedy -- under point-to-point capacity
   constraints ("Matching").

The value function is pluggable (:mod:`repro.scheduling.value_functions`):
latency-optimized, throughput-optimized, SLA/geography-weighted, or
auction-based, exactly the knob Fig. 3c turns.
"""

from repro.scheduling.value_functions import (
    AuctionValue,
    CompositeValue,
    DeadlineSlaValue,
    LatencyValue,
    PerEdgeValue,
    PriorityValue,
    ThroughputValue,
    ValueFunction,
)
from repro.scheduling.graph import ContactEdge, ContactGraph, build_contact_graph
from repro.scheduling.matching import (
    Assignment,
    diversity_groups,
    gale_shapley,
    greedy_matching,
    hungarian,
    is_stable,
    max_weight_matching,
)
from repro.scheduling.scheduler import DownlinkScheduler, ScheduleStep
from repro.scheduling.horizon import HorizonScheduler
from repro.scheduling.beamforming import BeamformingScheduler
from repro.scheduling.pointing import PointingTrack, pointing_tracks

__all__ = [
    "ValueFunction",
    "DeadlineSlaValue",
    "LatencyValue",
    "ThroughputValue",
    "PriorityValue",
    "AuctionValue",
    "CompositeValue",
    "PerEdgeValue",
    "ContactEdge",
    "ContactGraph",
    "build_contact_graph",
    "Assignment",
    "diversity_groups",
    "gale_shapley",
    "greedy_matching",
    "hungarian",
    "max_weight_matching",
    "is_stable",
    "DownlinkScheduler",
    "ScheduleStep",
    "HorizonScheduler",
    "BeamformingScheduler",
    "PointingTrack",
    "pointing_tracks",
]
