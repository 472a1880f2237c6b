"""Physical cluster models: nodes, blades, chassis, racks, clusters.

Carries the attributes the paper's Section 4 metrics consume: node
counts, power draw at load, cooling needs, footprint, acquisition cost
and failure behaviour - for both packaging styles:

- **traditional Beowulf**: tower/rackmount minitowers on shelves,
  actively cooled, ~20 sq ft per 24 nodes, a whole-cluster outage when
  a node fails;
- **Bladed Beowulf**: RLX System 324 chassis (24 ServerBlades in 3U),
  no active cooling, six square feet per rack, hot-pluggable blades so
  a failure takes down one node only.
"""

from repro.cluster.node import ComputeNode, NodeConfig
from repro.cluster.blade import ServerBlade, BLADE_FORM_FACTOR
from repro.cluster.chassis import RlxSystem324, ChassisError
from repro.cluster.rack import Rack, RACK_FOOTPRINT_SQFT
from repro.cluster.catalog import (
    AVALON,
    CLUSTER_CATALOG,
    GREEN_DESTINY,
    LOKI,
    METABLADE,
    METABLADE2,
    PEAK_FLOPS_PER_CYCLE,
    TABLE5_CLUSTERS,
    Cluster,
    Packaging,
    cluster_by_name,
    peak_gflops,
    traditional_beowulf,
)
from repro.cluster.management import (
    ClusterOperationSim,
    LiveFailureInjector,
    ManagementHub,
)
from repro.cluster.reliability import (
    BLADED_OUTAGES,
    TRADITIONAL_OUTAGES,
    ClusterReliability,
    OutageProfile,
    sample_failure_times,
)

__all__ = [
    "AVALON",
    "BLADED_OUTAGES",
    "BLADE_FORM_FACTOR",
    "CLUSTER_CATALOG",
    "ChassisError",
    "Cluster",
    "ClusterOperationSim",
    "ClusterReliability",
    "ComputeNode",
    "GREEN_DESTINY",
    "LOKI",
    "LiveFailureInjector",
    "METABLADE",
    "METABLADE2",
    "ManagementHub",
    "NodeConfig",
    "OutageProfile",
    "PEAK_FLOPS_PER_CYCLE",
    "TRADITIONAL_OUTAGES",
    "Packaging",
    "RACK_FOOTPRINT_SQFT",
    "Rack",
    "RlxSystem324",
    "ServerBlade",
    "TABLE5_CLUSTERS",
    "cluster_by_name",
    "peak_gflops",
    "sample_failure_times",
    "traditional_beowulf",
]
