"""Named clusters: MetaBlade, MetaBlade2, Green Destiny, Avalon, Loki,
and the comparably-equipped traditional Beowulfs of Table 5.

Physical figures follow the paper where it states them: MetaBlade draws
0.4 kW of blade power (0.52 kW with chassis infrastructure) in six
square feet; a traditional 24-node cluster occupies twenty square feet;
Avalon (the 1998 Gordon Bell price/performance winner) fills 120 sq ft
at 18 kW; Green Destiny packs 240 blades into one rack on the MetaBlade
footprint.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cluster.blade import ServerBlade
from repro.cluster.chassis import RlxSystem324
from repro.cluster.rack import RACK_FOOTPRINT_SQFT, RACK_GEAR_WATTS, Rack
from repro.cpus.base import ProcessorSpec
from repro.cpus.catalog import (
    ALPHA_EV56_533,
    ATHLON_MP_1200,
    PENTIUM_4_1300,
    PENTIUM_III_500,
    PENTIUM_PRO_200,
    TM5600_633,
    TM5800_800,
)
from repro.cpus.power import COOLING_OVERHEAD_PER_WATT


class Packaging(enum.Enum):
    """How nodes are physically integrated."""

    TRADITIONAL = "traditional"     # minitowers / rackmount boxes, fans
    BLADED = "bladed"               # RLX chassis, passive blades


@dataclass(frozen=True)
class Cluster:
    """A complete cluster with its physical and economic attributes."""

    name: str
    processor: ProcessorSpec
    nodes: int
    packaging: Packaging
    footprint_sqft: float
    acquisition_usd: float
    year: int
    #: Sustained treecode performance in Gflops.  For machines we model
    #: (MetaBlade, MetaBlade2, Loki, Avalon) this is cross-checked by the
    #: performance model; for historical machines it is the published
    #: record the paper itself quotes.
    treecode_gflops: Optional[float] = None
    #: Explicit power override (kW at load) for historical machines.
    power_kw_override: Optional[float] = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("a cluster needs at least one node")
        if self.footprint_sqft <= 0:
            raise ValueError("footprint must be positive")

    # -- physical ---------------------------------------------------------

    @property
    def chassis_count(self) -> int:
        """Number of RLX chassis (bladed packaging only)."""
        if self.packaging is not Packaging.BLADED:
            return 0
        return math.ceil(self.nodes / RlxSystem324.SLOTS)

    def build_hardware(self) -> Tuple[Rack, ...]:
        """Materialise the bladed hardware (chassis in racks).

        Only meaningful for bladed clusters; used by tests to check that
        the physical model and the closed-form power figures agree.
        """
        if self.packaging is not Packaging.BLADED:
            raise ValueError(f"{self.name} is not a bladed cluster")
        racks = []
        remaining = self.nodes
        while remaining > 0:
            rack = Rack()
            while remaining > 0 and rack.free_units >= 3:
                chassis = RlxSystem324()
                fill = min(remaining, RlxSystem324.SLOTS)
                for slot in range(fill):
                    chassis.insert(
                        slot, ServerBlade.for_processor(self.processor)
                    )
                chassis.validate_power()
                rack.mount(chassis)
                remaining -= fill
                if len(rack.chassis) >= 10:   # Green Destiny uses 10/rack
                    break
            racks.append(rack)
        if len(racks) == 1 and len(racks[0].chassis) == 1:
            # A lone chassis (MetaBlade) needs no rack aggregation gear;
            # its 0.52 kW figure already includes the chassis switch.
            racks[0].gear_watts = 0.0
        return tuple(racks)

    @property
    def power_kw(self) -> float:
        """Cluster draw at load, excluding machine-room cooling."""
        if self.power_kw_override is not None:
            return self.power_kw_override
        node_watts = self.nodes * self.processor.node_watts
        if self.packaging is Packaging.BLADED:
            overhead = self.chassis_count * RlxSystem324.OVERHEAD_WATTS
            if self.chassis_count > 1:
                overhead += RACK_GEAR_WATTS
            return (node_watts + overhead) / 1000.0
        return node_watts / 1000.0

    @property
    def cooling_kw(self) -> float:
        """Machine-room cooling burden (paper: +0.5 W per W, traditional
        clusters only; blades need no active cooling)."""
        if self.packaging is Packaging.BLADED:
            return 0.0
        return self.power_kw * COOLING_OVERHEAD_PER_WATT

    @property
    def total_power_kw(self) -> float:
        return self.power_kw + self.cooling_kw

    # -- performance ------------------------------------------------------

    @property
    def treecode_mflops_per_proc(self) -> Optional[float]:
        if self.treecode_gflops is None:
            return None
        return self.treecode_gflops * 1000.0 / self.nodes

    @property
    def perf_space_mflops_per_sqft(self) -> Optional[float]:
        """The paper's performance/space metric (Table 6)."""
        if self.treecode_gflops is None:
            return None
        return self.treecode_gflops * 1000.0 / self.footprint_sqft

    @property
    def perf_power_gflops_per_kw(self) -> Optional[float]:
        """The paper's performance/power metric (Table 7)."""
        if self.treecode_gflops is None:
            return None
        return self.treecode_gflops / self.power_kw


#: Peak double-precision flops per cycle per processor (for the paper's
#: percent-of-peak accounting; 24 x 633 MHz x 1 = the 15.2 Gflops peak
#: it quotes for MetaBlade).
PEAK_FLOPS_PER_CYCLE: Dict[str, float] = {
    "Transmeta TM5600": 1.0,
    "Transmeta TM5800": 1.0,
    "Intel Pentium III": 1.0,
    "Compaq Alpha EV56": 2.0,
    "IBM Power3": 4.0,
    "AMD Athlon MP": 2.0,
    "Intel Pentium 4": 2.0,
    "Intel Pentium Pro": 1.0,
}


def peak_gflops(cluster: Cluster) -> float:
    """Theoretical peak of a cluster in Gflops."""
    per_cycle = PEAK_FLOPS_PER_CYCLE.get(cluster.processor.name, 1.0)
    return cluster.nodes * cluster.processor.clock_hz * per_cycle / 1e9


# ---------------------------------------------------------------------------
# The Bladed Beowulfs
# ---------------------------------------------------------------------------

METABLADE = Cluster(
    name="MetaBlade",
    processor=TM5600_633.spec,
    nodes=24,
    packaging=Packaging.BLADED,
    footprint_sqft=6.0,
    acquisition_usd=26_000.0,
    year=2001,
    treecode_gflops=2.1,          # paper Section 3.3 (SC'01 run)
)

METABLADE2 = Cluster(
    name="MetaBlade2",
    processor=TM5800_800.spec,
    nodes=24,
    packaging=Packaging.BLADED,
    footprint_sqft=6.0,
    acquisition_usd=26_000.0,
    year=2001,
    treecode_gflops=3.3,          # paper footnote 3 / Section 5
)

GREEN_DESTINY = Cluster(
    name="Green Destiny",
    processor=TM5800_800.spec,
    nodes=240,
    packaging=Packaging.BLADED,
    footprint_sqft=6.0,           # ten System 324s in one rack
    acquisition_usd=335_000.0,
    year=2002,
    treecode_gflops=21.5,         # projection the paper's Tables 6-7 use
)

# ---------------------------------------------------------------------------
# Traditional Beowulfs the paper compares against
# ---------------------------------------------------------------------------

AVALON = Cluster(
    name="Avalon",
    processor=ALPHA_EV56_533.spec,
    nodes=140,
    packaging=Packaging.TRADITIONAL,
    footprint_sqft=120.0,
    acquisition_usd=313_000.0,
    year=1998,
    treecode_gflops=18.0,
    power_kw_override=18.0,
)

LOKI = Cluster(
    name="Loki",
    processor=PENTIUM_PRO_200.spec,
    nodes=16,
    packaging=Packaging.TRADITIONAL,
    footprint_sqft=15.0,
    acquisition_usd=51_000.0,
    year=1996,
    treecode_gflops=0.7,
)


def traditional_beowulf(name: str, processor: ProcessorSpec,
                        acquisition_usd: float, nodes: int = 24,
                        footprint_sqft: float = 20.0,
                        year: int = 2001) -> Cluster:
    """A comparably-equipped traditional 24-node Beowulf (Table 5 row)."""
    return Cluster(
        name=name,
        processor=processor,
        nodes=nodes,
        packaging=Packaging.TRADITIONAL,
        footprint_sqft=footprint_sqft,
        acquisition_usd=acquisition_usd,
        year=year,
    )


#: The five clusters of Table 5, in column order, with the paper's
#: acquisition costs.
TABLE5_CLUSTERS: Tuple[Cluster, ...] = (
    traditional_beowulf("Alpha Beowulf", ALPHA_EV56_533.spec, 17_000.0),
    traditional_beowulf("Athlon Beowulf", ATHLON_MP_1200.spec, 15_000.0),
    traditional_beowulf("PIII Beowulf", PENTIUM_III_500.spec, 16_000.0),
    traditional_beowulf("P4 Beowulf", PENTIUM_4_1300.spec, 17_000.0),
    METABLADE,
)

CLUSTER_CATALOG: Dict[str, Cluster] = {
    c.name: c
    for c in (
        METABLADE,
        METABLADE2,
        GREEN_DESTINY,
        AVALON,
        LOKI,
        *TABLE5_CLUSTERS[:-1],
    )
}


def cluster_by_name(name: str) -> Cluster:
    try:
        return CLUSTER_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(CLUSTER_CATALOG))
        raise KeyError(f"unknown cluster {name!r}; known: {known}") from None
