"""Low-power wireless network substrate.

This subpackage provides the simulated equivalent of the hardware and
firmware substrate that Dimmer runs on in the paper: TelosB-class nodes
with CC2420 radios, Glossy synchronous-transmission floods, the
Low-power Wireless Bus (LWB) round structure, and controlled
interference injection (Jamlab-style 802.15.4 bursts, D-Cube-style WiFi
levels, and ambient office interference).

The central entry point is :class:`repro.net.simulator.NetworkSimulator`,
which owns a topology, an interference schedule, and a round clock, and
executes LWB rounds slot by slot.
"""

from repro.net.channels import (
    CONTROL_CHANNEL,
    IEEE_802_15_4_CHANNELS,
    ChannelHopper,
    wifi_overlap,
)
from repro.net.energy import EnergyModel, RadioOnLedger
from repro.net.glossy import FLOOD_ENGINES, FloodResult, GlossyFlood
from repro.net.interference import (
    AmbientInterference,
    BurstJammer,
    CompositeInterference,
    InterferenceSource,
    NoInterference,
    WifiInterference,
)
from repro.net.link import LinkModel
from repro.net.lwb import LWBRoundEngine, RoundResult, Schedule
from repro.net.node import NodeRole, NodeStateArray
from repro.net.packet import (
    DimmerFeedbackHeader,
    DataPacket,
    Packet,
    SchedulePacket,
)
from repro.net.radio import RadioModel, RadioState
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import Topology, dcube_testbed, grid_topology, kiel_testbed, random_topology
from repro.net.trace import TraceRecord, TraceSet

__all__ = [
    "CONTROL_CHANNEL",
    "IEEE_802_15_4_CHANNELS",
    "ChannelHopper",
    "wifi_overlap",
    "EnergyModel",
    "RadioOnLedger",
    "FLOOD_ENGINES",
    "FloodResult",
    "GlossyFlood",
    "AmbientInterference",
    "BurstJammer",
    "CompositeInterference",
    "InterferenceSource",
    "NoInterference",
    "WifiInterference",
    "LinkModel",
    "LWBRoundEngine",
    "RoundResult",
    "Schedule",
    "NodeRole",
    "NodeStateArray",
    "DimmerFeedbackHeader",
    "DataPacket",
    "Packet",
    "SchedulePacket",
    "RadioModel",
    "RadioState",
    "NetworkSimulator",
    "SimulatorConfig",
    "Topology",
    "dcube_testbed",
    "grid_topology",
    "kiel_testbed",
    "random_topology",
    "TraceRecord",
    "TraceSet",
]
