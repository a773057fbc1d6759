"""Rack-structured network fabric with per-link simulated resources.

A :class:`NetworkFabric` describes the static topology -- which hosts
share a rack, what bandwidth/latency each tier offers -- and prices
transfers analytically.  :meth:`NetworkFabric.attach` materializes the
event-driven face: one :class:`~repro.sim.resources.BandwidthLink` per
host NIC plus one shared uplink per rack, so concurrent senders on one
host serialize at their NIC and all hosts of a rack contend for the
oversubscribed cross-rack uplink exactly the way the sharded backend's
producers contend for their PCIe ingress port.

Two topologies:

``flat``
    every host hangs off one switch; all traffic moves at the
    intra-rack tier (the single-switch testbed case).
``rack``
    hosts are grouped into racks of ``FabricParams.rack_size``;
    cross-rack transfers additionally traverse the rack's shared
    uplink (the oversubscribed tier).

Traffic is tagged with one of the :data:`TRAFFIC_CLASSES` so the
``distributed`` backend reports network bytes by *why* they moved.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import FABRIC_TOPOLOGIES, FabricParams
from repro.errors import ConfigError
from repro.sim.resources import BandwidthLink

__all__ = [
    "SAMPLING_RPC",
    "FEATURE_PULL",
    "ALLREDUCE",
    "SHUFFLE",
    "TRAFFIC_CLASSES",
    "FABRIC_TOPOLOGIES",
    "TrafficAccount",
    "NetworkFabric",
    "FabricState",
]

#: remote neighbor-sampling request/response pairs (DistDGL-style RPCs)
SAMPLING_RPC = "sampling_rpc"
#: remote feature-row pulls from the owning host's shard
FEATURE_PULL = "feature_pull"
#: gradient all-reduce collective traffic
ALLREDUCE = "allreduce"
#: one-time partition data shuffle (planning artifact, not simulated)
SHUFFLE = "shuffle"

TRAFFIC_CLASSES = (SAMPLING_RPC, FEATURE_PULL, ALLREDUCE)


class TrafficAccount:
    """Bytes and message counts moved over the fabric, by traffic class."""

    def __init__(self) -> None:
        self.bytes_by_class: Dict[str, int] = {
            cls: 0 for cls in TRAFFIC_CLASSES
        }
        self.messages_by_class: Dict[str, int] = {
            cls: 0 for cls in TRAFFIC_CLASSES
        }
        #: payload bytes resent after transient link faults (fault
        #: injection only; stays all-zero -- and out of stats() -- on
        #: a healthy fabric)
        self.retransmit_bytes_by_class: Dict[str, int] = {
            cls: 0 for cls in TRAFFIC_CLASSES
        }
        self.retransmits_by_class: Dict[str, int] = {
            cls: 0 for cls in TRAFFIC_CLASSES
        }

    def _check(self, cls: str, nbytes: int, messages: int) -> None:
        if cls not in self.bytes_by_class:
            raise ConfigError(
                f"unknown traffic class {cls!r}; one of {TRAFFIC_CLASSES}"
            )
        if nbytes < 0 or messages < 0:
            raise ConfigError(
                f"traffic must be non-negative, got {nbytes} bytes / "
                f"{messages} messages"
            )

    def add(self, cls: str, nbytes: int, messages: int = 1) -> None:
        self._check(cls, nbytes, messages)
        self.bytes_by_class[cls] += int(nbytes)
        self.messages_by_class[cls] += int(messages)

    def add_retransmit(
        self, cls: str, nbytes: int, messages: int = 1
    ) -> None:
        """Charge a faulted transfer's resent payload to ``cls``."""
        self._check(cls, nbytes, messages)
        self.retransmit_bytes_by_class[cls] += int(nbytes)
        self.retransmits_by_class[cls] += int(messages)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_class.values())

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_class.values())

    @property
    def total_retransmit_bytes(self) -> int:
        return sum(self.retransmit_bytes_by_class.values())

    @property
    def total_retransmits(self) -> int:
        return sum(self.retransmits_by_class.values())

    def stats(self, prefix: str = "net_") -> Dict[str, float]:
        """Flat scalar dict for ``PipelineResult.backend_stats``.

        Retransmit keys appear only when a retransmit happened, so
        fault-free runs keep their historical byte-identical records.
        """
        out = {
            f"{prefix}{cls}_bytes": float(n)
            for cls, n in self.bytes_by_class.items()
        }
        out[f"{prefix}bytes"] = float(self.total_bytes)
        out[f"{prefix}messages"] = float(self.total_messages)
        if self.total_retransmits:
            for cls, n in self.retransmit_bytes_by_class.items():
                out[f"{prefix}{cls}_retransmit_bytes"] = float(n)
            out[f"{prefix}retransmit_bytes"] = float(
                self.total_retransmit_bytes
            )
            out[f"{prefix}retransmits"] = float(self.total_retransmits)
        return out

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{cls}={n}" for cls, n in self.bytes_by_class.items()
        )
        return f"TrafficAccount({parts})"


class NetworkFabric:
    """Static topology + analytic transfer costs for ``n_hosts`` hosts."""

    def __init__(
        self,
        params: FabricParams,
        n_hosts: int,
        topology: str = "rack",
    ):
        if n_hosts < 1:
            raise ConfigError(f"n_hosts must be >= 1, got {n_hosts}")
        if topology not in FABRIC_TOPOLOGIES:
            raise ConfigError(
                f"fabric topology must be one of {FABRIC_TOPOLOGIES}, "
                f"got {topology!r}"
            )
        if params.rack_size < 1:
            raise ConfigError(
                f"fabric.rack_size must be >= 1, got {params.rack_size}"
            )
        if params.oversubscription < 1.0:
            raise ConfigError(
                "fabric.oversubscription must be >= 1.0, got "
                f"{params.oversubscription}"
            )
        if min(params.intra_rack_bandwidth, params.cross_rack_bandwidth) <= 0:
            raise ConfigError("fabric bandwidths must be positive")
        self.params = params
        self.n_hosts = n_hosts
        self.topology = topology

    # -- topology ----------------------------------------------------------

    def rack_of(self, host: int) -> int:
        self._check_host(host)
        if self.topology == "flat":
            return 0
        return host // self.params.rack_size

    @property
    def n_racks(self) -> int:
        if self.topology == "flat":
            return 1
        return (self.n_hosts + self.params.rack_size - 1) \
            // self.params.rack_size

    def same_rack(self, a: int, b: int) -> bool:
        return self.rack_of(a) == self.rack_of(b)

    def _check_host(self, host: int) -> None:
        if not 0 <= host < self.n_hosts:
            raise ConfigError(
                f"host {host} out of range [0, {self.n_hosts})"
            )

    # -- analytic face -----------------------------------------------------

    def path_latency_s(self, src: int, dst: int) -> float:
        """One-way propagation + switching latency of the src->dst path."""
        if src == dst:
            return 0.0
        if self.same_rack(src, dst):
            return self.params.intra_rack_latency_s
        return self.params.cross_rack_latency_s

    def path_bandwidth(self, src: int, dst: int) -> float:
        """Effective per-flow bandwidth of the src->dst path.

        Cross-rack flows see the uplink divided by the fan-in ratio --
        the steady-state share under full oversubscription.
        """
        self._check_host(src)
        self._check_host(dst)
        if self.same_rack(src, dst):
            return self.params.intra_rack_bandwidth
        return (
            self.params.cross_rack_bandwidth / self.params.oversubscription
        )

    def transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        """Closed-form one-way transfer time (no queueing)."""
        if nbytes < 0:
            raise ConfigError(f"negative transfer size {nbytes}")
        if src == dst or nbytes == 0:
            return 0.0
        return self.path_latency_s(src, dst) \
            + nbytes / self.path_bandwidth(src, dst)

    #: slowest per-flow bandwidth any host pair sees (collective models)
    def bottleneck_bandwidth(self) -> float:
        if self.n_hosts <= 1:
            return self.params.intra_rack_bandwidth
        if self.topology == "flat" or self.n_racks == 1:
            return self.params.intra_rack_bandwidth
        return min(
            self.params.intra_rack_bandwidth,
            self.params.cross_rack_bandwidth / self.params.oversubscription,
        )

    def max_latency_s(self) -> float:
        if self.n_hosts <= 1:
            return 0.0
        if self.topology == "flat" or self.n_racks == 1:
            return self.params.intra_rack_latency_s
        return self.params.cross_rack_latency_s

    # -- event-driven face -------------------------------------------------

    def attach(self, sim, faults=None) -> "FabricState":
        """Materialize the per-link contention resources on ``sim``.

        ``faults`` (a :class:`~repro.faults.FaultInjector`) degrades
        every link's bandwidth by the plan's ``link_degrade_frac`` and
        makes transfers flap-and-retransmit at ``link_flap_rate``.
        """
        return FabricState(self, sim, faults=faults)

    def __repr__(self) -> str:
        return (
            f"NetworkFabric(topology={self.topology!r}, "
            f"hosts={self.n_hosts}, racks={self.n_racks})"
        )


class FabricState:
    """One simulation's live fabric: NIC links + shared rack uplinks."""

    def __init__(self, fabric: NetworkFabric, sim, faults=None):
        self.fabric = fabric
        self.sim = sim
        self.account = TrafficAccount()
        self.faults = faults
        p = fabric.params
        # Degraded links run at a fraction of nominal bandwidth; the
        # healthy factor is exactly 1.0 so fault-free simulations see
        # the nominal (bit-identical) link rates.
        healthy = 1.0
        if faults is not None and faults.plan.link_degrade_frac > 0.0:
            healthy = 1.0 - faults.plan.link_degrade_frac
        self.nics: List[BandwidthLink] = [
            BandwidthLink(
                sim,
                p.intra_rack_bandwidth if healthy == 1.0
                else p.intra_rack_bandwidth * healthy,
                p.intra_rack_latency_s,
                name=f"host{h}.nic",
            )
            for h in range(fabric.n_hosts)
        ]
        # One shared uplink per rack: all of the rack's hosts contend
        # here, which is where the oversubscription bites under load.
        self.uplinks: List[Optional[BandwidthLink]] = [
            BandwidthLink(
                sim,
                p.cross_rack_bandwidth if healthy == 1.0
                else p.cross_rack_bandwidth * healthy,
                p.cross_rack_latency_s - p.intra_rack_latency_s
                if p.cross_rack_latency_s > p.intra_rack_latency_s
                else 0.0,
                name=f"rack{r}.uplink",
            )
            for r in range(fabric.n_racks)
        ]

    def transfer(self, src: int, dst: int, nbytes: int,
                 cls: str = SAMPLING_RPC):
        """Generator: move ``nbytes`` src->dst through the shared links.

        The payload serializes through the sender's NIC and, when the
        hosts sit in different racks, additionally through the source
        rack's shared uplink.  Zero-byte and self transfers are free
        (no events are scheduled, preserving single-host parity).
        """
        if nbytes < 0:
            raise ConfigError(f"negative transfer size {nbytes}")
        if src == dst or nbytes == 0:
            return
        self.fabric._check_host(src)
        self.fabric._check_host(dst)
        self.account.add(cls, nbytes)
        yield from self.nics[src].transfer(nbytes)
        if not self.fabric.same_rack(src, dst):
            yield from self.uplinks[self.fabric.rack_of(src)].transfer(
                nbytes
            )
        inj = self.faults
        if inj is not None and inj.happens(
            f"fabric.host{src}.nic", inj.plan.link_flap_rate
        ):
            # transient flap: the payload is lost in flight and the
            # sender pays the full path again for the retransmit
            self.account.add_retransmit(cls, nbytes)
            inj.charge("link_retransmits", 1)
            inj.charge("link_retransmit_bytes", nbytes)
            yield from self.nics[src].transfer(nbytes)
            if not self.fabric.same_rack(src, dst):
                yield from self.uplinks[
                    self.fabric.rack_of(src)
                ].transfer(nbytes)

    def utilization(self, elapsed: Optional[float] = None) -> Dict[str, float]:
        """Busy fraction per link (NICs and uplinks)."""
        out = {
            link.name: link.utilization(elapsed) for link in self.nics
        }
        for link in self.uplinks:
            out[link.name] = link.utilization(elapsed)
        return out
