"""Request/response RPC message pairs over a network fabric.

Models the DistDGL-style remote-procedure shape: a caller serializes a
request (per-message fixed cost plus per-byte marshalling), ships it to
the owner host, the owner serializes the response, and the payload
comes back.  Both directions are priced and accounted; the caller
blocks for the full round trip (the synchronous ``rpc.remote`` of a
sampling worker).  Analytic and event-driven faces share the same cost
decomposition so the ``distributed`` and ``distributed-analytic``
backends agree on bytes by construction.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError
from repro.net.fabric import FabricState, NetworkFabric, TrafficAccount

__all__ = ["RpcChannel"]


class RpcChannel:
    """Prices RPC round trips over one fabric (analytic or attached)."""

    def __init__(self, fabric: NetworkFabric,
                 state: Optional[FabricState] = None):
        self.fabric = fabric
        self.state = state
        self.params = fabric.params
        self.calls = 0

    # -- shared cost pieces ------------------------------------------------

    def serialize_s(self, nbytes: int) -> float:
        """Marshal one message of ``nbytes`` (fixed + per-byte)."""
        if nbytes < 0:
            raise ConfigError(f"negative message size {nbytes}")
        return self.params.rpc_fixed_s + nbytes * self.params.rpc_per_byte_s

    # -- analytic face -----------------------------------------------------

    def rpc_time(self, src: int, dst: int, req_bytes: int,
                 resp_bytes: int) -> float:
        """Closed-form round-trip time of one request/response pair."""
        if src == dst:
            return 0.0
        return (
            self.serialize_s(req_bytes)
            + self.fabric.transfer_time(src, dst, req_bytes)
            + self.serialize_s(resp_bytes)
            + self.fabric.transfer_time(dst, src, resp_bytes)
        )

    # -- event-driven face -------------------------------------------------

    def call(self, src: int, dst: int, req_bytes: int, resp_bytes: int,
             cls: str):
        """Generator: one synchronous RPC round trip on the live fabric.

        Serialization burns caller/owner time (plain timeouts); the two
        payload transfers contend on the fabric's NIC and uplink
        resources and are credited to the fabric state's traffic
        account under ``cls``.  Self-calls are free and schedule no
        events.
        """
        if self.state is None:
            raise ConfigError(
                "RpcChannel.call needs an attached fabric "
                "(NetworkFabric.attach); use rpc_time for analytic costs"
            )
        if src == dst:
            return
        self.calls += 1
        # request: marshal at the caller, ship to the owner
        yield self.serialize_s(req_bytes)
        if req_bytes:
            yield from self.state.transfer(src, dst, req_bytes, cls)
        else:
            self.state.account.add(cls, 0)
        # response: marshal at the owner, ship back
        yield self.serialize_s(resp_bytes)
        if resp_bytes:
            yield from self.state.transfer(dst, src, resp_bytes, cls)
        else:
            self.state.account.add(cls, 0)
