"""BGP sessions between simulated nodes.

A session is a bidirectional message channel with a propagation delay
and an established/down state.  The session also owns the per-direction
MRAI (minimum route advertisement interval) state used by the pacing
ablation — the paper notes MRAI and route-flap damping are only
selectively deployed, so the default interval is 0 (no pacing).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.bgp.message import UpdateMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.network import Network


class SessionKind(enum.Enum):
    """eBGP crosses AS borders; iBGP stays inside one AS."""

    EBGP = "ebgp"
    IBGP = "ibgp"


class _DeliveryBatch:
    """Messages headed to one receiver at one fire time."""

    __slots__ = ("fire_at", "messages")

    def __init__(self, fire_at: float, messages: "list[UpdateMessage]"):
        self.fire_at = fire_at
        self.messages = messages


class BGPSession:
    """One BGP session between two nodes (router or collector).

    ``session_id`` is the session's number within its network
    (:meth:`Network.connect` counts from 1); the default endpoint
    addresses are derived from it, so a network's collector bytes
    depend only on the order its own sessions were created.
    """

    def __init__(
        self,
        network: "Network",
        node_a,
        node_b,
        *,
        session_id: int,
        kind: SessionKind,
        delay: float = 0.01,
        address_a: Optional[str] = None,
        address_b: Optional[str] = None,
        mrai: float = 0.0,
    ):
        self.session_id = session_id
        self._network = network
        self._node_a = node_a
        self._node_b = node_b
        self.kind = kind
        #: Precomputed: read on every import/export decision.
        self.is_ebgp = kind == SessionKind.EBGP
        self.delay = float(delay)
        self.mrai = float(mrai)
        self._address_a = address_a or f"10.{self.session_id >> 8}.{self.session_id & 0xFF}.1"
        self._address_b = address_b or f"10.{self.session_id >> 8}.{self.session_id & 0xFF}.2"
        self.established = True
        #: Per-direction earliest next advertisement time (MRAI state),
        #: keyed by the sending node.  The keys are looked up, never
        #: iterated or serialized, so the process-local values cannot
        #: reach collector output.
        # repro: allow(DET001) id() keys transient per-endpoint state; endpoints outlive the session and the dict is never iterated or persisted
        self._next_send_allowed = {id(node_a): 0.0, id(node_b): 0.0}
        #: Packet-capture hooks: callables ``(time, sender, message)``
        #: invoked for every message put on the wire.  The lab
        #: experiments tap the X1–Y1 link with these, mirroring the
        #: paper's tcpdump between X1 and Y1.
        self.taps: "list" = []
        #: Open delivery batches, keyed by ``id(receiver)``: messages
        #: sent to the same endpoint with the same fire time share one
        #: queue event instead of one event per message.
        self._open_batches: "dict[int, _DeliveryBatch]" = {}

    # ------------------------------------------------------------------
    # endpoint bookkeeping
    # ------------------------------------------------------------------
    @property
    def node_a(self):
        """First endpoint."""
        return self._node_a

    @property
    def node_b(self):
        """Second endpoint."""
        return self._node_b

    def other(self, node):
        """The endpoint opposite *node*."""
        if node is self._node_a:
            return self._node_b
        if node is self._node_b:
            return self._node_a
        raise ValueError(f"{node!r} is not an endpoint of {self!r}")

    def local_address(self, node) -> str:
        """The session address of *node*."""
        if node is self._node_a:
            return self._address_a
        if node is self._node_b:
            return self._address_b
        raise ValueError(f"{node!r} is not an endpoint of {self!r}")

    def peer_address(self, node) -> str:
        """The session address of the endpoint opposite *node*."""
        return self.local_address(self.other(node))

    # ------------------------------------------------------------------
    # message transport
    # ------------------------------------------------------------------
    def send(self, sender, message: UpdateMessage) -> bool:
        """Deliver *message* to the opposite endpoint after the delay.

        Returns False (dropping the message) when the session is down —
        mirroring TCP teardown: nothing crosses a dead session.

        When the network enables delivery batching (the default),
        messages to the same receiver with the same fire time ride one
        queue event as a coalesced list, mirroring how a TCP stream
        hands a burst of UPDATEs to the peer in one read.  FIFO order
        per (receiver, fire time) is preserved exactly; only when two
        *different* receivers collide on the exact same float fire
        time can their relative processing order differ from unbatched
        mode.  With per-session delays drawn from a continuous range
        (the synthetic-internet default) such collisions do not occur
        and collector output is bit-identical — the tier-1 test
        ``test_delivery_batching_leaves_metrics_unchanged`` checks
        exactly that.
        """
        if not self.established:
            return False
        if sender is self._node_a:
            receiver = self._node_b
        elif sender is self._node_b:
            receiver = self._node_a
        else:
            raise ValueError(f"{sender!r} is not an endpoint of {self!r}")
        queue = self._network.queue
        if self.taps:
            now = queue.now
            for tap in self.taps:
                tap(now, sender, message)
        if not self._network.batch_delivery:
            queue.schedule(
                self.delay, lambda: self._deliver(receiver, message)
            )
            return True
        fire_at = queue.now + self.delay
        # repro: allow(DET001) id() is the open-batch key for one receiver; batches are drained by the same key and never ordered or output
        key = id(receiver)
        batch = self._open_batches.get(key)
        if batch is not None and batch.fire_at == fire_at:
            batch.messages.append(message)
        else:
            batch = _DeliveryBatch(fire_at, [message])
            self._open_batches[key] = batch
            queue.schedule_at(
                fire_at,
                lambda: self._deliver_batch(receiver, key, batch),
            )
        return True

    def _deliver(self, receiver, message: UpdateMessage) -> None:
        if not self.established:
            return
        receiver.receive(self, message)

    def _deliver_batch(
        self, receiver, key: int, batch: _DeliveryBatch
    ) -> None:
        if self._open_batches.get(key) is batch:
            del self._open_batches[key]
        if not self.established:
            return
        receiver.receive_batch(self, batch.messages)

    # ------------------------------------------------------------------
    # MRAI pacing
    # ------------------------------------------------------------------
    def mrai_wait(self, sender) -> float:
        """Seconds *sender* must still wait before advertising (0 = now)."""
        if self.mrai <= 0:
            return 0.0
        # repro: allow(DET001) id() mirrors the constructor's MRAI-state key; lookup only, never iterated or persisted
        allowed_at = self._next_send_allowed[id(sender)]
        return max(0.0, allowed_at - self._network.queue.now)

    def mark_advertisement(self, sender) -> None:
        """Start *sender*'s MRAI window after an advertisement batch."""
        if self.mrai > 0:
            # repro: allow(DET001) id() mirrors the constructor's MRAI-state key; lookup only, never iterated or persisted
            self._next_send_allowed[id(sender)] = (
                self._network.queue.now + self.mrai
            )

    # ------------------------------------------------------------------
    # state changes
    # ------------------------------------------------------------------
    def bring_down(self) -> None:
        """Tear the session down and notify both endpoints."""
        if not self.established:
            return
        self.established = False
        for node in (self._node_a, self._node_b):
            node.session_down(self)

    def bring_up(self) -> None:
        """Re-establish the session and trigger initial table exchange."""
        if self.established:
            return
        self.established = True
        for node in (self._node_a, self._node_b):
            node.session_up(self)

    def __repr__(self) -> str:
        state = "up" if self.established else "down"
        return (
            f"BGPSession({self._node_a.name}<->{self._node_b.name},"
            f" {self.kind.value}, {state})"
        )
