"""Message accounting, split along the paper's expensive/cheap axis.

:meth:`MessageCounters.on_send` counts each sent message under its class
and nothing else: one dict update per message.  Every figure (totals, the
expensive/cheap split, token passes, search traffic) is read off that
table, which has one row per message class however long the run, so
result-row assembly stays O(1) in the number of messages.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["MessageCounters", "ReliabilityCounters", "WireCounters"]

#: Rotation hops plus loans and returns — every token movement.
_TOKEN_PASS_TYPES = frozenset({"TokenMsg", "LoanMsg", "LoanReturnMsg"})

#: All search/hint traffic (gimme, ask, adverts, probes).
_SEARCH_TYPES = frozenset({
    "GimmeMsg", "AskMsg", "AdvertMsg", "RequestMsg", "ProbeMsg",
    "ProbeReplyMsg",
})


class MessageCounters:
    """Counts sent messages by concrete type and by reliability class."""

    def __init__(self) -> None:
        #: message class -> messages sent.
        self._sent: Dict[type, int] = {}

    def on_send(self, src: int, dst: int, msg: object) -> None:
        """Network ``on_send`` hook."""
        sent = self._sent
        kind = type(msg)
        sent[kind] = sent.get(kind, 0) + 1

    @property
    def by_type(self) -> Dict[str, int]:
        """Messages sent per concrete type (by class name)."""
        out: Dict[str, int] = {}
        for kind, count in self._sent.items():
            out[kind.__name__] = out.get(kind.__name__, 0) + count
        return out

    @property
    def expensive(self) -> int:
        """Messages of a ``reliable`` class (the token and its loans)."""
        return sum(count for kind, count in self._sent.items()
                   if getattr(kind, "reliable", True))

    @property
    def cheap(self) -> int:
        """Messages of an unreliable class (search, probes, hints)."""
        return self.total - self.expensive

    @property
    def total(self) -> int:
        """All messages sent."""
        return sum(self._sent.values())

    def count(self, type_name: str) -> int:
        """Messages of one concrete type (by class name)."""
        return sum(count for kind, count in self._sent.items()
                   if kind.__name__ == type_name)

    def token_passes(self) -> int:
        """Rotation hops plus loans and returns — every token movement."""
        return sum(count for kind, count in self._sent.items()
                   if kind.__name__ in _TOKEN_PASS_TYPES)

    def search_messages(self) -> int:
        """All search/hint traffic (gimme, ask, adverts, probes)."""
        return sum(count for kind, count in self._sent.items()
                   if kind.__name__ in _SEARCH_TYPES)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot for reporting."""
        out = self.by_type
        out["_expensive"] = self.expensive
        out["_cheap"] = self.cheap
        out["_total"] = self.total
        return out


class ReliabilityCounters:
    """Accounting for the asyncio reliability sublayer
    (:mod:`repro.aio.reliability`).

    - ``data_frames`` — expensive payloads framed for guaranteed delivery;
    - ``retransmits`` — timeout-driven resends (backoff + jitter);
    - ``acks`` — acknowledgements emitted by receivers;
    - ``dedup_drops`` — duplicate frames suppressed before the core;
    - ``give_ups`` — frames surrendered after the bounded retry budget
      (the payload is genuinely lost; regeneration takes over from here).
    """

    __slots__ = ("data_frames", "retransmits", "acks", "dedup_drops",
                 "give_ups")

    def __init__(self) -> None:
        self.data_frames = 0
        self.retransmits = 0
        self.acks = 0
        self.dedup_drops = 0
        self.give_ups = 0

    @property
    def delivery_attempts(self) -> int:
        """First transmissions plus retransmissions."""
        return self.data_frames + self.retransmits

    def as_dict(self) -> Dict[str, int]:
        """Snapshot for reporting."""
        return {
            "data_frames": self.data_frames,
            "retransmits": self.retransmits,
            "acks": self.acks,
            "dedup_drops": self.dedup_drops,
            "give_ups": self.give_ups,
        }


class WireCounters:
    """Accounting for the real-socket transport (:mod:`repro.wire`).

    - ``frames_sent`` / ``frames_received`` — codec frames that crossed a
      TCP connection (after fault injection; a dropped message never
      reaches the wire);
    - ``bytes_sent`` / ``bytes_received`` — encoded frame volume written,
      and bytes read off inbound connections;
    - ``connects`` — successful outbound connection establishments
      (initial dials and reconnects alike);
    - ``connect_failures`` — dial attempts that failed and went back to
      jittered backoff;
    - ``resets`` — established connections that broke mid-stream (any
      frames buffered in the dead socket are genuinely lost on the wire);
    - ``backpressure_drops`` — sends refused because the destination
      link's bounded queue was full (slow or unreachable peer);
    - ``codec_errors`` — inbound frames that violated framing or failed
      to decode; each one closes its connection.
    """

    __slots__ = ("frames_sent", "frames_received", "bytes_sent",
                 "bytes_received", "connects", "connect_failures",
                 "resets", "backpressure_drops", "codec_errors")

    def __init__(self) -> None:
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.connects = 0
        self.connect_failures = 0
        self.resets = 0
        self.backpressure_drops = 0
        self.codec_errors = 0

    def as_dict(self) -> Dict[str, int]:
        """Snapshot for reporting."""
        return {slot: getattr(self, slot) for slot in self.__slots__}
