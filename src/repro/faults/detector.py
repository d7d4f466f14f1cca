"""Token-loss detection bookkeeping (paper Section 5).

    "If a node x with the token fails, then nothing will happen until some
    other node y needs the token, at which point it will quickly discover
    that the token holder has failed (provided a time-out based detection
    is available)."

:class:`Census` collects the who-has replies a suspicious requester
gathers from the ring and decides (a) whether the token is still alive,
(b) which nodes are unresponsive (suspects), and (c) which surviving node
should mint the replacement — the paper elects the failed holder's
neighbours; operationally that is the first *responder* after the node
with the freshest token sighting, i.e. the successor that would have
received the token next.  The time-out the quote assumes is the
supervisor's (:mod:`repro.aio.supervisor`): a multiple of each
requester's mean grant wait.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

__all__ = ["Census"]


class Census:
    """One round of who-has polling, run by a suspicious requester."""

    def __init__(self, origin: int, probe_seq: int, population: List[int]) -> None:
        self.origin = origin
        self.probe_seq = probe_seq
        #: Everyone polled (ring order), origin excluded.
        self.population = [p for p in population if p != origin]
        self._replies: Dict[int, Tuple[int, bool]] = {}

    def record(self, node: int, last_clock: int, has_token: bool) -> None:
        """Record one reply."""
        self._replies[node] = (last_clock, has_token)

    @property
    def replies(self) -> int:
        """Number of replies received so far."""
        return len(self._replies)

    def complete(self) -> bool:
        """All polled nodes replied."""
        return len(self._replies) == len(self.population)

    def token_alive(self, origin_holds: bool = False) -> bool:
        """Some responder (or the origin itself) claims the token."""
        if origin_holds:
            return True
        return any(has for (_, has) in self._replies.values())

    def suspects(self) -> Set[int]:
        """Polled nodes that did not reply within the census window."""
        return {p for p in self.population if p not in self._replies}

    def freshest(self, origin_clock: int) -> Tuple[int, int]:
        """(node, clock) of the freshest token sighting, origin included."""
        best_node, best_clock = self.origin, origin_clock
        for node, (clock, _) in self._replies.items():
            if clock > best_clock or (clock == best_clock and node < best_node):
                best_node, best_clock = node, clock
        return best_node, best_clock

    def elect_regenerator(self, ring_order: List[int], origin_clock: int) -> Optional[int]:
        """The first *responsive* node after the freshest sighting in ring
        order — the failed holder's surviving successor.  Returns None when
        nobody (not even the origin) is eligible."""
        freshest_node, _ = self.freshest(origin_clock)
        if freshest_node not in ring_order:
            return None
        start = ring_order.index(freshest_node)
        alive = set(self._replies) | {self.origin}
        for step in range(1, len(ring_order) + 1):
            candidate = ring_order[(start + step) % len(ring_order)]
            if candidate in alive:
                return candidate
        return None
