"""Trap storage with the paper's garbage-collection policies (Section 4.4).

A *trap* remembers that some requester wants the token.  Traps are stored
and served in FIFO order — the Theorem 2/3 requirement that makes
responsiveness O(log N) and fairness log N.

Stale traps (the requester was already served through another path) are the
storage/overhead problem the paper's clean-up algorithms address:

- **rotation clean-up** — a trap that survives a full token circulation is
  provably obsolete (the rotating token visited the requester in between),
  so traps expire once the token's visit clock has advanced ``n`` past the
  clock at which the trap was set; additionally the token piggybacks the
  most recent serves so matching traps are dropped early.
- **inverse clean-up** — handled in the core: loans retrace the gimme trail
  and clear traps en route (see :class:`repro.core.machine.TokenMachine`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Optional, Tuple

__all__ = ["Trap", "TrapStore"]


class Trap:
    """One pending trap."""

    __slots__ = ("requester", "req_seq", "set_clock", "trail")

    def __init__(self, requester: int, req_seq: int, set_clock: int,
                 trail: Tuple[int, ...] = ()) -> None:
        self.requester = requester
        self.req_seq = req_seq
        self.set_clock = set_clock
        self.trail = trail

    def __repr__(self) -> str:
        return f"Trap(z={self.requester}, seq={self.req_seq})"


class TrapStore:
    """FIFO trap queue with deduplication and staleness GC."""

    def __init__(self) -> None:
        self._queue: Deque[Trap] = deque()
        self._latest_seq: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self):
        return iter(self._queue)

    def add(self, requester: int, req_seq: int, set_clock: int,
            trail: Tuple[int, ...] = ()) -> bool:
        """Add a trap; a newer request from the same node supersedes the
        older trap in place (FIFO position preserved).  Returns True when
        the store changed."""
        known = self._latest_seq.get(requester)
        if known is not None and known >= req_seq:
            return False
        self._latest_seq[requester] = req_seq
        for t in self._queue:
            if t.requester == requester:
                t.req_seq = req_seq
                t.set_clock = set_clock
                t.trail = trail
                return True
        self._queue.append(Trap(requester, req_seq, set_clock, trail))
        return True

    def drop_served(self, served: "Iterable[Tuple[int, int]] | Dict[int, int]") -> int:
        """Drop traps whose (requester, seq) is already served; returns the
        number removed.  ``served`` may be the usual (z, seq) iterable or a
        pre-built ``{z: max_seq}`` mapping (hot-path callers keep one)."""
        queue = self._queue
        if not queue:
            return 0
        if isinstance(served, dict):
            served_map = served
        else:
            served_map = {}
            for z, seq in served:
                served_map[z] = max(served_map.get(z, -1), seq)
        get = served_map.get
        for t in queue:
            if get(t.requester, -1) >= t.req_seq:
                break
        else:
            return 0  # nothing to drop: skip the rebuild
        before = len(queue)
        self._queue = deque(
            t for t in queue if get(t.requester, -1) < t.req_seq
        )
        return before - len(self._queue)

    def expire(self, current_clock: int, n: int) -> int:
        """Rotation GC: drop traps set at least one full circulation ago;
        returns the number removed."""
        queue = self._queue
        if not queue:
            return 0
        stale = current_clock - n
        for t in queue:
            if t.set_clock <= stale:
                break
        else:
            return 0  # nothing expired: skip the rebuild
        before = len(queue)
        self._queue = deque(
            t for t in queue if current_clock - t.set_clock < n
        )
        return before - len(self._queue)

    def pop(self) -> Optional[Trap]:
        """Remove and return the oldest trap (FIFO), or None when empty."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def peek(self) -> Optional[Trap]:
        """Return the oldest trap without removing it."""
        return self._queue[0] if self._queue else None

    def remove_for(self, requester: int) -> int:
        """Drop every trap for ``requester`` (inverse clean-up); returns
        the number removed."""
        if not self._queue:
            return 0
        before = len(self._queue)
        self._queue = deque(t for t in self._queue if t.requester != requester)
        return before - len(self._queue)
