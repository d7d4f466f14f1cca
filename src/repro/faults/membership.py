"""Dynamic ring membership (paper Section 5, future work).

    "It is possible to modify the protocol to handle nodes that
    asynchronously leave and join the group.  The search mechanism needs
    to know those nodes that are halfway, 1/4 way, etc., around the cycle.
    An approximation may be sufficient."

:class:`RingView` is an immutable, versioned ring ordering.  Protocol
cores consult their (possibly stale) view for all geometry — successor,
half-way hop targets, distances — and, exactly as the paper anticipates,
an *approximate* view only degrades search performance, never safety,
because traps, loans and grants are keyed by node id.

:class:`MembershipService` is the authoritative registry: joins and leaves
bump the version and hand the new view to its subscribers in-process
(the cluster sets it on every core at once; no membership message
crosses the network).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.errors import MembershipError

__all__ = ["RingView", "MembershipService"]


class RingView:
    """An immutable ordered ring of node ids with a version number."""

    __slots__ = ("version", "members", "_index")

    def __init__(self, members: Sequence[int], version: int = 0) -> None:
        members = tuple(members)
        if not members:
            raise MembershipError("a ring view needs at least one member")
        if len(set(members)) != len(members):
            raise MembershipError(f"duplicate members in ring view: {members}")
        self.version = version
        self.members = members
        self._index = {node: i for i, node in enumerate(members)}

    # -- geometry ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, node: int) -> bool:
        return node in self._index

    def index(self, node: int) -> int:
        """Ring position of ``node``."""
        try:
            return self._index[node]
        except KeyError:
            raise MembershipError(f"node {node} not in ring view") from None

    def hop(self, node: int, offset: int) -> int:
        """``node⁺ᵒ`` for a signed offset."""
        return self.members[(self.index(node) + offset) % len(self.members)]

    def succ(self, node: int, k: int = 1) -> int:
        """``node⁺ᵏ``."""
        return self.hop(node, k)

    def pred(self, node: int, k: int = 1) -> int:
        """``node⁻ᵏ``."""
        return self.hop(node, -k)

    def across(self, node: int) -> int:
        """The member half-way around the ring from ``node``."""
        return self.hop(node, len(self.members) // 2)

    def distance(self, a: int, b: int) -> int:
        """Clockwise hops from ``a`` to ``b``."""
        return (self.index(b) - self.index(a)) % len(self.members)

    def majority(self) -> int:
        """Smallest strict majority of the current membership — the quorum
        a partition side must reach before regenerating a token."""
        return len(self.members) // 2 + 1

    def fingers(self, node: int) -> List[int]:
        """The logarithmic neighbour set the paper's future-work sketch
        calls for: members 1/2, 1/4, 1/8, … of the way around."""
        out: List[int] = []
        span = len(self.members) // 2
        while span >= 1:
            target = self.hop(node, span)
            if target != node and target not in out:
                out.append(target)
            span //= 2
        return out

    # -- evolution ------------------------------------------------------------------

    def with_joined(self, node: int, after: Optional[int] = None) -> "RingView":
        """A new view with ``node`` inserted (after ``after``, or at the
        end of the ring order)."""
        if node in self._index:
            raise MembershipError(f"node {node} already in ring view")
        members = list(self.members)
        if after is None:
            members.append(node)
        else:
            members.insert(self.index(after) + 1, node)
        return RingView(members, self.version + 1)

    def with_left(self, node: int) -> "RingView":
        """A new view without ``node``."""
        if node not in self._index:
            raise MembershipError(f"node {node} not in ring view")
        if len(self.members) == 1:
            raise MembershipError("cannot remove the last member")
        members = [m for m in self.members if m != node]
        return RingView(members, self.version + 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingView)
            and self.version == other.version
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.version, self.members))

    def __repr__(self) -> str:
        return f"RingView(v{self.version}, {self.members})"


class MembershipService:
    """Authoritative, versioned membership; notifies subscribers on change."""

    def __init__(self, initial_members: Sequence[int]) -> None:
        self._view = RingView(initial_members, version=0)
        self._subscribers: List[Callable[[RingView], None]] = []

    @property
    def view(self) -> RingView:
        """The current authoritative view."""
        return self._view

    def subscribe(self, callback: Callable[[RingView], None]) -> None:
        """Register for view-change notifications (called immediately with
        the current view)."""
        self._subscribers.append(callback)
        callback(self._view)

    def join(self, node: int, sponsor: Optional[int] = None) -> RingView:
        """Insert ``node`` (after ``sponsor`` when given); returns the new
        view."""
        self._view = self._view.with_joined(node, after=sponsor)
        self._notify()
        return self._view

    def leave(self, node: int) -> RingView:
        """Remove ``node``; returns the new view."""
        self._view = self._view.with_left(node)
        self._notify()
        return self._view

    def _notify(self) -> None:
        for callback in self._subscribers:
            callback(self._view)
