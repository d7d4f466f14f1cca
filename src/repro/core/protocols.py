"""The protocol table: search × advertise × hand-over × layers.

The paper presents Sections 4.2 and 4.4–5 as independent refinements of
one system.  This module is that matrix, written down once: a protocol is
a **row** of :data:`ROWS` naming the parts it stacks over
:class:`~repro.core.machine.TokenMachine`, and :func:`assemble` turns a
row into its core class.  Every other protocol-name list in the repo (the
registry, CLI choices, the lint and fuzz tuples, the oracle's strict-hop
set) is a view of it.

``search`` is an ordered fallback: a part whose knowledge is no good hands
the request to the next one with ``super()``, and the machine's own answer
is "the rotation will serve us".  ``handover`` is how a trapped request
then gets the token: the machine's own rule is loan-and-return, and a row
that differs names its part.  ``layers`` are listed innermost first; a
layer that needs another names it as its base (stabilization →
regeneration).  To add a row, write the part it needs without naming any
other part as a base and add one ``Row`` here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.core.machine import TokenMachine
from repro.core.parts import (
    Advertise,
    DelegatedSearch,
    DirectedSearch,
    DirectHandOver,
    DirectSearch,
    LinearSearch,
    RotationOnly,
)
from repro.core.regeneration import Regeneration
from repro.core.stabilization import Stabilization

__all__ = ["PROTOCOLS", "REGISTRY", "ROWS", "Row", "assemble"]


@dataclass(frozen=True)
class Row:
    """One protocol: the parts it stacks over the token machine."""

    search: Tuple[type, ...] = ()
    advertise: Optional[type] = None
    #: The hand-over rule, where it is not the machine's loan-and-return.
    handover: Optional[type] = None
    layers: Tuple[type, ...] = ()
    #: Attributes the row's parts read off the core (the push/hybrid
    #: differences); assembly sets them on the class.
    traits: Mapping[str, object] = field(default_factory=dict)
    #: Every TokenMsg is a circulation hop (clock advances by exactly one).
    strict_hop: bool = True
    #: Drawn by the random ``clean``/``faults`` fuzz profiles.
    fuzz_drawn: bool = True

    @property
    def parts(self) -> Tuple[type, ...]:
        """The row's parts in method-resolution order, outermost first."""
        inner = tuple(p for p in (self.advertise, self.handover) if p)
        return tuple(reversed(self.layers)) + self.search + inner

    def has(self, part: type) -> bool:
        """Does the row stack ``part``?  The capability question callers
        ask instead of comparing protocol names."""
        return part in self.parts


def assemble(protocol_name: str, parts: Tuple[type, ...],
             **traits: object) -> type:
    """A row's core class (``binary_search`` -> ``BinarySearchCore``): the
    parts, outermost first, over the machine.  The class body holds data
    only (the name and the row's traits) — every method is a part's or
    the machine's, found through the MRO on each call."""
    class_name = protocol_name.title().replace("_", "") + "Core"
    stack = " + ".join(part.__name__ for part in parts)
    return type(class_name, parts + (TokenMachine,), {
        "__doc__": f"The {protocol_name!r} row of the protocol table: "
                   f"{stack} over TokenMachine.",
        "protocol_name": protocol_name,
        **traits,
    })


ROWS: Dict[str, Row] = {
    # Rule 3' alone: no search lays a trap, so nothing is ever handed over.
    "ring": Row(handover=RotationOnly),
    # System Search's direct hand-over is "not a circulation hop".
    "linear_search": Row(search=(LinearSearch,), handover=DirectHandOver,
                         strict_hop=False),
    "binary_search": Row(search=(DelegatedSearch,)),
    "directed_search": Row(search=(DirectedSearch,)),
    "push": Row(search=(DirectSearch,), advertise=Advertise, traits={
        # It never searches, so it must start out knowing where the token is.
        "knows_initial_holder": True,
        # Any known holder is worth asking: the only fallback is the rotation.
        "fresh_means_newer": False,
        # Stamped, and remembers whom it asked: that root's re-adverts stay silent.
        "first_request_tracked": True,
        # The token in hand is the freshest knowledge of the holder there is.
        "receipt_refreshes_holder": True,
    }),
    "hybrid": Row(search=(DirectSearch, DelegatedSearch), advertise=Advertise,
                  traits={
        # Nobody knows a holder until a parked token advertises: pull till then.
        "knows_initial_holder": False,
        # An advert older than our own last sighting is stale: search instead.
        "fresh_means_newer": True,
        # Bare (stamp -1, root not remembered): a re-advert from that root asks again.
        "first_request_tracked": False,
        # Needs none: a sighting of our own already outdates every older advert.
        "receipt_refreshes_holder": False,
    }),
    "fault_tolerant": Row(search=(DelegatedSearch,), layers=(Regeneration,)),
    # Its runs start from states where no history is legal, so the hop
    # check is never asked of it; and it is replayable but not drawn, which
    # keeps the pinned random draws of the other seven where they are.
    "stabilizing": Row(search=(DelegatedSearch,),
                       layers=(Regeneration, Stabilization),
                       strict_hop=False, fuzz_drawn=False),
}

#: name -> core class; what ``Cluster.build`` and every runtime look up.
REGISTRY: Dict[str, type] = {
    name: assemble(name, row.parts, **row.traits)
    for name, row in ROWS.items()
}

#: Every registered protocol name, in registry order.
PROTOCOLS: Tuple[str, ...] = tuple(ROWS)
