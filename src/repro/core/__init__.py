"""Executable token-passing protocols — the paper's contribution.

Eight rows of the protocol table (:mod:`repro.core.protocols`), each a
stack of parts over one :class:`~repro.core.machine.TokenMachine` and a
value of the registry:

- :class:`RingCore` — circular rotation (the Figures 9/10 baseline);
- :class:`LinearSearchCore` — System Search, ring-restricted (Lemma 5);
- :class:`BinarySearchCore` — the adaptive ring + binary-search protocol;
- :class:`DirectedSearchCore`, :class:`PushCore`, :class:`HybridCore` —
  the Section 4.2/4.4 variants;
- :class:`FaultTolerantCore`, :class:`StabilizingCore` — Section 5 and
  beyond.

:class:`Cluster` is the wiring + metrics for simulation experiments.  It
resolves on first use (:mod:`repro._lazy`): the cluster imports the
simulator, whose driver imports this package, so the cores and their
runtimes load in either order.
"""

from repro._lazy import lazy_exports
from repro.core.base import ProtocolCore
from repro.core.config import GC_INVERSE, GC_NONE, GC_ROTATION, ProtocolConfig
from repro.core.protocols import REGISTRY
from repro.core.traps import Trap, TrapStore

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.cluster": ["Cluster"],
})

RingCore = REGISTRY["ring"]
LinearSearchCore = REGISTRY["linear_search"]
BinarySearchCore = REGISTRY["binary_search"]
DirectedSearchCore = REGISTRY["directed_search"]
PushCore = REGISTRY["push"]
HybridCore = REGISTRY["hybrid"]
FaultTolerantCore = REGISTRY["fault_tolerant"]
StabilizingCore = REGISTRY["stabilizing"]

__all__ = [
    "BinarySearchCore",
    "Cluster",
    "DirectedSearchCore",
    "FaultTolerantCore",
    "GC_INVERSE",
    "GC_NONE",
    "GC_ROTATION",
    "HybridCore",
    "LinearSearchCore",
    "ProtocolConfig",
    "ProtocolCore",
    "PushCore",
    "RingCore",
    "StabilizingCore",
    "Trap",
    "TrapStore",
]
