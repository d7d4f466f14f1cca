"""repro — a full reproduction of Englert, Rudolph & Shvartsman,
"Developing and Refining an Adaptive Token-Passing Strategy" (2001).

Three layers:

1. :mod:`repro.trs` + :mod:`repro.specs` — the paper's methodology: the
   six protocol specifications as executable Term Rewriting Systems, with
   machine-checked safety (prefix property, token uniqueness) and
   refinement mappings (Lemmas 1-3, Theorem 1).
2. :mod:`repro.core` + :mod:`repro.sim` — the executable protocols
   (the eight rows of the protocol table over one token machine: ring
   baseline, linear search, the adaptive binary search and its directed /
   push / hybrid / fault-tolerant / stabilizing variants) over a deterministic
   discrete-event simulator, with :mod:`repro.faults` adding the
   who-has census, the corruption fault model and dynamic membership.
3. :mod:`repro.apps` + :mod:`repro.aio` — mutual exclusion, totally
   ordered broadcast, and round-robin scheduling, runnable both in
   simulation and on asyncio.

Quickstart::

    from repro import Cluster, FixedRateWorkload

    cluster = Cluster.build("binary_search", n=100, seed=1)
    cluster.add_workload(FixedRateWorkload(mean_interval=10.0))
    cluster.run(rounds=1000)
    print(cluster.responsiveness.average_responsiveness())

The names below resolve on first use (:mod:`repro._lazy`): importing
:mod:`repro` loads none of the subpackages, and ``from repro import
Cluster`` loads the simulator but not the asyncio runtime, the TRS
engine or the fuzzer.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.aio": ["AioCluster"],
    "repro.apps": ["RoundRobinScheduler", "SimMutex", "TotalOrderBroadcast"],
    "repro.core": [
        "BinarySearchCore",
        "Cluster",
        "DirectedSearchCore",
        "FaultTolerantCore",
        "HybridCore",
        "LinearSearchCore",
        "ProtocolConfig",
        "PushCore",
        "RingCore",
        "StabilizingCore",
    ],
    "repro.fabric": ["TokenFabric"],
    "repro.faults": ["MembershipService", "RingView"],
    "repro.metrics": [
        "FairnessAuditor",
        "KeyedMetricsRegistry",
        "MessageCounters",
        "ResponsivenessTracker",
    ],
    "repro.workload": [
        "BurstyWorkload",
        "ClosedLoopKeyedWorkload",
        "FixedRateWorkload",
        "HotspotWorkload",
        "SaturatedWorkload",
        "SingleShotWorkload",
        "UniformIntervalWorkload",
        "ZipfKeyedWorkload",
    ],
})

__version__ = "1.0.0"

__all__ = [
    "AioCluster",
    "BinarySearchCore",
    "BurstyWorkload",
    "ClosedLoopKeyedWorkload",
    "Cluster",
    "DirectedSearchCore",
    "FairnessAuditor",
    "FaultTolerantCore",
    "FixedRateWorkload",
    "HotspotWorkload",
    "HybridCore",
    "KeyedMetricsRegistry",
    "LinearSearchCore",
    "MembershipService",
    "MessageCounters",
    "ProtocolConfig",
    "PushCore",
    "ResponsivenessTracker",
    "RingCore",
    "RingView",
    "TokenFabric",
    "RoundRobinScheduler",
    "SaturatedWorkload",
    "SimMutex",
    "SingleShotWorkload",
    "StabilizingCore",
    "TotalOrderBroadcast",
    "UniformIntervalWorkload",
    "__version__",
]
