"""Keyed arrival processes for the multi-token fabric.

Where :mod:`repro.workload.generators` decides *when nodes become ready*
on one cluster, these generators decide *which key* traffic lands on — the
realistic regime for a lock service is heavy skew (a few hot keys, a long
cold tail), modelled here with Zipf-distributed key popularity.

Two loop disciplines:

- :class:`ZipfKeyedWorkload` — **open loop**: arrivals are a Poisson
  process whose rate does not react to grant latency (the honest way to
  measure responsiveness under load; queueing shows up as waiting, and
  arrivals on a node already waiting are dropped by the lane exactly like
  ``Cluster.request``).
- :class:`ClosedLoopKeyedWorkload` — **closed loop**: a fixed population
  of clients, each pinned to a Zipf-drawn key, cycling request → grant →
  think.  Offered load self-throttles to the fabric's grant throughput.

All draws flow from the *fabric* RNG (never a lane RNG), so keyed traffic
cannot perturb per-key determinism.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Tuple

from repro.errors import ConfigError

__all__ = ["KeyedWorkload", "ZipfKeyedWorkload", "ClosedLoopKeyedWorkload",
           "zipf_cdf"]


def zipf_cdf(n_keys: int, s: float) -> List[float]:
    """Cumulative Zipf distribution over ``n_keys`` ranks.

    Rank ``k`` (0-based) gets probability proportional to ``1/(k+1)**s``;
    draw a key with ``bisect_left(cdf, rng.random())``.
    """
    if n_keys < 1:
        raise ConfigError(f"n_keys must be >= 1, got {n_keys}")
    if s < 0:
        raise ConfigError(f"zipf exponent must be >= 0, got {s}")
    weights = [1.0 / (k + 1) ** s for k in range(n_keys)]
    total = sum(weights)
    cdf: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    cdf[-1] = 1.0  # guard against float drift at the top
    return cdf


class KeyedWorkload:
    """Base class; ``bind`` wires the workload to a fabric."""

    fabric = None

    def bind(self, fabric) -> None:
        if len(fabric) == 0:
            raise ConfigError("cannot bind a keyed workload to an empty fabric")
        self.fabric = fabric
        self.on_bind()

    def on_bind(self) -> None:
        """Subclass hook: draw static state, schedule the first events."""

    def on_grant(self, key_id: int, node: int, req_seq: int, now: float) -> None:
        """Fabric grant fan-out (closed-loop generators react here)."""


class ZipfKeyedWorkload(KeyedWorkload):
    """Open-loop Poisson arrivals over Zipf-popular keys.

    ``mean_interval`` is the fabric-wide mean gap between arrivals; each
    arrival draws a key rank from Zipf(``s``) and a node on that lane —
    the key's *home node* (``key_id % n``, modelling client affinity) with
    probability ``home_bias``, else uniform.  ``start`` delays the first
    arrival.
    """

    def __init__(self, mean_interval: float, s: float = 1.1,
                 home_bias: float = 0.7, start: float = 0.0) -> None:
        if mean_interval <= 0:
            raise ConfigError(f"mean_interval must be > 0, got {mean_interval}")
        if not 0.0 <= home_bias <= 1.0:
            raise ConfigError(f"home_bias must be in [0, 1], got {home_bias}")
        self.mean_interval = mean_interval
        self.s = s
        self.home_bias = home_bias
        self.start = start
        self._cdf: List[float] = []
        self._ns: List[int] = []

    def on_bind(self) -> None:
        fabric = self.fabric
        self._cdf = zipf_cdf(len(fabric), self.s)
        self._ns = [lane.n for lane in fabric.lanes()]
        # Hot loop: pre-bind everything the per-arrival tick touches.
        rng = fabric.rng
        self._random = rng.random
        self._expovariate = rng.expovariate
        self._randrange = rng.randrange
        self._request_id = fabric.request_id
        self._post = fabric.post
        self._rate = 1.0 / self.mean_interval
        gap = rng.expovariate(self._rate)
        fabric.post(self.start + gap, self._tick)

    def _tick(self) -> None:
        random = self._random
        kid = bisect_left(self._cdf, random())
        n = self._ns[kid]
        if random() < self.home_bias:
            node = kid % n
        else:
            node = self._randrange(n)
        self._request_id(kid, node)
        self._post(self._expovariate(self._rate), self._tick)


class ClosedLoopKeyedWorkload(KeyedWorkload):
    """A fixed client population cycling request → grant → think.

    ``clients`` clients each draw a Zipf(``s``) key and a home node once
    at bind.  Think times are exponential with mean ``think_time``.  Lanes
    drop arrivals on an already-waiting node, so clients sharing a
    ``(key, node)`` seat coalesce: a grant serves one of them and the
    remainder re-request immediately (their queueing was real, their
    protocol request was merged).
    """

    def __init__(self, clients: int = 16, think_time: float = 1.0,
                 s: float = 1.1) -> None:
        if clients < 1:
            raise ConfigError(f"clients must be >= 1, got {clients}")
        if think_time <= 0:
            raise ConfigError(f"think_time must be > 0, got {think_time}")
        self.clients = clients
        self.think_time = think_time
        self.s = s
        self._pending: Dict[Tuple[int, int], int] = {}

    def on_bind(self) -> None:
        fabric = self.fabric
        rng = fabric.rng
        cdf = zipf_cdf(len(fabric), self.s)
        ns = [lane.n for lane in fabric.lanes()]
        for _ in range(self.clients):
            kid = bisect_left(cdf, rng.random())
            node = kid % ns[kid] if rng.random() < 0.5 else rng.randrange(ns[kid])
            fabric.post(rng.expovariate(1.0 / self.think_time),
                        self._request, kid, node)

    def _request(self, kid: int, node: int) -> None:
        seat = (kid, node)
        self._pending[seat] = self._pending.get(seat, 0) + 1
        self.fabric.request_id(kid, node)

    def on_grant(self, key_id: int, node: int, req_seq: int, now: float) -> None:
        seat = (key_id, node)
        waiting = self._pending.get(seat, 0)
        if waiting == 0:
            return  # grant for traffic some other workload offered
        fabric = self.fabric
        self._pending[seat] = waiting - 1
        fabric.post(fabric.rng.expovariate(1.0 / self.think_time),
                    self._request, key_id, node)
        if waiting > 1:
            # Coalesced seat-mates: put the merged request back on the wire.
            fabric.post(0.0, fabric.request_id, key_id, node)
