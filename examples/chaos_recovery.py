#!/usr/bin/env python3
"""Supervised crash recovery on the asyncio runtime (virtual time).

A five-node fault-tolerant cluster runs under the full robustness stack:
reliable delivery (ARQ with sequence numbers, dedup and bounded retries)
over a lossy transport, a supervisor that hears each node's liveness in
the frames the ring already sends (a node beacons only when nothing of
it was heard lately), and the invariant oracle watching token
conservation throughout.

The scenario: the idle token parks at node 4, a client pins it on
node 2 (node 4 *lends* it), and we crash node 2 while it holds the
loan.  The token is gone — but node 4 wants it back for its own waiting
request, so recovery is demand-driven: the lender's reclaim timer fires
and node 4 re-mints the token under a higher epoch, which fences any
copy that might still surface.  (Had node 2 owned the token outright,
node 4's suspect timer would have fired instead: a who-has census finds
no holder, reaches quorum, and a replacement is minted — ~1.7 s here,
the 160-delay floor plus the census window.)  The supervisor meanwhile
suspects node 2 once nothing of it has arrived for 92 delays, restarts
it from its last state snapshot (clock, epoch, last visit — never token
ownership), and the reborn node rejoins the rotation.  The whole run executes in *virtual*
time: deterministic, instant, bit-exact across machines.

Run:  python examples/chaos_recovery.py
"""

import asyncio

from repro.aio import (
    AioCluster,
    ClusterSupervisor,
    ReliabilityConfig,
    run_virtual,
)
from repro.fuzz import InvariantOracle
from repro.wire.smoke import service_config

N = 5
DELAY = 0.01
SEED = 7


async def main() -> None:
    loop = asyncio.get_running_loop()
    # service_config: rotation trap GC, quorum-gated regeneration, a
    # suspect timer learned from each node's own grant waits (never below
    # 160 delays), and an idle token that parks for 10 delays between
    # hops.  Node 4 is granted ~0.7 s after the crash below; while the
    # suspect timer was learned from token sightings instead, parking
    # stretched it and the same grant came after ~3.2 s.
    cluster = AioCluster(
        "fault_tolerant", N, seed=SEED,
        config=service_config("fault_tolerant"),
        delay=DELAY, loss_rate=0.05,
        reliability=ReliabilityConfig(),
    )
    oracle = InvariantOracle(cluster, protocol="fault_tolerant")
    oracle.attach()
    # Default policy: suspect after 8·ln 10·5 = 92.1 silent delays,
    # restart after 20.
    supervisor = ClusterSupervisor(cluster)
    await cluster.start()
    await supervisor.start()

    print(f"{N} nodes up: lossy transport (5%), ARQ reliability, "
          f"traffic-heard supervision")

    # Let the ring run for a second first.
    await asyncio.sleep(1.0)

    # Pin the token on node 2, then line up a competing request on
    # node 4: recovery is demand-driven, and this request is the demand.
    await cluster.acquire(2, timeout=20.0)
    waiter = asyncio.create_task(cluster.acquire(4, timeout=20.0))
    await asyncio.sleep(5 * DELAY)

    # Kill node 2 while it holds the token.  The token dies with it.
    t_crash = loop.time()
    print(f"[t={t_crash:6.2f}] node 2 holds the token -- crashing it")
    cluster.crash(2)

    await waiter
    t_grant = loop.time()
    print(f"[t={t_grant:6.2f}] node 4 granted a regenerated token "
          f"(epoch {cluster.drivers[4].core.epoch}, "
          f"{t_grant - t_crash:.2f}s after the crash)")
    cluster.release(4)

    # Give the supervisor room to restart node 2 and clear suspicion.
    await asyncio.sleep(1.0)
    status = supervisor.status()[2]
    print(f"[t={loop.time():6.2f}] node 2: crashed={status['crashed']} "
          f"suspected={status['suspected']} restarts={status['restarts']}")

    # The reborn node is a full citizen again: it can take the lock.
    await cluster.acquire(2, timeout=20.0)
    print(f"[t={loop.time():6.2f}] reborn node 2 granted the token")
    cluster.release(2)

    await supervisor.stop()
    await cluster.stop()

    print()
    for event in supervisor.events:
        print(f"  supervisor t={event['t']:6.2f} node {event['node']}: "
              f"{event['event']}")
    rc = cluster.reliability_counters
    print(f"\nreliability: {rc.data_frames} frames, {rc.retransmits} "
          f"retransmits, {rc.dedup_drops} dedup drops, {rc.give_ups} give-ups")
    print("oracle violations:", "none" if oracle.violation is None
          else oracle.violation)
    assert oracle.violation is None


if __name__ == "__main__":
    run_virtual(main())
