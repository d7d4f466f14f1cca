#!/usr/bin/env python3
"""Distributed mutual exclusion on the asyncio runtime, with dynamic
membership.

Twelve workers on six nodes increment a shared (unprotected!) counter
inside the token lock; the final value proves exclusion.  Then a node
joins the ring mid-flight and takes the lock, and another leaves — the
Section 5 dynamic-membership sketch in action.

Run:  python examples/distributed_mutex_asyncio.py
"""

import asyncio

from repro import AioCluster

N = 6
WORKERS_PER_NODE = 2
INCREMENTS = 5


class UnprotectedCounter:
    """A counter whose increment is a read-sleep-write race on purpose."""

    def __init__(self) -> None:
        self.value = 0

    async def racy_increment(self) -> None:
        snapshot = self.value
        await asyncio.sleep(0.001)  # wide-open race window
        self.value = snapshot + 1


async def worker(cluster: AioCluster, node: int, counter: UnprotectedCounter) -> None:
    for _ in range(INCREMENTS):
        async with cluster.lock(node, timeout=30.0):
            await counter.racy_increment()


async def main() -> None:
    cluster = AioCluster("binary_search", n=N, seed=1, delay=0.001)
    await cluster.start()
    counter = UnprotectedCounter()

    expected = N * WORKERS_PER_NODE * INCREMENTS
    tasks = [worker(cluster, node, counter)
             for node in range(N) for _ in range(WORKERS_PER_NODE)]
    await asyncio.gather(*tasks)
    print(f"counter = {counter.value} (expected {expected}) — "
          f"{'EXCLUSION HELD' if counter.value == expected else 'RACE!'}")

    # Dynamic membership: a node joins and immediately participates.
    newcomer = cluster.join()
    async with cluster.lock(newcomer, timeout=30.0):
        print(f"node {newcomer} joined "
              f"(ring v{cluster.membership.view.version}: "
              f"{cluster.membership.view.members}) and took the lock")

    # ...and one leaves; the ring heals and the lock still works.
    await cluster.leave(2)
    async with cluster.lock(4, timeout=30.0):
        print(f"node 2 left (ring v{cluster.membership.view.version}: "
              f"{cluster.membership.view.members}); node 4 locked fine")

    await cluster.stop()
    print(f"total grants: {len(cluster.grant_order)}")


if __name__ == "__main__":
    asyncio.run(main())
