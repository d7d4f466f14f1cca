"""The two clocks the network and the node driver run on, for contract
tests that hold on both (the ``clock`` fixture is in ``conftest.py``),
and an inbox for a node that has no driver."""

import asyncio
from typing import Optional

from repro.aio.virtualtime import VirtualClock, VirtualTimeDeadlock
from repro.sim.kernel import Simulator
from repro.sim.network import Network


def virtual_loop() -> asyncio.AbstractEventLoop:
    """A new event loop under virtual time, as :func:`run_virtual` makes."""
    loop = asyncio.new_event_loop()
    VirtualClock().patch_loop(loop)
    return loop


def run(clock, until: Optional[float] = None) -> None:
    """Run ``clock`` until nothing is left to do, or until time ``until``."""
    if isinstance(clock, Simulator):
        clock.run(until=until)
    elif until is not None:
        clock.run_until_complete(asyncio.sleep(until - clock.time()))
    else:
        # A virtual loop with nothing left to run raises instead of
        # blocking: that is the end of the run.
        try:
            clock.run_until_complete(clock.create_future())
        except VirtualTimeDeadlock:
            pass


def attach_inbox(network: Network, node: int) -> asyncio.Queue:
    """Attach ``node`` with a handler that queues every delivery as a
    ``(src, msg)`` pair; returns the queue."""
    inbox: asyncio.Queue = asyncio.Queue()
    network.attach(node, lambda src, msg: inbox.put_nowait((src, msg)))
    return inbox
