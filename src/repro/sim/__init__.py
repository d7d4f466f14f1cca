"""Discrete-event simulation substrate: kernel, network, node driver.
The network and the driver take any clock, so the asyncio runtime runs
the same two classes on its event loop.

:class:`NodeDriver` resolves on first use (:mod:`repro._lazy`): the
driver imports the protocol cores, so the kernel and the network load
without them."""

from repro._lazy import lazy_exports
from repro.sim.kernel import Event, Simulator
from repro.sim.network import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    Network,
    UniformDelay,
)

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.driver": ["NodeDriver"],
})

__all__ = [
    "ConstantDelay",
    "DelayModel",
    "Event",
    "ExponentialDelay",
    "Network",
    "NodeDriver",
    "Simulator",
    "UniformDelay",
]
