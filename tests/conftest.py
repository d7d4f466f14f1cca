import pytest

from repro.sim.kernel import Simulator
from tests.clocks import virtual_loop


@pytest.fixture
def clock(request):
    """A :class:`Simulator`, or a virtual-time event loop for a test class
    that sets ``on_loop = True``."""
    if not getattr(request.cls, "on_loop", False):
        yield Simulator()
        return
    loop = virtual_loop()
    yield loop
    loop.close()
