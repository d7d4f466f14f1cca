"""The asyncio runtime's node driver is the one driver, :mod:`repro.sim.driver`."""

# Kept for benchmarks/ledger/serve_child.py, which wraps this name's ``_apply``.
from repro.sim.driver import NodeDriver as AioNodeDriver  # noqa: F401
