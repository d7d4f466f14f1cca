import asyncio
from types import SimpleNamespace

from loadgen import LoadResult, LoadSpec, MutexOracle, _cycle


def test_oracle_counts_overlap():
    oracle = MutexOracle()
    oracle.granted()
    oracle.releasing()
    oracle.granted()
    assert oracle.violations == 0
    oracle.granted()                 # second grant while one is out
    assert oracle.violations == 1


class _DoubleGrantingService:
    """A broken lock service: every acquire is granted at once."""

    async def acquire(self, timeout=0.0):
        return SimpleNamespace(ok=True, node=0, error="")

    async def release(self, node):
        return SimpleNamespace(ok=True, error="")


def test_cycle_trips_the_oracle_on_a_fabricated_double_grant():
    async def scenario():
        result = LoadResult()
        service = _DoubleGrantingService()
        await asyncio.gather(_cycle(service, LoadSpec(), result),
                             _cycle(service, LoadSpec(), result))
        return result

    result = asyncio.run(scenario())
    assert result.oracle.violations == 1
    assert result.attempted == 2 and result.failed == 0
    assert len(result.grants) == 2 and len(result.cycles) == 2


def test_cycle_counts_refusals_as_failed():
    class Refusing:
        async def acquire(self, timeout=0.0):
            return SimpleNamespace(ok=False, node=-1, error="timeout")

    result = LoadResult()
    asyncio.run(_cycle(Refusing(), LoadSpec(), result))
    assert (result.attempted, result.failed) == (1, 1)
    assert result.oracle.violations == 0 and not result.grants


def test_window_selects_grants_by_completion_time():
    result = LoadResult(window=(10.0, 20.0))
    result.grants = [(9.9, 0.5), (10.0, 0.1), (19.9, 0.2), (20.0, 0.3)]
    result.cycles = [9.0, 15.0, 21.0]
    assert result.in_window() == [0.1, 0.2]
    assert result.cycles_in_window() == 1
