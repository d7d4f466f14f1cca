import asyncio
import time

import pytest

from child import Child, ChildFailed


def test_watchdog_kills_a_child_past_its_deadline():
    async def scenario():
        child = await Child.spawn(
            ["-c", "import time; print('{\"ready\": 1}', flush=True); "
                   "time.sleep(60)"], "sleeper", budget=1.0)
        assert (await child.read()) == {"ready": 1}
        started = time.monotonic()
        with pytest.raises(ChildFailed, match="deadline passed"):
            await child.read()
        assert child.proc.returncode is not None      # killed and reaped
        return time.monotonic() - started

    assert asyncio.run(scenario()) < 5.0


def test_traceback_on_stderr_fails_the_child_with_its_tail():
    async def scenario():
        child = await Child.spawn(
            ["-c", "print('{\"alarms\": 1}', flush=True); "
                   "raise RuntimeError('wedged')"],
            "crasher", budget=10.0)
        with pytest.raises(ChildFailed) as info:
            await child.finish()
        return str(info.value), child.last

    message, last = asyncio.run(scenario())
    assert "crasher" in message and "RuntimeError: wedged" in message
    assert last == {"alarms": 1}        # what the child knew when it failed


def test_clean_child_round_trip():
    async def scenario():
        child = await Child.spawn(
            ["-c", "import sys, json\n"
                   "for line in sys.stdin:\n"
                   "    print(json.dumps({'echo': json.loads(line)}), "
                   "flush=True)\n"
                   "    break\n"], "echo", budget=10.0)
        return await child.finish({"cmd": "hello"})

    assert asyncio.run(scenario()) == {"echo": {"cmd": "hello"}}


def test_stray_stdout_line_fails_the_child():
    async def scenario():
        child = await Child.spawn(
            ["-c", "print('not json', flush=True)"], "chatty", budget=10.0)
        with pytest.raises(ChildFailed, match="stray line on stdout"):
            await child.read()
        assert child.proc.returncode is not None

    asyncio.run(scenario())
