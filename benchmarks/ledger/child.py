"""Child processes under a watchdog.

Every program the harness measures runs in a fresh interpreter and talks
JSON lines on stdin/stdout.  A child has a hard deadline; when it passes,
or the child's stderr shows a ``Traceback`` or ``LintViolation``, the
child is killed and :class:`ChildFailed` carries its stderr tail — the
harness never waits on a wedged server.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import sys
import time
from typing import Any, Dict, List, Optional

__all__ = ["Child", "ChildFailed", "ROOT", "LEDGER", "child_env"]

LEDGER = pathlib.Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]

_BAD_STDERR = ("Traceback", "LintViolation")


class ChildFailed(RuntimeError):
    """A child missed its deadline, died, or wrote an error to stderr."""


def child_env() -> Dict[str, str]:
    """The child's environment: the checkout's ``src`` importable, the
    sanitizer at its library default, hash order fixed so that the same
    seed gives the same run."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One measured subprocess with a JSON-lines control channel."""

    def __init__(self, proc: asyncio.subprocess.Process, label: str,
                 deadline: float) -> None:
        self.proc = proc
        self.label = label
        self.deadline = deadline
        self.spawned_at = 0.0
        #: The last document the child sent: what it knew when it failed.
        self.last: Dict[str, Any] = {}
        self._stderr: List[str] = []
        self._stderr_task = asyncio.get_running_loop().create_task(
            self._drain_stderr())

    @classmethod
    async def spawn(cls, argv: List[str], label: str,
                    budget: float) -> "Child":
        """Start ``python <argv>`` with ``budget`` seconds to live."""
        spawned_at = time.perf_counter()
        proc = await asyncio.create_subprocess_exec(
            sys.executable, *argv,
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE, env=child_env(), cwd=str(ROOT),
            limit=1 << 26)
        child = cls(proc, label, time.monotonic() + budget)
        child.spawned_at = spawned_at
        return child

    async def _drain_stderr(self) -> None:
        assert self.proc.stderr is not None
        while True:
            line = await self.proc.stderr.readline()
            if not line:
                return
            self._stderr.append(line.decode("utf-8", "replace").rstrip())

    def stderr_tail(self, lines: int = 15) -> str:
        return "\n".join(self._stderr[-lines:])

    def _stderr_is_bad(self) -> bool:
        return any(marker in line for line in self._stderr
                   for marker in _BAD_STDERR)

    async def fail(self, why: str) -> ChildFailed:
        """Kill the child; the failure to raise, with its stderr tail."""
        await self.kill()
        return ChildFailed(
            f"{self.label}: {why}\n--- stderr tail ---\n{self.stderr_tail()}")

    async def read(self) -> Dict[str, Any]:
        """Next JSON line from the child, within its deadline."""
        assert self.proc.stdout is not None
        remaining = self.deadline - time.monotonic()
        try:
            line = await asyncio.wait_for(
                self.proc.stdout.readline(), max(remaining, 0.0))
        except asyncio.TimeoutError:
            raise await self.fail("deadline passed") from None
        try:
            if line:
                self.last = json.loads(line)
        except ValueError:
            raise await self.fail(
                f"stray line on stdout: {line[:200]!r}") from None
        if self._stderr_is_bad():
            raise await self.fail("error on stderr")
        if not line:
            raise await self.fail(
                f"exited early (code {self.proc.returncode})")
        return self.last

    async def request(self, command: Dict[str, Any]) -> Dict[str, Any]:
        """Send one command, return the child's reply line."""
        assert self.proc.stdin is not None
        self.proc.stdin.write((json.dumps(command) + "\n").encode())
        await self.proc.stdin.drain()
        return await self.read()

    async def finish(self, command: Optional[Dict[str, Any]] = None,
                     ) -> Dict[str, Any]:
        """Send the last command (if any), read the final line, and
        require a clean exit: code 0, nothing bad on stderr."""
        final = await (self.request(command) if command is not None
                       else self.read())
        remaining = self.deadline - time.monotonic()
        try:
            code = await asyncio.wait_for(self.proc.wait(),
                                          max(remaining, 0.0))
        except asyncio.TimeoutError:
            raise await self.fail("did not exit after its last line") from None
        await self._stderr_task
        if code != 0 or self._stderr_is_bad():
            raise await self.fail(f"exit code {code}")
        return final

    async def kill(self) -> None:
        """Stop the child now and wait until it has ended."""
        if self.proc.returncode is None:
            try:
                self.proc.kill()
            except ProcessLookupError:
                pass
        await self.proc.wait()
        try:
            await asyncio.wait_for(self._stderr_task, 1.0)
        except asyncio.TimeoutError:
            self._stderr_task.cancel()
