"""Executing cases: one runner, four backends, one result.

``run_case`` is the single entry point the run loop, replay, the shrinker
and the convergence measurement use: it validates a :class:`~repro.fuzz.case.FuzzCase`,
asks :func:`skip_reason` whether the case's backend can run it, and
dispatches —

- ``des``: a DES cluster (impl-level), a multi-lane fabric, or a sanitized
  random reduction (spec-level), run to the case's budget;
- ``fast``: the array-compiled :class:`~repro.fastsim.FastCluster`, whose
  whole value is replaying the ``des`` run bit-for-bit;
- ``aio`` and ``wire``: **one** asyncio coroutine — the supervised runtime
  (ARQ reliability, phi-accrual supervision, restart) on the in-memory
  transport under a virtual clock, or on loopback TCP in wall-clock time,
  there optionally fronted by the lock service and a closed-loop load —

always with the invariant oracle attached, and always into one
:class:`FuzzResult`: outcome, violation details (an oracle breach, a dead
node, an unrecovered acquire or a missed service level alike), and on
the deterministic backends a CRC32 checksum over the full logical send
stream, so two runs of the same case must produce identical results, byte
for byte.  An unsupported (case, backend) pair comes back ``skipped`` with
the reason — never an exception, never a silent pass.
"""

from __future__ import annotations

import asyncio
import inspect
import random
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.aio.cluster import AioCluster
from repro.aio.reliability import ReliabilityConfig
from repro.aio.supervisor import ClusterSupervisor
from repro.aio.virtualtime import run_virtual
from repro.core.cluster import Cluster
from repro.core.config import ProtocolConfig
from repro.core.protocols import ROWS
from repro.core.stabilization import Stabilization
from repro.errors import ConfigError, ProtocolError, SimulationError
from repro.faults.corruption import corrupt_core
from repro.fuzz.case import (
    FAULT_OPS,
    FuzzCase,
    build_delay,
    generate_case,
    hop_delay,
)
from repro.fuzz.oracle import (
    InvariantOracle,
    OracleViolation,
    check_spec_reduction,
    convergence,
    safety,
)
from repro.fuzz.rng import derive_seed
from repro.lint import LintViolation
from repro.lint.rewriter import SanitizedRewriter

__all__ = ["FuzzResult", "run_case", "skip_reason", "fuzz_run"]

#: Exceptions that count as *findings* (safety violations) rather than
#: harness errors.
_VIOLATIONS = (OracleViolation, LintViolation, ProtocolError, SimulationError)

#: A ``wire`` run spends wall-clock time, so case time is compressed until
#: one message delay costs at most this many seconds (a 1 ms smoke hop runs
#: as written; an 800-unit sim-shaped horizon takes a second or two).
_WIRE_HOP = 0.002

#: Per-acquire timeout of a closed-loop load, in wall-clock seconds.
_ACQUIRE_TIMEOUT = 30.0


@dataclass
class FuzzResult:
    """Outcome of one case on one backend."""

    ok: bool
    checksum: str
    events: int = 0
    grants: int = 0
    sends: int = 0
    violation: Optional[Dict] = None
    #: Convergence-verdict metrics (stabilize runs only): episodes,
    #: stabilization_time, stabilization_p99, samples, injections, bound.
    stabilization: Optional[Dict] = None
    #: Why the case's backend could not run it.  A skipped run proved
    #: nothing, so it is not ``ok`` — and not a violation either.
    skipped: Optional[str] = None
    #: ``aio``/``wire`` only: restarts, give_ups, max_wait, duration,
    #: faults_applied / faults_not_reached, and for a load run the
    #: ``load`` report and the ``wire``/``arq`` counters.
    runtime: Optional[Dict] = None

    def outcome(self) -> Dict:
        """The stable portion recorded in corpus files.  A wall-clock
        (``wire``) run has no checksum to pin: its outcome is the verdict."""
        doc: Dict = {"ok": self.ok}
        if self.skipped is not None:
            doc["skipped"] = self.skipped
        elif self.checksum:
            doc["checksum"] = self.checksum
            doc["events"] = self.events
        if self.violation is not None:
            doc["invariant"] = self.violation.get("invariant")
        if self.stabilization is not None:
            doc["episodes"] = self.stabilization.get("episodes")
        return doc

    def matches(self, recorded: Dict) -> bool:
        """Does this run reproduce a corpus file's recorded outcome?"""
        mine = self.outcome()
        return all(mine.get(k) == v for k, v in recorded.items())


def _violation_dict(exc: BaseException) -> Dict:
    doc: Dict = {"type": type(exc).__name__, "detail": str(exc)}
    if isinstance(exc, OracleViolation):
        doc["invariant"] = exc.invariant
        doc["context"] = {k: repr(v) for k, v in exc.context.items()}
    elif isinstance(exc, LintViolation):
        doc["invariant"] = getattr(exc, "invariant", "sanitizer")
    else:
        doc["invariant"] = type(exc).__name__
    return doc


class _SendDigest:
    """CRC32 over a logical send stream — ``time|[lane|]src|dst|message``
    per send, any field drift changes it — plus the send count."""

    def __init__(self, clock: Callable[[], float], stamp: str) -> None:
        self.clock = clock
        self.stamp = stamp          # timestamp format: "%.6f" sim, "%.9f" aio
        self.crc = 0
        self.sends = 0

    def hook(self, lane: str = "") -> Callable[[int, int, object], None]:
        def on_send(src: int, dst: int, msg: object) -> None:
            self.sends += 1
            record = f"{self.stamp % self.clock()}|{lane}{src}|{dst}|{msg!r}"
            self.crc = zlib.crc32(record.encode("utf-8"), self.crc)
        return on_send

    @property
    def checksum(self) -> str:
        return f"{self.crc:08x}"


def _corrupting(case: FuzzCase) -> bool:
    return any(f["op"] == "corrupt" for f in case.faults)


def _stabilizing(case: FuzzCase) -> bool:
    return ROWS[case.protocol].has(Stabilization)


def _converging(case: FuzzCase) -> bool:
    """A stabilize run = the stabilizing core, or any case that injects
    arbitrary-state corruption.  The transition sanitizer and the safety
    verdict both presume legal histories, so they give way to the
    convergence verdict (closure + bounded convergence)."""
    return _stabilizing(case) or _corrupting(case)


def _links(fault: Dict) -> List[Tuple[int, int]]:
    """The node pairs a partition fault severs, in either spelling."""
    if "group_a" in fault:
        return [(a, b) for a in fault["group_a"] for b in fault["group_b"]]
    return [(fault["a"], fault["b"])]


# ---------------------------------------------------------------------------
# des: impl-level and fabric-level execution
# ---------------------------------------------------------------------------

class _TokenLossInjector:
    """Swallows the next in-flight token per armed ``token_loss`` fault."""

    def __init__(self) -> None:
        self.armed = 0

    def arm(self) -> None:
        self.armed += 1

    def __call__(self, src: int, dst: int, msg: object) -> bool:
        if self.armed:
            self.armed -= 1
            return True
        return False


#: How a simulated cluster — a whole run's, or one fabric lane's —
#: applies each fault op :data:`~repro.fuzz.case.FAULT_OPS` grants it.
_SIM_FAULTS: Dict[str, Callable[[Cluster, _TokenLossInjector, Dict], object]] = {
    "crash": lambda c, inj, f: c.drivers[f["a"]].crash(),
    "recover": lambda c, inj, f: c.drivers[f["a"]].recover(),
    "token_loss": lambda c, inj, f: inj.arm(),
    "partition": lambda c, inj, f: [c.network.partition(a, b)
                                    for a, b in _links(f)],
    "heal": lambda c, inj, f: c.network.heal(f["a"], f["b"]),
    "heal_all": lambda c, inj, f: c.network.heal_all(),
    "corrupt": lambda c, inj, f: corrupt_core(
        c.drivers[f["a"]].core, f["what"], f["arg"], c.n),
}


def _sim_fault_applier(cluster: Cluster,
                       oracle: InvariantOracle) -> Callable[[Dict], None]:
    """``fire(fault)`` for one simulated cluster.  Under the convergence
    verdict every fault also opens a stabilization episode — crashes and
    token losses create legitimate transient illegitimacy just like
    corruption does."""
    injector = _TokenLossInjector()
    oracle.drop_token = injector

    def fire(fault: Dict) -> None:
        _SIM_FAULTS[fault["op"]](cluster, injector, fault)
        if oracle.verdict.converging:
            oracle.inject(cluster.sim.now)

    return fire


def _run_impl(case: FuzzCase) -> FuzzResult:
    # Imported lazily: the repro.stabilize package init pulls this module
    # back in through its measurement helper.
    from repro.stabilize.bound import convergence_bound, delay_ceiling

    config = ProtocolConfig(**case.config)
    converging = _converging(case)
    cluster = Cluster.build(
        case.protocol, case.n,
        seed=derive_seed(case.seed, "net"),
        config=config,
        delay=build_delay(case.delay),
        loss_rate=case.loss_rate,
        dup_rate=case.dup_rate,
        sanitize=not converging,
    )
    if converging:
        verdict = convergence(convergence_bound(
            config, case.n, delay_ceiling(case.delay)))
    else:
        # Fault-free schedules cannot destroy the token: demand exactly one.
        verdict = safety(strict=not case.faults)
    oracle = InvariantOracle(cluster, protocol=case.protocol, verdict=verdict)
    oracle.attach()

    digest = _SendDigest(lambda: cluster.sim.now, "%.6f")
    cluster.network.on_send.append(digest.hook())
    for time, node in case.requests:
        cluster.sim.schedule_at(time, cluster.request, node)
    fire = _sim_fault_applier(cluster, oracle)
    for fault in case.faults:
        cluster.sim.schedule_at(float(fault["t"]), fire, fault)

    violation: Optional[Dict] = None
    try:
        cluster.run(until=case.horizon, max_events=case.max_events)
        if converging:
            oracle.finalize(cluster.sim.now)
    except _VIOLATIONS as exc:
        violation = _violation_dict(exc)
    return FuzzResult(
        ok=violation is None,
        checksum=digest.checksum,
        events=cluster.sim.executed_total,
        grants=cluster.responsiveness.grants(),
        sends=digest.sends,
        violation=violation,
        stabilization=oracle.stabilization() if converging else None,
    )


def _run_fabric(case: FuzzCase) -> FuzzResult:
    """Run a multi-key fabric case: every lane gets its own invariant
    oracle, faults strike individual lanes, and a final per-key token
    census rejects any duplication the delivery-time oracles missed.

    The checksum folds the *global* send stream (lane index included), so
    it also pins the cross-lane interleaving the batched scheduler
    produces — a determinism regression in the fabric itself shows up
    even when every lane is individually sound."""
    from repro.fabric import TokenFabric

    fabric = TokenFabric(seed=derive_seed(case.seed, "fabric"),
                         sanitize=True)
    sim = fabric.sim
    digest = _SendDigest(lambda: sim.now, "%.6f")

    fire: List[Callable[[Dict], None]] = []
    for i, spec in enumerate(case.keys):
        protocol = spec.get("protocol", "binary_search")
        lane = fabric.add_key(
            spec["key"], protocol=protocol, n=spec.get("n", 4),
            config=ProtocolConfig(**spec.get("config", {})),
            delay=build_delay(spec.get("delay",
                                       {"kind": "constant", "delay": 1.0})),
            loss_rate=spec.get("loss_rate", 0.0),
            dup_rate=spec.get("dup_rate", 0.0),
        )
        oracle = InvariantOracle(lane, protocol=protocol,
                                 verdict=safety(strict=not case.faults))
        oracle.attach()
        fire.append(_sim_fault_applier(lane, oracle))
        lane.network.on_send.append(digest.hook(f"{i}|"))

    for time, k, node in case.keyed_requests:
        sim.schedule_at(time, fabric.request_id, k, node)
    for fault in case.faults:
        sim.schedule_at(float(fault["t"]), fire[fault["k"]], fault)

    violation: Optional[Dict] = None
    try:
        fabric.run(until=case.horizon, max_events=case.max_events)
        for key, count in fabric.token_census().items():
            # The census is blind to in-flight tokens, so only count > 1
            # (duplication) is a breach at the horizon cut.
            if count > 1:
                raise OracleViolation(
                    "token_census",
                    f"key {key!r} holds {count} tokens at the horizon",
                    {"key": key, "count": count})
    except _VIOLATIONS as exc:
        violation = _violation_dict(exc)
    return FuzzResult(
        ok=violation is None,
        checksum=digest.checksum,
        events=fabric.executed_total,
        grants=fabric.metrics.total_grants,
        sends=digest.sends,
        violation=violation,
    )


# ---------------------------------------------------------------------------
# Spec-level execution
# ---------------------------------------------------------------------------

def _system_module(name: str):
    from repro.specs import (
        system_binary_search,
        system_message_passing,
        system_s,
        system_s1,
        system_search,
        system_token,
    )
    return {
        "S": system_s,
        "S1": system_s1,
        "Tok": system_token,
        "MP": system_message_passing,
        "Srch": system_search,
        "BS": system_binary_search,
    }[name]


def _run_spec(case: FuzzCase, system_factory: Optional[Callable] = None) -> FuzzResult:
    if system_factory is not None:
        rewriter, initial = system_factory(case)
    else:
        rewriter, initial = _system_module(case.system).make_system(case.n)
    # Re-wrap so every single transition is audited.
    sanitized = SanitizedRewriter(rewriter.ruleset, rewriter.ctx, every=1)

    violation: Optional[Dict] = None
    checksum = 0
    steps = 0
    try:
        reduction = sanitized.random_reduction(
            initial, case.steps, seed=derive_seed(case.seed, "walk"))
        steps = len(reduction.steps)
        for step in reduction.steps:
            record = f"{step.rule_name}|{step.state}"
            checksum = zlib.crc32(record.encode("utf-8"), checksum)
        check_spec_reduction(reduction, case.n)
    except _VIOLATIONS as exc:
        violation = _violation_dict(exc)
    return FuzzResult(
        ok=violation is None,
        checksum=f"{checksum:08x}",
        events=steps,
        violation=violation,
    )


# ---------------------------------------------------------------------------
# fast: the array-compiled engine
# ---------------------------------------------------------------------------

def _run_fast(case: FuzzCase) -> FuzzResult:
    """Replay an impl-level case on :class:`~repro.fastsim.FastCluster`
    (send-stream digest on, so the checksum is comparable with ``des``)."""
    from repro.fastsim.cluster import FastCluster

    cluster = FastCluster.build(
        case.protocol, case.n,
        seed=derive_seed(case.seed, "net"),
        config=ProtocolConfig(**case.config),
        delay=build_delay(case.delay),
        loss_rate=case.loss_rate,
        dup_rate=case.dup_rate,
        digest=True,
    )
    for time, node in case.requests:
        cluster.request_at(time, node)
    cluster.run(until=case.horizon, max_events=case.max_events)
    return FuzzResult(ok=True, checksum=cluster.send_checksum,
                      events=cluster.executed_total, grants=cluster.grants,
                      sends=cluster.sent_total)


def _fast_skip_reason(case: FuzzCase) -> Optional[str]:
    """Layered on :func:`~repro.fastsim.state.unsupported_reason`: cases
    add fault plans, which only the object stacks execute."""
    from repro.fastsim.state import unsupported_reason

    if _stabilizing(case):
        return ("stabilizing core (watchdog censuses + absorption) has no "
                "array compilation")
    if _corrupting(case):
        return ("arbitrary-state corruption mutates core objects; the "
                "array fast path has no object state to corrupt")
    if case.faults:
        return "fault plan needs the object driver stack"
    try:
        config = ProtocolConfig(**case.config)
        config.n = case.n
        config.validate()
    except (TypeError, ConfigError) as exc:
        return f"config rejected: {exc}"
    return unsupported_reason(case.protocol, config, build_delay(case.delay))


# ---------------------------------------------------------------------------
# aio and wire: the supervised asyncio runtime
# ---------------------------------------------------------------------------

#: How the runtime applies each fault op (``reset`` exists on the socket
#: transport only; :data:`~repro.fuzz.case.FAULT_OPS` keeps it off ``aio``).
_AIO_FAULTS: Dict[str, Callable[[AioCluster, Dict], object]] = {
    "crash": lambda c, f: c.crash_node(f["a"]),
    "partition": lambda c, f: [c.transport.partition(a, b)
                               for a, b in _links(f)],
    "heal": lambda c, f: c.transport.heal(f["a"], f["b"]),
    "heal_all": lambda c, f: c.transport.heal_all(),
    "reset": lambda c, f: c.transport.reset_connections(f.get("a")),
    "corrupt": lambda c, f: corrupt_core(
        c.drivers[f["a"]].core, f["what"], f["arg"], n=c.n),
}


async def _execute(case: FuzzCase) -> FuzzResult:
    """One case on the supervised runtime.  Every scheduled acquire must
    be granted within ``recovery_window`` of the later of its issue time
    and the last injected fault (when the case sets one); the run fails on
    an oracle violation, a dead node, an unrecovered acquire, or
    — with a load block — an op not granted or a p99 over budget."""
    from repro.stabilize.bound import convergence_bound
    from repro.wire.client import LoadGenerator
    from repro.wire.server import LockServiceServer
    from repro.wire.smoke import service_config
    from repro.wire.transport import WireTransport

    wire = case.backend == "wire"
    loop = asyncio.get_running_loop()
    hop = hop_delay(case.delay)
    tick = min(1.0, _WIRE_HOP / hop) if wire else 1.0  # loop s per case unit
    converging = _converging(case)
    config = replace(service_config(case.protocol), **case.config)
    transport = WireTransport(
        delay=hop * tick, loss_rate=case.loss_rate, dup_rate=case.dup_rate,
        rng=random.Random(case.seed ^ 0x5EED)) if wire else None
    cluster = AioCluster(
        case.protocol, case.n, seed=case.seed, config=config,
        delay=hop, loss_rate=case.loss_rate, dup_rate=case.dup_rate,
        transport=transport, reliability=ReliabilityConfig(),
        # The at-rest sanitizer would (rightly) reject injected illegal
        # states; convergence is such a run's verdict.
        sanitize=False if converging else None,
    )
    # Core timers run in message delays, which the driver scales by the hop.
    bound = convergence_bound(config, case.n, 1.0) * hop * tick
    oracle = InvariantOracle(
        cluster, protocol=case.protocol,
        verdict=convergence(bound) if converging else safety())
    oracle.attach()
    supervisor = ClusterSupervisor(cluster)

    digest = _SendDigest(loop.time, "%.9f")
    on_send = digest.hook()
    cluster.on_driver.append(lambda node, d: d.on_send_msg.append(on_send))
    for driver in cluster.drivers.values():
        driver.on_send_msg.append(on_send)

    spec = case.closed_loop
    server = LockServiceServer(cluster) if spec is not None else None
    await (server.start() if server is not None else cluster.start())
    await supervisor.start()
    started = loop.time()

    def now() -> float:
        return (loop.time() - started) / tick

    last_fault_t = max((float(f["t"]) for f in case.faults), default=0.0)
    reached: List[Dict] = []
    injected_at = started

    async def _fault(fault: Dict) -> None:
        nonlocal injected_at
        await asyncio.sleep(float(fault["t"]) * tick)
        reached.append(fault)
        applying = _AIO_FAULTS[fault["op"]](cluster, fault)
        if inspect.isawaitable(applying):
            await applying
        if converging:
            injected_at = loop.time()
            oracle.inject(injected_at)

    grants = 0
    waits: List[float] = []
    unrecovered: List[Dict] = []

    async def _request(t: float, node: int) -> None:
        nonlocal grants
        await asyncio.sleep(t * tick)
        start = now()
        deadline = (max(start, last_fault_t) + case.recovery_window
                    if case.recovery_window > 0 else case.horizon)
        try:
            await cluster.acquire(
                node, timeout=max(deadline - start, 1e-3) * tick)
        except asyncio.TimeoutError:
            if case.recovery_window > 0:
                unrecovered.append({"node": node, "t": round(t, 6),
                                    "waited": round(now() - start, 6)})
            return
        grants += 1
        waits.append(now() - start)
        await asyncio.sleep(hop * tick)  # brief critical section
        cluster.release(node)

    load = None
    tasks = [asyncio.create_task(_fault(f)) for f in case.faults]
    try:
        if server is not None:
            # The run ends when the ops do; a fault still waiting for its
            # time is reported as not reached, never as applied.
            load = await LoadGenerator(
                "127.0.0.1", server.port, seed=case.seed,
                acquire_timeout=_ACQUIRE_TIMEOUT,
            ).run_closed_loop(spec["clients"], spec["ops"])
            grants = load.grants
            for task in tasks:
                task.cancel()
            for outcome in await asyncio.gather(*tasks,
                                                return_exceptions=True):
                if isinstance(outcome, Exception):  # not a cancellation
                    raise outcome
        else:
            tasks += [asyncio.create_task(_request(t, node))
                      for t, node in case.requests]
            await asyncio.gather(*tasks)
        await asyncio.sleep(10.0 * hop * tick)  # drain in-flight traffic
        if converging:
            # Leave the last injection its convergence window (or what
            # the horizon allows of it), then demand the predicate.
            settle = min(injected_at + bound,
                         started + case.horizon * tick) - loop.time()
            if settle > 0:
                await asyncio.sleep(settle)
            oracle.finalize(loop.time())

        violation: Optional[Dict] = None
        if oracle.violation is not None:
            violation = _violation_dict(oracle.violation)
        else:
            # A node that died (sanitizer violation, core bug) is a
            # finding too — it surfaces through failure(), not a raise.
            for node, driver in cluster.drivers.items():
                exc = driver.failure()
                if exc is not None:
                    violation = _violation_dict(exc)
                    violation["detail"] = (f"node {node} coroutine died: "
                                           f"{exc}")
                    break
        if violation is None and unrecovered:
            violation = {
                "type": "BoundedRecovery", "invariant": "bounded-recovery",
                "detail": f"{len(unrecovered)} acquire(s) not granted within "
                          f"{case.recovery_window:g} of max(issue time, "
                          f"last fault)",
                "unrecovered": unrecovered}
        if violation is None and load is not None:
            budget = spec.get("p99_budget", 2.0)
            missed = []
            if load.grants != load.ops or load.failures or load.errors:
                missed.append(f"{load.grants}/{load.ops} ops granted, "
                              f"{load.failures} failures, "
                              f"{load.errors} client errors")
            if load.wait_p99 > budget:
                missed.append(f"p99 acquire wait {load.wait_p99 * 1e3:.1f}ms "
                              f"over the {budget:g}s budget")
            if missed:
                violation = {"type": "ServiceLevel",
                             "invariant": "service-level",
                             "detail": "; ".join(missed)}

        runtime: Dict = {
            "restarts": sum(supervisor.restarts.values()),
            "give_ups": cluster.reliability_counters.give_ups,
            "max_wait": round(max(waits), 6) if waits else 0.0,
            "duration": round(now(), 6),
            "faults_applied": reached,
            "faults_not_reached": [f for f in case.faults
                                   if f not in reached],
        }
        if load is not None:
            runtime["load"] = load.as_dict()
            runtime["wire"] = transport.counters.as_dict()
            runtime["arq"] = cluster.reliability_counters.as_dict()
    finally:
        for task in tasks:
            task.cancel()
        await supervisor.stop()
        await (server.stop() if server is not None else cluster.stop())
    return FuzzResult(
        ok=violation is None,
        # Wall-clock timestamps pin nothing: a wire run has no checksum.
        checksum="" if wire else digest.checksum,
        grants=grants,
        sends=digest.sends,
        violation=violation,
        stabilization=oracle.stabilization() if converging else None,
        runtime=runtime,
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

_BACKENDS: Dict[str, Callable[[FuzzCase], FuzzResult]] = {
    "des": lambda case: (_run_fabric if case.kind == "fabric"
                         else _run_impl)(case),
    "fast": _run_fast,
    "aio": lambda case: run_virtual(_execute(case)),
    # Real wall-clock asyncio (sockets cannot run on the virtual clock),
    # so numbers vary run to run — the verdict is what must hold.
    "wire": lambda case: asyncio.run(_execute(case)),
}


def skip_reason(case: FuzzCase) -> Optional[str]:
    """Why ``case.backend`` cannot run this case (None = it can)."""
    backend = case.backend
    if case.closed_loop is not None and backend != "wire":
        return ("the closed-loop load block needs the lock service on real "
                "sockets (wire backend)")
    if case.kind != "impl":
        if backend != "des":
            return (f"{case.kind}-level case (no single cluster to stand "
                    f"up); only the des backend runs it")
        return None  # validation already held fabric faults to the table
    if backend == "fast":
        return _fast_skip_reason(case)
    for fault in case.faults:
        if backend not in FAULT_OPS[fault["op"]][1]:
            return (f"the {backend} backend cannot apply "
                    f"{fault['op']!r} faults")
    if backend != "des" and not _stabilizing(case) and _corrupting(case):
        return ("corrupt faults on the supervised runtime need the "
                "stabilizing core: no other core converges from "
                "arbitrary states")
    return None


def run_case(case: FuzzCase,
             system_factory: Optional[Callable] = None) -> FuzzResult:
    """Execute one case on its backend and report its result.

    ``system_factory(case) -> (rewriter, initial)`` overrides the spec
    system under test (canary/differential experiments).
    """
    case.validate()
    reason = skip_reason(case)
    if reason is not None:
        return FuzzResult(ok=False, checksum="", skipped=reason)
    if case.kind == "spec":
        return _run_spec(case, system_factory)
    return _BACKENDS[case.backend](case)


def fuzz_run(root_seed: int, runs: int, profile: str = "mixed",
             on_result: Optional[Callable] = None,
             backend: str = "des") -> List[Dict]:
    """The run loop: generate and execute ``runs`` cases from a root seed.

    Returns one summary dict per case (index, label, checksum, outcome,
    violation or skip reason).  ``on_result(index, case, result)`` is
    called after each case — the CLI uses it for progress output and
    counterexample capture.
    """
    summaries: List[Dict] = []
    for index in range(runs):
        case = generate_case(root_seed, index, profile, backend)
        result = run_case(case)
        summary = {
            "index": index,
            "label": case.label,
            "kind": case.kind,
            "ok": result.ok,
            "checksum": result.checksum,
            "events": result.events,
        }
        if result.violation is not None:
            summary["violation"] = result.violation
        if result.skipped is not None:
            summary["skipped"] = result.skipped
        summaries.append(summary)
        if on_result is not None:
            on_result(index, case, result)
    return summaries
