"""Cases: fully explicit, serializable schedules for every backend.

A :class:`FuzzCase` pins **everything** a run needs — node count, protocol,
delay model, loss/duplication rates, the request schedule, the fault plan,
the event/time budget, and the backend it runs on — as concrete data
rather than implicit RNG state.  Two consequences:

- replay needs no generator: loading a case file reproduces the run
  bit-for-bit on the deterministic backends (the only remaining
  randomness, delay sampling and loss/duplication draws, flows from the
  case seed);
- the shrinker can minimize by editing lists (drop a request, drop a fault,
  lower the horizon, remove a node) instead of hunting for a luckier seed.

One schema (``repro-fuzz-case/v1``) serves the discrete-event simulator
(``des``), the array-compiled engine (``fast``), the asyncio runtime on a
virtual clock (``aio``) and the same runtime on loopback TCP (``wire``);
:data:`FAULT_OPS` is the one table saying which fault each of them can
apply.  All times in a case share the unit of its ``delay``; ``des`` and
``aio`` run that unit as is, ``wire`` runs it in wall-clock seconds
(compressed when a hop would exceed a couple of milliseconds, see
:mod:`repro.fuzz.runner`).

``generate_case`` derives a case from ``(root_seed, index, profile)``; the
same triple always yields the same case.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.protocols import PROTOCOLS, ROWS
from repro.core.regeneration import Regeneration
from repro.errors import ConfigError, FuzzCaseError
from repro.faults.corruption import CORRUPTION_KINDS
from repro.fuzz.rng import child_rng
from repro.sim.network import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    UniformDelay,
)

__all__ = [
    "SCHEMA",
    "BACKENDS",
    "PROFILES",
    "FAULT_OPS",
    "IMPL_PROTOCOLS",
    "SPEC_SYSTEMS",
    "FuzzCase",
    "generate_case",
    "build_delay",
    "hop_delay",
]

SCHEMA = "repro-fuzz-case/v1"

BACKENDS = ("des", "fast", "aio", "wire")

#: Impl-level protocols the random profiles draw from: the protocol
#: table's ``fuzz_drawn`` rows, in table order (the order pins every
#: draw).  Validation accepts every registered name.
IMPL_PROTOCOLS = tuple(name for name, row in ROWS.items() if row.fuzz_drawn)

#: Spec-level systems eligible for random-reduction fuzzing.
SPEC_SYSTEMS = ("S", "S1", "Tok", "MP", "Srch", "BS")

#: profile -> what the generator draws.  The first six are sim-shaped
#: (delays around one time unit, horizons in the hundreds); ``crash`` /
#: ``partition`` / ``corrupt`` are runtime-shaped (10 ms hops, seconds-long
#: schedules, a bounded-recovery window) and ``smoke`` is the closed-loop
#: service run.  ``mixed`` alternates per index — sim-shaped kinds on the
#: ``des``/``fast`` backends, runtime-shaped fault plans on ``aio``/``wire``
#: — and deliberately never grew past its original rotations: adding a mode
#: would reshuffle every pinned mixed-profile case.
PROFILES = ("clean", "faults", "spec", "mixed", "fabric", "stabilize",
            "crash", "partition", "corrupt", "smoke")

#: op -> (fields it requires, targets that can apply it).  A target is a
#: backend, or ``"fabric"`` for one lane of a ``kind="fabric"`` case on
#: ``des``.  ``partition`` also accepts the ``group_a``/``group_b``
#: spelling in place of ``a``/``b``; ``reset`` takes an optional ``a``.
#: Validation checks the fields, the runner turns a missing target into a
#: ``skipped`` result, and each backend family's applier dispatches on
#: exactly the ops that name it here.
FAULT_OPS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "crash": (("a",), ("des", "fabric", "aio", "wire")),
    # The runtime's supervisor owns restarts; a scripted one has no meaning.
    "recover": (("a",), ("des", "fabric")),
    "token_loss": ((), ("des", "fabric")),
    "partition": (("a", "b"), ("des", "fabric", "aio", "wire")),
    "heal": (("a", "b"), ("des", "fabric", "aio", "wire")),
    "heal_all": ((), ("aio", "wire")),
    "reset": ((), ("wire",)),
    # A lane's verdict is strict safety; only a whole cluster can be
    # judged by convergence.
    "corrupt": (("a", "what", "arg"), ("des", "aio", "wire")),
}

_LOAD_KEYS = ("clients", "ops", "p99_budget")


def _is_node(value: object, n: int) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and 0 <= value < n)


def check_fault(fault: Dict, n: int, target: str = "") -> None:
    """Validate one fault entry against :data:`FAULT_OPS` (and, given a
    ``target``, against what that target can apply); raise
    :class:`FuzzCaseError` naming the offending kind instead of letting a
    runner hit a ``KeyError``."""
    op = fault.get("op")
    if op not in FAULT_OPS or (target and target not in FAULT_OPS[op][1]):
        raise FuzzCaseError(
            f"unknown {target + ' ' if target else ''}fault op {op!r} in "
            f"fault {fault!r}; known ops: {tuple(FAULT_OPS)}", kind=op)
    t = fault.get("t")
    if isinstance(t, bool) or not isinstance(t, (int, float)) or t < 0:
        raise FuzzCaseError(f"fault {fault!r} needs a time 't' >= 0", kind=op)
    fields = FAULT_OPS[op][0]
    if op == "partition" and "group_a" in fault:
        fields = ("group_a", "group_b")
    elif op == "reset" and "a" in fault:
        fields = ("a",)
    for name in fields:
        value = fault.get(name)
        if name in ("a", "b"):
            ok = _is_node(value, n)
        elif name in ("group_a", "group_b"):
            ok = (isinstance(value, (list, tuple)) and len(value) > 0
                  and all(_is_node(x, n) for x in value))
        elif name == "what":
            if value not in CORRUPTION_KINDS:
                raise FuzzCaseError(
                    f"unknown corruption kind {value!r} in fault {fault!r}; "
                    f"known kinds: {CORRUPTION_KINDS}", kind=value)
            continue
        else:  # "arg"
            ok = isinstance(value, int) and not isinstance(value, bool)
        if not ok:
            raise FuzzCaseError(
                f"{op} fault needs {name!r} naming "
                f"{'an int' if name == 'arg' else f'nodes in [0, {n})'}, "
                f"got {fault!r}", kind=op)


@dataclass
class FuzzCase:
    """One self-contained run (impl-, spec- or fabric-level) on one backend."""

    seed: int
    kind: str = "impl"                       # "impl" | "spec" | "fabric"
    # -- impl-level fields ---------------------------------------------------
    protocol: str = "binary_search"
    n: int = 5
    delay: Dict = field(default_factory=lambda: {"kind": "constant", "delay": 1.0})
    loss_rate: float = 0.0
    dup_rate: float = 0.0
    #: ProtocolConfig overrides — over the defaults on ``des``/``fast``,
    #: over :func:`repro.wire.smoke.service_config` on ``aio``/``wire``.
    config: Dict = field(default_factory=dict)
    requests: List[Tuple[float, int]] = field(default_factory=list)
    faults: List[Dict] = field(default_factory=list)
    max_events: int = 20_000
    horizon: float = 2_000.0
    # -- spec-level fields ---------------------------------------------------
    system: str = "BS"
    steps: int = 150
    label: str = ""
    # -- fabric-level fields -------------------------------------------------
    #: Lane specs: ``{"key", "protocol", "n", "delay", "loss_rate",
    #: "dup_rate", "config"}`` per entry.  Lane seeds derive from the
    #: fabric seed and key string, so dropping a lane never perturbs the
    #: survivors (lanes are independent — the shrinker leans on this).
    keys: List[Dict] = field(default_factory=list)
    #: Fabric arrivals as ``(time, key_index, node)``; fabric faults carry
    #: a ``"k"`` (key index) in :attr:`faults` entries instead.
    keyed_requests: List[Tuple[float, int, int]] = field(default_factory=list)
    # -- where and how it runs -----------------------------------------------
    backend: str = "des"
    #: ``aio``/``wire``: every request must be granted within this long of
    #: ``max(issue time, last fault time)`` — the bounded-recovery verdict.
    #: 0 asks for none: a request may wait until the horizon, as on ``des``.
    recovery_window: float = 0.0
    #: ``wire`` only: the closed-loop load block (``clients``, ``ops``,
    #: optional ``p99_budget`` in seconds) driven through the lock service
    #: instead of :attr:`requests`; the run ends when the ops do.  (Not
    #: named ``load``: that is the file loader.)
    closed_loop: Optional[Dict] = None

    # -- derived -------------------------------------------------------------

    def event_count(self) -> int:
        """Schedule size (requests + faults) — the shrinker's budget."""
        return len(self.requests) + len(self.keyed_requests) + len(self.faults)

    def validate(self) -> "FuzzCase":
        if self.kind not in ("impl", "spec", "fabric"):
            raise ConfigError(f"unknown case kind {self.kind!r}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}; "
                              f"choose from {BACKENDS}")
        if self.recovery_window < 0:
            raise ConfigError("recovery_window must be >= 0")
        if self.closed_loop is not None:
            unknown = sorted(set(self.closed_loop) - set(_LOAD_KEYS))
            if unknown:
                raise ConfigError(f"unknown closed_loop keys {unknown}; "
                                  f"known: {_LOAD_KEYS}")
            for name in ("clients", "ops"):
                if not isinstance(self.closed_loop.get(name), int) \
                        or self.closed_loop[name] < 1:
                    raise ConfigError(f"closed_loop needs {name!r} >= 1, "
                                      f"got {self.closed_loop!r}")
        if self.kind == "fabric":
            if not self.keys:
                raise ConfigError("fabric case needs at least one key")
            for spec in self.keys:
                if spec.get("protocol", "binary_search") not in IMPL_PROTOCOLS:
                    raise ConfigError(f"unknown protocol in key spec {spec!r}")
                if spec.get("n", 4) < 1:
                    raise ConfigError(f"bad ring size in key spec {spec!r}")
            n_keys = len(self.keys)
            for _t, k, node in self.keyed_requests:
                if not 0 <= k < n_keys:
                    raise ConfigError(f"keyed request names key {k} "
                                      f"of {n_keys}")
                if not _is_node(node, self.keys[k].get("n", 4)):
                    raise ConfigError(f"keyed request targets unknown node "
                                      f"{node} of key {k}")
            for fault in self.faults:
                if not _is_node(fault.get("k"), n_keys):
                    raise FuzzCaseError(
                        f"fabric fault {fault!r} needs its lane index 'k' "
                        f"in [0, {n_keys})", kind=fault.get("op"))
                check_fault(fault, self.keys[fault["k"]].get("n", 4),
                            target="fabric")
        elif self.kind == "impl":
            if self.protocol not in PROTOCOLS:
                raise ConfigError(f"unknown protocol {self.protocol!r}")
            if self.n < 1:
                raise ConfigError(f"n must be >= 1, got {self.n}")
            for _t, node in self.requests:
                if not _is_node(node, self.n):
                    raise ConfigError(
                        f"request targets unknown node {node}")
            for fault in self.faults:
                check_fault(fault, self.n)
        else:
            if self.system not in SPEC_SYSTEMS:
                raise ConfigError(f"unknown spec system {self.system!r}")
        return self

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict:
        doc = asdict(self)
        doc["requests"] = [list(r) for r in self.requests]
        doc["keyed_requests"] = [list(r) for r in self.keyed_requests]
        doc["schema"] = SCHEMA
        return doc

    @classmethod
    def from_dict(cls, doc: Dict) -> "FuzzCase":
        doc = dict(doc)
        schema = doc.pop("schema", SCHEMA)
        if schema != SCHEMA:
            raise ConfigError(f"unsupported case schema {schema!r}")
        doc.pop("outcome", None)  # replay files carry the recorded outcome
        doc["requests"] = [(float(t), int(node)) for t, node in
                           doc.get("requests", [])]
        doc["keyed_requests"] = [(float(t), int(k), int(node)) for t, k, node
                                 in doc.get("keyed_requests", [])]
        try:
            return cls(**doc).validate()
        except TypeError as exc:  # an unknown or missing top-level field
            raise FuzzCaseError(f"malformed case: {exc}") from exc

    def save(self, path: str, outcome: Optional[Dict] = None) -> None:
        doc = self.to_dict()
        if outcome is not None:
            doc["outcome"] = outcome
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> Tuple["FuzzCase", Optional[Dict]]:
        """Load a case file; returns ``(case, recorded_outcome_or_None)``."""
        with open(path) as handle:
            doc = json.load(handle)
        return cls.from_dict(doc), doc.get("outcome")

    def with_(self, **changes) -> "FuzzCase":
        return replace(self, **changes)


def build_delay(spec: Dict) -> DelayModel:
    """Materialize the case's delay-model description."""
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return ConstantDelay(spec.get("delay", 1.0))
    if kind == "uniform":
        return UniformDelay(spec.get("low", 0.5), spec.get("high", 2.0))
    if kind == "exponential":
        return ExponentialDelay(spec.get("mean", 1.0),
                                spec.get("minimum", 0.01))
    raise ConfigError(f"unknown delay kind {kind!r}")


def hop_delay(spec: Dict) -> float:
    """The one fixed hop delay the ``aio``/``wire`` transports run a case
    at: the mean of its delay model (they cannot draw per-message delays)."""
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return float(spec.get("delay", 1.0))
    if kind == "uniform":
        return (spec.get("low", 0.5) + spec.get("high", 2.0)) / 2.0
    if kind == "exponential":
        return float(spec.get("mean", 1.0))
    raise ConfigError(f"unknown delay kind {kind!r}")


# ---------------------------------------------------------------------------
# Case generation
# ---------------------------------------------------------------------------

def _draw_delay(rng) -> Dict:
    kind = rng.choice(("constant", "uniform", "exponential"))
    if kind == "constant":
        return {"kind": "constant", "delay": rng.choice((0.5, 1.0, 2.0))}
    if kind == "uniform":
        low = rng.choice((0.2, 0.5, 1.0))
        return {"kind": "uniform", "low": low,
                "high": low * rng.choice((2.0, 4.0))}
    return {"kind": "exponential", "mean": rng.choice((0.5, 1.0, 3.0)),
            "minimum": 0.01}


def _draw_config(rng, protocol: str) -> Dict:
    config: Dict = {
        "trap_gc": rng.choice(("none", "rotation", "inverse")),
        "single_outstanding": rng.random() < 0.8,
        "forward_throttle": rng.random() < 0.3,
    }
    if rng.random() < 0.3:
        config["idle_pause"] = rng.choice((2.0, 10.0))
    if rng.random() < 0.3:
        config["service_time"] = rng.choice((0.5, 2.0))
    if rng.random() < 0.3:
        config["retry_timeout"] = rng.choice((20.0, 60.0))
    if ROWS[protocol].has(Regeneration):
        config["regen_timeout"] = rng.choice((40.0, 80.0))
        config["census_window"] = 5.0
        config["loan_timeout"] = rng.choice((0.0, 30.0))
    return config


def _draw_requests(rng, n: int, horizon: float, count: int) -> List[Tuple[float, int]]:
    requests = sorted(
        (round(rng.uniform(0.0, horizon * 0.6), 3), rng.randrange(n))
        for _ in range(count)
    )
    return requests


def _draw_faults(rng, n: int, horizon: float, protocol: str) -> List[Dict]:
    faults: List[Dict] = []
    # Crash/recover pairs.  For non-fault-tolerant protocols a holder crash
    # merely stalls the run (safety still holds); for fault_tolerant it
    # exercises detection + regeneration.
    for _ in range(rng.randrange(0, 3)):
        node = rng.randrange(n)
        t = round(rng.uniform(5.0, horizon * 0.5), 3)
        faults.append({"t": t, "op": "crash", "a": node})
        if rng.random() < 0.5:
            faults.append({"t": round(t + rng.uniform(20.0, 80.0), 3),
                           "op": "recover", "a": node})
    # Token loss (the in-flight token vanishes) only where regeneration can
    # recover it — elsewhere it would just freeze the run uninformatively.
    if ROWS[protocol].has(Regeneration):
        for _ in range(rng.randrange(0, 2)):
            faults.append({"t": round(rng.uniform(5.0, horizon * 0.4), 3),
                           "op": "token_loss"})
    # Transient partition with a matching heal.
    if n >= 3 and rng.random() < 0.4:
        a = rng.randrange(n)
        b = (a + rng.randrange(1, n)) % n
        t = round(rng.uniform(5.0, horizon * 0.4), 3)
        faults.append({"t": t, "op": "partition", "a": a, "b": b})
        faults.append({"t": round(t + rng.uniform(10.0, 50.0), 3),
                       "op": "heal", "a": a, "b": b})
    faults.sort(key=lambda f: f["t"])
    return faults


def _draw_fabric_faults(rng, keys: List[Dict],
                        horizon: float) -> List[Dict]:
    """Crash/recover and partition/heal faults aimed at a few lanes.

    Token loss is left out: regeneration only exists in fault_tolerant
    lanes, and a lost token elsewhere just freezes that lane silently.
    """
    faults: List[Dict] = []
    for _ in range(rng.randrange(0, 4)):
        k = rng.randrange(len(keys))
        n = keys[k]["n"]
        node = rng.randrange(n)
        t = round(rng.uniform(5.0, horizon * 0.5), 3)
        faults.append({"t": t, "op": "crash", "a": node, "k": k})
        if rng.random() < 0.5:
            faults.append({"t": round(t + rng.uniform(20.0, 80.0), 3),
                           "op": "recover", "a": node, "k": k})
        if n >= 3 and rng.random() < 0.4:
            a = rng.randrange(n)
            b = (a + rng.randrange(1, n)) % n
            t = round(rng.uniform(5.0, horizon * 0.4), 3)
            faults.append({"t": t, "op": "partition", "a": a, "b": b, "k": k})
            faults.append({"t": round(t + rng.uniform(10.0, 50.0), 3),
                           "op": "heal", "a": a, "b": b, "k": k})
    faults.sort(key=lambda f: f["t"])
    return faults


def _generate_fabric_case(root_seed: int, index: int, rng) -> FuzzCase:
    """8-32 keys of mixed protocols multiplexed on one fabric, with
    faults striking individual lanes — the isolation property under test
    is that a fault in one lane never leaks into another."""
    n_keys = rng.randrange(8, 33)
    horizon = rng.choice((400.0, 800.0))
    keys: List[Dict] = []
    for k in range(n_keys):
        protocol = rng.choice(IMPL_PROTOCOLS)
        n = rng.choice((3, 4, 5))
        spec: Dict = {"key": f"lock/{k:03d}", "protocol": protocol, "n": n}
        if rng.random() < 0.5:
            spec["delay"] = _draw_delay(rng)
        if rng.random() < 0.3:
            spec["loss_rate"] = round(rng.choice((0.05, 0.1)), 3)
        if rng.random() < 0.2:
            spec["dup_rate"] = 0.1
        if rng.random() < 0.5:
            spec["config"] = _draw_config(rng, protocol)
        keys.append(spec)
    keyed_requests = sorted(
        (round(rng.uniform(0.0, horizon * 0.6), 3),
         (k := rng.randrange(n_keys)),
         rng.randrange(keys[k]["n"]))
        for _ in range(rng.randrange(20, 80))
    )
    return FuzzCase(
        seed=root_seed + index,
        kind="fabric",
        keys=keys,
        keyed_requests=keyed_requests,
        faults=_draw_fabric_faults(rng, keys, horizon),
        max_events=60_000,
        horizon=horizon,
        label=f"fabric/k{n_keys}",
    ).validate()


def _generate_stabilize_case(root_seed: int, index: int, rng) -> FuzzCase:
    """A stabilizing-core run seeded with arbitrary-state corruption.

    Corruptions all land in the first 40% of the horizon so every case
    leaves the stabilizing machinery well over the convergence bound of
    virtual time to settle; delays stay *bounded* (constant/uniform, no
    exponential tail) because the watchdog's no-progress mint is only
    sound under bounded delays; loss/duplication stay off so the only
    illegal states are the injected ones (the convergence verdict is
    then unconditional)."""
    n = rng.choice((3, 5, 7, 9))
    horizon = rng.choice((800.0, 1200.0))
    if rng.random() < 0.5:
        delay: Dict = {"kind": "constant", "delay": rng.choice((0.5, 1.0))}
    else:
        delay = {"kind": "uniform", "low": 0.5, "high": 2.0}
    config: Dict = {
        "trap_gc": rng.choice(("rotation", "inverse")),
        "regen_timeout": rng.choice((30.0, 50.0)),
        "census_window": 5.0,
        "loan_timeout": 30.0,
        "stabilize_watch": rng.choice((15.0, 25.0)),
        "stabilize_reset": rng.random() < 0.7,
    }
    faults: List[Dict] = [
        {"t": round(rng.uniform(10.0, horizon * 0.4), 3),
         "op": "corrupt",
         "a": rng.randrange(n),
         "what": rng.choice(CORRUPTION_KINDS),
         "arg": rng.randrange(1 << 16)}
        for _ in range(rng.randrange(1, 5))
    ]
    faults.sort(key=lambda f: f["t"])
    return FuzzCase(
        seed=root_seed + index,
        kind="impl",
        protocol="stabilizing",
        n=n,
        delay=delay,
        config=config,
        requests=_draw_requests(rng, n, horizon, rng.randrange(3, 12)),
        faults=faults,
        max_events=40_000,
        horizon=horizon,
        label=f"stabilize/n{n}",
    ).validate()


def _draw_crashes(rng, n: int) -> List[Dict]:
    faults = [{"t": round(rng.uniform(1.0, 2.5), 3),
               "op": "crash", "a": rng.randrange(n)}]
    if rng.random() < 0.5:
        survivors = [x for x in range(n) if x != faults[0]["a"]]
        # Spaced so the supervisor repairs the first before the second
        # lands — at most one node is ever down, preserving the quorum.
        faults.append({"t": round(faults[0]["t"] + rng.uniform(2.0, 3.5), 3),
                       "op": "crash", "a": rng.choice(survivors)})
    return faults


def _draw_group_partition(rng, n: int) -> List[Dict]:
    minority = 1 if n < 5 else rng.choice((1, 2))
    group_a = sorted(rng.sample(range(n), minority))
    group_b = [x for x in range(n) if x not in group_a]
    t = round(rng.uniform(1.0, 2.5), 3)
    return [
        {"t": t, "op": "partition", "group_a": group_a, "group_b": group_b},
        {"t": round(t + rng.uniform(1.5, 3.0), 3), "op": "heal_all"},
    ]


def _generate_runtime_case(root_seed: int, index: int, mode: str,
                           backend: str) -> FuzzCase:
    """A runtime-shaped scenario: 10 ms hops, a few acquires over five
    seconds, and crashes the supervisor must detect and repair, partitions
    the quorum gate must park through, or corruptions the stabilizing core
    must absorb — every acquire due within the recovery window."""
    rng = child_rng(root_seed, "chaos", index, mode)
    n = rng.choice((4, 5, 6, 7))
    requests = sorted(
        (round(rng.uniform(0.5, 5.0), 3), rng.randrange(n))
        for _ in range(rng.randrange(3, 7))
    )
    faults: List[Dict] = []
    if "crash" in mode:
        faults.extend(_draw_crashes(rng, n))
    if "partition" in mode:
        faults.extend(_draw_group_partition(rng, n))
    if mode == "corrupt":
        for _ in range(rng.randrange(1, 3)):
            faults.append({"t": round(rng.uniform(1.0, 2.5), 3),
                           "op": "corrupt", "a": rng.randrange(n),
                           "what": rng.choice(CORRUPTION_KINDS),
                           "arg": rng.randrange(1 << 16)})
    faults.sort(key=lambda f: f["t"])
    last_t = max(f["t"] for f in faults)
    return FuzzCase(
        seed=root_seed + index,
        protocol="stabilizing" if mode == "corrupt" else "fault_tolerant",
        n=n,
        delay={"kind": "constant", "delay": 0.01},
        loss_rate=rng.choice((0.0, 0.02, 0.05)),
        recovery_window=8.0,
        requests=requests,
        faults=faults,
        horizon=round(last_t + 10.0, 3),
        label=f"{mode}/n{n}",
        backend=backend,
    ).validate()


def generate_case(root_seed: int, index: int, profile: str = "mixed",
                  backend: str = "des") -> FuzzCase:
    """Derive the ``index``-th case of a run from the root seed."""
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; choose from {PROFILES}")
    mode = profile
    if profile == "mixed":
        if backend in ("aio", "wire"):
            mode = ("crash", "partition", "crash+partition")[index % 3]
        else:
            mode = ("clean", "faults", "clean", "faults", "spec")[index % 5]
    if mode in ("crash", "partition", "crash+partition", "corrupt"):
        return _generate_runtime_case(root_seed, index, mode, backend)
    if mode == "smoke":
        from repro.wire.smoke import smoke_case

        return smoke_case(seed=root_seed + index).with_(backend=backend)
    return _generate_sim_case(root_seed, index, mode).with_(backend=backend)


def _generate_sim_case(root_seed: int, index: int, mode: str) -> FuzzCase:
    rng = child_rng(root_seed, "case", index, mode)

    if mode == "fabric":
        return _generate_fabric_case(root_seed, index, rng)

    if mode == "stabilize":
        return _generate_stabilize_case(root_seed, index, rng)

    if mode == "spec":
        system = rng.choice(SPEC_SYSTEMS)
        return FuzzCase(
            seed=root_seed + index, kind="spec", system=system,
            n=rng.choice((2, 3, 4)), steps=rng.choice((80, 150, 250)),
            label=f"spec/{system}",
        ).validate()

    n = rng.choice((3, 4, 5, 6, 8))
    protocols = IMPL_PROTOCOLS if mode == "faults" else tuple(
        p for p in IMPL_PROTOCOLS if not ROWS[p].has(Regeneration)
    )
    protocol = rng.choice(protocols)
    horizon = rng.choice((400.0, 800.0, 1500.0))
    case = FuzzCase(
        seed=root_seed + index,
        kind="impl",
        protocol=protocol,
        n=n,
        delay=_draw_delay(rng),
        loss_rate=round(rng.choice((0.0, 0.1, 0.3)), 3),
        dup_rate=round(rng.choice((0.0, 0.1, 0.2)), 3),
        config=_draw_config(rng, protocol),
        requests=_draw_requests(rng, n, horizon, rng.randrange(4, 25)),
        faults=_draw_faults(rng, n, horizon, protocol) if mode == "faults" else [],
        max_events=30_000,
        horizon=horizon,
        label=f"{mode}/{protocol}/n{n}",
    )
    return case.validate()
