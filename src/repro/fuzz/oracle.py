"""The invariant oracle: one token-unit census, one wiring, a verdict.

An :class:`InvariantOracle` watches a live cluster through four
backend-neutral events — a **logical send** (:meth:`~InvariantOracle.sent`),
a **terminal settle** of an in-flight lineage message, delivered or lost
(:meth:`~InvariantOracle.settled`), a **token visit**
(:meth:`~InvariantOracle.visited`) and a **loan accept**
(:meth:`~InvariantOracle.loan_accepted`) — and keeps the census every
check is drawn from: holders + borrowers + in-flight token-lineage
messages (``TokenMsg``/``LoanMsg``/``LoanReturnMsg``), bucketed by epoch.

**Wiring** is the same on every clock: the seam of the one
:class:`~repro.core.cluster.Cluster` and its node drivers
(:class:`~repro.sim.driver.NodeDriver`), on the simulator, the in-memory
runtime and the socket transport alike.  Per driver:

- ``on_send_msg`` feeds :meth:`~InvariantOracle.sent` once per protocol
  payload, never per ARQ retransmission, so a retransmitted token is not
  two units;
- ``on_control`` sees a payload arrive at the core: a lineage message
  settles there (and a loan is accepted), or, when
  :meth:`~InvariantOracle.lose_token` armed a loss, the next token is
  swallowed as a declared loss;
- ``on_handled`` draws :meth:`~InvariantOracle.check` after every handled
  payload;
- the reliability channel's ``on_give_up`` settles a surrendered payload
  as lost, then checks.

Drivers a restart or a join builds are wired as ``cluster.on_driver``
announces them, and their shadow history starts from the fresh core.
``network.on_drop`` settles a raw lineage message that dies in the
network (its addressee is dead, or on the socket transport it was never
framed); a drop at a dead or detached node is a check point too.

One policy follows the clock, as the driver's exception policy does: on
a :class:`~repro.sim.kernel.Simulator` a breach *raises*
:class:`OracleViolation` out of ``cluster.run()``; on an event loop the
hooks run inside a node's handlers, where a raise would kill that one
node asymmetrically, so the first breach is *captured* in
:attr:`~InvariantOracle.violation` for the runner to read.  Known
over-count: a lineage payload whose frame evaporates after its sender
crashed (channel stopped, no give-up will fire) stays in the ledger —
phantom units at stale epochs are harmless to the newest-epoch check,
under-counting could mask a real duplication.

The **verdict** is a value, not a subclass (:func:`safety`,
:func:`convergence`):

- ``safety(strict)`` — safety from legal states.  The newest epoch never
  carries more than one unit (exactly one when ``strict``: valid only for
  schedules that cannot destroy the token), which closes the sanitizer's
  blind spot, a token duplicated *in flight*; plus the **shadow
  differential** — every node's ``H_x`` ring projection rebuilt purely
  from observed deliveries must equal the implementation's
  ``last_visit`` at every send, and a token hop must extend it by exactly
  one visit (rule 4; System Search's direct hand-over appends none) — and
  **trap/search consistency**: a forwarded gimme keeps the requester's
  ``visit_stamp`` frozen and travels the way rule 6's ``⊂_C`` comparison
  dictates for the current shadow histories.
- ``convergence(bound)`` — Dijkstra's pair for runs that inject
  arbitrary-state corruption, where every safety check above would fire
  at once and say nothing.  The legitimate-state predicate is *exactly
  one token unit in the whole system, across all epochs*.  The run starts
  with an implicit injection at t=0 (the initial state is just another
  arbitrary state); every fault the runner applies calls
  :meth:`~InvariantOracle.inject`.  An episode closes once ``bound`` has
  elapsed with the predicate holding (the interval from injection to the
  last entry into legitimacy is the ``stabilization_time`` sample);
  illegitimacy past the bound is a **convergence** violation, and any
  illegitimacy after an episode closed, before the next injection, is a
  **closure** violation.

Conservation is only decidable at quiescent points — a core handler's
sends reach the network while the handler runs, so mid-handler the token
can legitimately be counted twice or nowhere — which is why
:meth:`~InvariantOracle.check` runs after a payload has been fully
handled, given up or dropped at a dead node, when every send a handler
made has been counted.

Spec-level runs go through :func:`check_spec_reduction`, which replays a
recorded reduction and differentially compares each rule-6 forwarding
decision (prefix comparison on full histories) against the implementation's
criterion (visit-count comparison on projected histories).  The two must
agree whenever the projections have different lengths; equal projections
are the documented tie — the spec forwards counter-clockwise, the bounded
implementation clockwise — and are exempt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ReproError
from repro.core.messages import GimmeMsg, LoanMsg, LoanReturnMsg, TokenMsg
from repro.core.protocols import ROWS
from repro.metrics.stats import mean, percentile
from repro.sim.kernel import Simulator
from repro.specs.common import is_ring_prefix, project_ring

__all__ = ["OracleViolation", "InvariantOracle", "Verdict", "safety",
           "convergence", "check_spec_reduction"]

_LINEAGE = (TokenMsg, LoanMsg, LoanReturnMsg)


class OracleViolation(ReproError):
    """A safety invariant failed during a fuzz run."""

    def __init__(self, invariant: str, detail: str, context: Optional[Dict] = None):
        super().__init__(f"{invariant}: {detail}")
        self.invariant = invariant
        self.detail = detail
        self.context = dict(context or {})


@dataclass(frozen=True)
class Verdict:
    """What the oracle concludes from its census; build one with
    :func:`safety` or :func:`convergence`."""

    converging: bool = False
    strict: bool = False
    bound: float = 0.0


def safety(strict: bool = False) -> Verdict:
    """Safety from legal states; ``strict`` demands exactly one unit at
    the newest epoch — valid only for schedules that cannot destroy the
    token (no crashes, no injected token loss)."""
    return Verdict(strict=strict)


def convergence(bound: float) -> Verdict:
    """Closure + convergence within ``bound`` clock units of the last
    injection (see :func:`repro.stabilize.bound.convergence_bound`)."""
    return Verdict(converging=True, bound=bound)


class InvariantOracle:
    """Network-wide invariant checks hooked into a live cluster.

    Attach *before* the cluster runs (only messages sent after
    :meth:`attach` are counted).
    """

    def __init__(self, cluster, protocol: str = "",
                 verdict: Verdict = Verdict()) -> None:
        self.cluster = cluster
        self.protocol = protocol
        self.verdict = verdict
        self.checks = 0
        self.injected_token_losses = 0
        #: First breach seen on an event loop (on a simulator it raises).
        self.violation: Optional[OracleViolation] = None
        # Shadow state, reconstructed from the message/event stream.
        self._seen: Dict[int, int] = {}          # node -> |ring(H_x)| - 1
        self._inflight: Dict[int, int] = {}      # epoch -> lineage msgs
        self._stamps: Dict[Tuple[int, int], Set[int]] = {}  # (z, seq) -> stamps
        self._lineage_lost = 0                   # units a fault destroyed
        self._losses_armed = 0                   # tokens to swallow on arrival
        self._attached = False
        self._raise = isinstance(cluster.sim, Simulator)
        # Convergence verdict state.
        #: Closed injection-to-legitimacy intervals, in clock units (where
        #: a RecoveryTracker measures *service* restoration after a crash,
        #: these measure *state* convergence after arbitrary corruption).
        self.samples: List[float] = []
        self.injections = 0
        #: Time of the injection whose episode is still open (the
        #: arbitrary state at attach counts as the first injection).
        self._pending: Optional[float] = 0.0
        #: Start of the current unbroken stretch of legitimacy.
        self._legit_since: Optional[float] = None

    # -- wiring ---------------------------------------------------------------

    def attach(self) -> None:
        if self._attached:
            return
        self._attached = True
        self.cluster.network.on_drop.append(self._on_drop)
        self.cluster.on_driver.append(self._wire_driver)
        for node, driver in self.cluster.drivers.items():
            self._wire_driver(node, driver)
        self._pending = self._now()

    def lose_token(self) -> None:
        """Injected token loss: the next token that reaches a live node
        vanishes instead, a declared loss that relaxes strict
        conservation."""
        self._losses_armed += 1

    def _now(self) -> float:
        return self.cluster.sim.time()

    def _fail(self, invariant: str, detail: str, **context) -> None:
        context.setdefault("now", self._now())
        violation = OracleViolation(invariant, detail, context)
        if self._raise:
            raise violation
        if self.violation is None:
            self.violation = violation

    def _core(self, node: int):
        return self.cluster.drivers[node].core

    def _wire_driver(self, node: int, driver) -> None:
        driver.on_send_msg.append(self.sent)
        driver.on_control.append(
            lambda src, msg, _node=node: self._arrived(_node, msg))
        driver.on_handled.append(lambda src, msg: self.check())
        driver.subscribe(self._on_app_event)
        if driver.channel is not None:
            driver.channel.on_give_up.append(self._given_up)
        # (Re)sync the shadow history with the core we now observe: a
        # restarted node's restored ``last_visit`` *is* its observable
        # history (the pre-crash tail is genuinely forgotten).
        self._seen[node] = driver.core.last_visit

    def _arrived(self, node: int, msg: object) -> bool:
        """A payload reached ``node``'s core: a lineage message settles
        here, or is swallowed when a token loss is armed."""
        if not isinstance(msg, _LINEAGE):
            return False
        if self._losses_armed and isinstance(msg, TokenMsg):
            self._losses_armed -= 1
            self.injected_token_losses += 1
            self.settled(msg, lost=True)
            return True
        self.settled(msg, lost=False)
        self.loan_accepted(node, msg)
        return False

    def _given_up(self, src: int, dst: int, msg: object) -> None:
        if isinstance(msg, _LINEAGE):
            self.settled(msg, lost=True)
        self.check()

    def _on_drop(self, src: int, dst: int, msg: object, reason: str) -> None:
        # A raw lineage message dies here: its addressee is dead, or (on
        # the socket transport) it was never framed.  A dropped ARQ frame
        # is not terminal: the channel retransmits it or gives it up.
        if isinstance(msg, _LINEAGE):
            self.settled(msg, lost=True)
        if reason in ("down", "detached"):
            self.check()

    def _on_app_event(self, node: int, kind: str, payload: tuple, now: float) -> None:
        if kind == "token_visit":
            # payload = (node_id, clock): the canonical visit event.
            self.visited(node, payload[1])

    # -- the four events ------------------------------------------------------

    def sent(self, src: int, dst: int, msg: object) -> None:
        """A logical protocol send (once per payload)."""
        if isinstance(msg, _LINEAGE):
            epoch = getattr(msg, "epoch", 0)
            self._inflight[epoch] = self._inflight.get(epoch, 0) + 1
        if self.verdict.converging:
            # Shadow divergence, hop clocks and search stamps presume a
            # legal history; corrupted state breaks them by construction.
            return
        if isinstance(msg, TokenMsg):
            self._check_token_send(src, dst, msg)
        elif isinstance(msg, GimmeMsg):
            self._check_gimme_send(src, dst, msg)

    def settled(self, msg: object, lost: bool) -> None:
        """An in-flight lineage message reached a terminal event.  Floors
        at zero: under crash/restart a payload can be both given up *and*
        later delivered by a wire copy, and the floor keeps that benign."""
        epoch = getattr(msg, "epoch", 0)
        count = self._inflight.get(epoch, 0)
        if count > 1:
            self._inflight[epoch] = count - 1
        else:
            self._inflight.pop(epoch, None)
        if lost:
            self._lineage_lost += 1

    def visited(self, node: int, clock: int) -> None:
        """The only place a node's ring projection grows (rule 4)."""
        self._seen[node] = clock

    def loan_accepted(self, node: int, msg: object) -> None:
        """Mirror the borrower's ``H_x`` update before its core runs: the
        loan carries the lender's clock, and accepting it is a ring
        contact — unless the fault-tolerant core's epoch fence discards
        it first."""
        if isinstance(msg, LoanMsg) and msg.requester == node:
            if msg.epoch >= self._core(node).epoch:
                self._seen[node] = msg.clock

    def check(self) -> None:
        """Draw the verdict at a quiescent point."""
        self.checks += 1
        if self.verdict.converging:
            self._observe(self._now())
        else:
            self._check_conservation()

    # -- safety: shadow differential ------------------------------------------

    def _history(self, src: int, doing: str) -> int:
        """``src``'s shadow history, which its ``last_visit`` must equal."""
        shadow = self._seen[src]
        impl = self._core(src).last_visit
        if impl != shadow:
            self._fail(
                "shadow-divergence",
                f"node {src} {doing} with last_visit={impl} but its "
                f"observable history ends at visit {shadow}",
                node=src, impl=impl, shadow=shadow,
            )
        return shadow

    def _check_token_send(self, src: int, dst: int, msg: TokenMsg) -> None:
        shadow = self._history(src, "forwards the token")
        if ROWS[self.protocol].strict_hop:
            if msg.clock != shadow + 1:
                self._fail(
                    "hop-clock",
                    f"token hop {src}->{dst} carries clock {msg.clock}, "
                    f"expected {shadow + 1} (one new visit per hop, rule 4)",
                    src=src, dst=dst, clock=msg.clock, shadow=shadow,
                )
        elif msg.clock not in (shadow, shadow + 1):
            # Direct hand-over (no visit) or circulation hop (+1); anything
            # else fabricates or loses history.
            self._fail(
                "hop-clock",
                f"token hop {src}->{dst} carries clock {msg.clock}, expected "
                f"{shadow} (hand-over) or {shadow + 1} (circulation)",
                src=src, dst=dst, clock=msg.clock, shadow=shadow,
            )

    def _check_gimme_send(self, src: int, dst: int, msg: GimmeMsg) -> None:
        shadow = self._history(src, "sends a gimme")
        key = (msg.requester, msg.req_seq)
        if src == msg.requester:
            # A (re)launch snapshots the requester's own H_z.
            if msg.visit_stamp != shadow:
                self._fail(
                    "stamp-snapshot",
                    f"node {src} launches a search stamped {msg.visit_stamp} "
                    f"but its history ends at visit {shadow}",
                    node=src, stamp=msg.visit_stamp, shadow=shadow,
                )
            self._stamps.setdefault(key, set()).add(msg.visit_stamp)
            return
        # A forward must keep the requester's snapshot frozen (rule 6
        # copies H_z verbatim into the forwarded gimme).
        launched = self._stamps.get(key)
        if launched is not None and msg.visit_stamp not in launched:
            self._fail(
                "stamp-mutation",
                f"gimme for requester {msg.requester} seq {msg.req_seq} "
                f"forwarded by {src} carries stamp {msg.visit_stamp}, "
                f"launched with {sorted(launched)}",
                src=src, requester=msg.requester, stamp=msg.visit_stamp,
            )
        # Rule 6 differential: the spec steers by ⊂_C on full histories,
        # the impl by comparing visit counts.  Recompute the direction from
        # the shadow counts and require the impl's target to match.
        if msg.span < 1:
            return
        hop = self._core(src).hop
        ccw, cw = hop(-msg.span), hop(msg.span)
        if ccw == cw:
            return
        expected = ccw if shadow < msg.visit_stamp else cw
        if dst not in (expected, msg.requester):
            self._fail(
                "search-direction",
                f"node {src} (seen visit {shadow}) forwarded a gimme "
                f"stamped {msg.visit_stamp} to {dst}; rule 6 dictates "
                f"{expected} ({'ccw' if expected == ccw else 'cw'})",
                src=src, dst=dst, expected=expected,
                shadow=shadow, stamp=msg.visit_stamp,
            )

    # -- safety: conservation --------------------------------------------------

    def _units(self) -> Dict[int, List[str]]:
        """Token units per epoch: who holds, who borrows, what's in flight."""
        units: Dict[int, List[str]] = {}
        for node, driver in self.cluster.drivers.items():
            if driver.crashed:
                continue
            core = driver.core
            if core.has_token:
                units.setdefault(core.epoch, []).append(f"held@{node}")
            elif core._loan_pending is not None:
                units.setdefault(core.epoch, []).append(f"loan@{node}")
        for epoch, count in self._inflight.items():
            units.setdefault(epoch, []).extend(["inflight"] * count)
        return units

    def _check_conservation(self) -> None:
        strict = self.verdict.strict
        units = self._units()
        if not units:
            if strict and not self._lineage_lost:
                self._fail(
                    "token-conservation",
                    "the token vanished: no holder, no borrower, nothing "
                    "in flight, and no fault destroyed it",
                )
            return
        newest = max(units)
        if len(units[newest]) > 1:
            self._fail(
                "token-conservation",
                f"{len(units[newest])} token units coexist at epoch "
                f"{newest}: {units[newest]}",
                epoch=newest, units=units[newest],
            )
        if strict and not self._lineage_lost and len(units[newest]) != 1:
            self._fail(
                "token-conservation",
                f"expected exactly one token unit at epoch {newest}, "
                f"found {units[newest]}",
                epoch=newest, units=units[newest],
            )


    # -- convergence: closure + bounded convergence ---------------------------

    def inject(self, now: float) -> None:
        """A fault (corruption or classic) was just applied: (re)open the
        episode and resync the shadow state the mutation invalidated."""
        self.injections += 1
        self._pending = now
        self._legit_since = None
        for node, driver in self.cluster.drivers.items():
            self._seen[node] = driver.core.last_visit
        self._observe(now)

    def _unit_total(self) -> int:
        return sum(len(owners) for owners in self._units().values())

    def _observe(self, now: float) -> None:
        total = self._unit_total()
        legitimate = total == 1
        bound = self.verdict.bound
        if self._pending is not None:
            if legitimate:
                if self._legit_since is None:
                    self._legit_since = now
                if now - self._pending >= bound:
                    self._close()  # converged and held for the whole bound
            else:
                self._legit_since = None
                if now - self._pending > bound:
                    self._fail(
                        "convergence",
                        f"{total} token units "
                        f"{now - self._pending:.1f} after the last "
                        f"injection (bound {bound:.1f}): the cluster "
                        f"failed to stabilize",
                        units=self._units(), total=total,
                        injected_at=self._pending,
                    )
        elif not legitimate:
            self._fail(
                "closure",
                f"left the legitimate predicate after stabilizing: "
                f"{total} token units with no injection pending",
                units=self._units(), total=total,
            )

    def finalize(self, now: float) -> None:
        """End-of-run verdict: an open episode must be legitimate (the
        runner guarantees every injection leaves at least ``bound`` of
        horizon, so illegitimacy here is a genuine failure)."""
        if self._pending is None:
            return
        total = self._unit_total()
        if total != 1:
            self._fail(
                "convergence",
                f"run ended {now - self._pending:.1f} after the last "
                f"injection with {total} token units",
                units=self._units(), total=total,
                injected_at=self._pending,
            )
            return
        self._close()

    def _close(self) -> None:
        """Close the open episode with its sample: permanent legitimacy
        from ``_legit_since`` (None = the injection landed in an
        already-legal component, never illegitimate)."""
        since = self._legit_since if self._legit_since is not None \
            else self._pending
        self.samples.append(max(0.0, since - self._pending))
        self._pending = None

    def stabilization(self) -> Dict[str, object]:
        """The ``stabilization_time`` metric block for reports."""
        return {
            "episodes": float(len(self.samples)),
            "stabilization_time": mean(self.samples),
            "stabilization_p99": percentile(self.samples, 99.0),
            "max_stabilization_time": max(self.samples, default=0.0),
            "samples": list(self.samples),
            "injections": float(self.injections),
            "bound": self.verdict.bound,
        }


# ---------------------------------------------------------------------------
# Spec-level differential
# ---------------------------------------------------------------------------

def check_spec_reduction(reduction, n: int) -> int:
    """Differentially check every rule-6 step of a recorded reduction.

    For each forwarding decision the spec took (prefix comparison ``⊂_C``
    on the full histories ``H`` and ``H_z``), recompute the bounded
    implementation's criterion (ring-projection *length* comparison, the
    ``last_visit < visit_stamp`` test) and demand agreement.  Equal
    projections are the documented tie and exempt.  Returns the number of
    decisions compared; raises :class:`OracleViolation` on disagreement.
    """
    compared = 0
    for index, step in enumerate(reduction.steps):
        if step.rule_name != "6":
            continue
        binding = step.binding
        h, hz = binding.get("H"), binding.get("Hz")
        if h is None or hz is None:
            continue
        len_h = len(project_ring(h))
        len_hz = len(project_ring(hz))
        if len_h == len_hz:
            continue  # the tie: spec goes ccw, impl goes cw — exempt
        spec_ccw = is_ring_prefix(h, hz)
        impl_ccw = len_h < len_hz
        compared += 1
        if spec_ccw != impl_ccw:
            raise OracleViolation(
                "rule6-differential",
                f"step {index}: spec forwards "
                f"{'ccw' if spec_ccw else 'cw'} (⊂_C on histories) but the "
                f"visit-count criterion says "
                f"{'ccw' if impl_ccw else 'cw'} "
                f"(|ring(H)|={len_h}, |ring(Hz)|={len_hz})",
                {"step": index, "len_h": len_h, "len_hz": len_hz},
            )
    return compared
