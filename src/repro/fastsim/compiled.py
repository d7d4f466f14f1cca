"""The array-compiled event loop.

One generated closure replaces the whole object stack for a run:
``Simulator.run`` + ``NodeDriver._apply`` + ``Network.send`` + the
per-node core handlers collapse into a single dispatch loop over plain
tuples.  Everything hot is a closure cell or a loop local — no attribute
lookups, no port calls, no message/handle allocation.

Event calendar
--------------

Entries are plain tuples ``(time, seq, tag, ...)``; ``seq`` mirrors the
kernel's global sequence counter, so ``(time, seq)`` reproduces the
kernel heap's order exactly.  Deliveries under the
constant-delay model go to a **deque**: constant latency means send
order equals delivery order, so the queue is already sorted and a
heap push/pop per message is wasted work.  Timers, workload ticks and
scheduled requests (and all deliveries under non-constant delay models)
use a conventional heap; the loop merges the two heads, comparing times
first and falling back to a full tuple comparison only on a tie.

Served-carry interning
----------------------

Under rotation GC the hot cost is merging served piggybacks.  Every
carry tuple the engine produces is *interned* (one canonical object per
value), so the merge memo can be keyed by ``(id(served), id(base))`` —
two integer hashes instead of hashing 8-16 pair tuples.  Because sends
ship carry objects by reference and merges resolve to interned outputs,
the same canonical objects meet again and again; most merges are
answered by the memo without building a dict or calling ``sorted``.

Both tables are **process-level** (module globals), not per-engine:
merging is value-pure, so canonical objects and memo entries computed by
one run answer for every later run in the process.  Benchmark repeats
and sharded workers therefore run with a warm cache.  Memo entries keep
``(served, base, out)`` alive, so the id-based keys stay valid exactly
as long as the entry exists, independent of intern-table eviction; the
memo is additionally partitioned by piggyback width, since the trim in
the merge makes the result depend on it.

Behavioural mirroring
---------------------

The loop replicates, exactly:

- the kernel's run semantics — ``until`` is checked against the *peeked*
  head (clock then advances to ``until`` without popping), drained queues
  advance the clock to ``until``, and cancelled timers are skipped
  without counting as executed (forward timers carry a generation stamp;
  a stale generation is the cancelled case);
- ``Cluster.run``'s chunked budget loop (rounds/grants bounds are only
  checked between chunks of ``max(64, n // 8 * 10)`` events);
- the global seq-allocation order of sends and timers, including the
  effect-list ordering inside each handler;
- the shared-RNG draw order: workload draws (gap at bind; node then next
  gap per tick) and network draws (loss/dup only for unreliable
  messages, dup copy scheduled before the original, one delay sample per
  scheduled copy under non-constant delay models).

With ``state.digest`` on, every send feeds the same
``"{now:.6f}|{src}|{dst}|{msg!r}"`` CRC32 stream the fuzz harness
records, reconstructing the frozen-dataclass reprs field for field — so
a fast replay of a corpus case must reproduce the committed checksum.
"""

from __future__ import annotations

import gc
import heapq
import zlib
from collections import deque
from typing import Optional

from repro.errors import ProtocolError, SimulationError
from repro.fastsim.state import (TAG_FWD, TAG_GIMME, TAG_LOAN,
                                 TAG_LOAN_RETURN, TAG_REL, TAG_REQUEST,
                                 TAG_RETRY, TAG_TOKEN, TAG_WORKLOAD,
                                 ArrayState)

__all__ = ["Engine", "compile_engine"]

_INF = float("inf")
#: Each table is cleared independently past this size; correctness does
#: not depend on retention (a miss just recomputes).
_MEMO_LIMIT = 1 << 16

#: Process-level canonical carry tuples: value -> the one object used
#: for that value everywhere.  Seeded with the empty carry.
_INTERN: dict = {(): ()}
#: Process-level merge memos, one per piggyback width:
#: pb -> {(id(served), id(base)): (served, base, out)}.
_MEMO_BY_PB: dict = {}
#: Process-level {z: seq} dict views of canonical carries, keyed by
#: identity: id(carry) -> (carry, view).  Every carry in circulation is
#: interned, so each view is built once per process instead of once per
#: node per carry change; the value keeps the carry alive, so the id
#: key stays valid as long as the entry exists.  Views are read-only.
_VIEWS: dict = {}


class Engine:
    """Handle to one compiled run loop (see :func:`compile_engine`)."""

    __slots__ = ("state", "run", "start", "request", "request_at",
                 "add_fixed_rate", "sync")

    def __init__(self, state, run, start, request, request_at,
                 add_fixed_rate, sync):
        self.state = state
        self.run = run
        self.start = start
        self.request = request
        self.request_at = request_at
        self.add_fixed_rate = add_fixed_rate
        self.sync = sync


def compile_engine(st: ArrayState) -> Engine:
    """Close the dispatch loop over ``st``'s columns and return it."""
    n = st.n
    is_bs = st.is_bs
    rotation = st.rotation
    inverse = st.inverse
    config = st.config
    piggyback = config.served_piggyback
    single_outstanding = config.single_outstanding
    throttle = config.forward_throttle
    idle_pause = config.idle_pause
    service_time = config.service_time
    retry_timeout = config.retry_timeout

    rng = st.rng
    rng_random = rng.random
    rng_expovariate = rng.expovariate
    # randrange(n) is validation + _randbelow(n); calling _randbelow
    # directly draws the identical stream without re-validating the
    # constant bound every workload tick.
    _randbelow = rng._randbelow
    loss_rate = st.loss_rate
    dup_rate = st.dup_rate
    use_dq = st.use_dq
    const_delay = st.delay.delay if use_dq else 0.0
    sample = st.delay.sample
    digest_on = st.digest

    # Columns (shared with st by reference).
    has_token = st.has_token
    ready = st.ready
    outstanding = st.outstanding
    parked = st.parked
    serving = st.serving
    demand_seen = st.demand_seen
    gimme_inflight = st.gimme_inflight
    clock = st.clock
    round_no = st.round_no
    req_seq = st.req_seq
    last_visit = st.last_visit
    granted_seq = st.granted_seq
    fwd_gen = st.fwd_gen
    waiting = st.waiting
    lent_to = st.lent_to
    carry = st.carry
    traps = st.traps
    trap_latest = st.trap_latest
    trap_minclk = st.trap_minclk
    gc_clean = st.gc_clean
    gimme_queue = st.gimme_queue
    loan_pending = st.loan_pending
    applog_append = st.applog.append

    # Scalar run state (flushed back to st by sync()).
    now = st.now
    seq = st.seq
    executed_total = st.executed_total
    sent_total = st.sent_total
    dropped = st.dropped_count
    sent_token = st.sent_by_type["TokenMsg"]
    sent_gimme = st.sent_by_type["GimmeMsg"]
    sent_loan = st.sent_by_type["LoanMsg"]
    sent_ret = st.sent_by_type["LoanReturnMsg"]
    grants_count = st.grants_count
    rounds_seen = st.rounds_seen
    crc = st.send_crc
    started = False

    heap: list = []
    dq: deque = deque()
    heappush = heapq.heappush
    heappop = heapq.heappop
    crc32 = zlib.crc32

    intern_tab = _INTERN
    merge_memo = _MEMO_BY_PB.get(piggyback)
    if merge_memo is None:
        _MEMO_BY_PB[piggyback] = merge_memo = {}
    memo_get = merge_memo.get
    views = _VIEWS
    views_get = views.get

    def view(c):
        """The {z: seq} dict view of a canonical carry (cached by id)."""
        e = views_get(id(c))
        if e is None:
            if len(views) > _MEMO_LIMIT:
                views.clear()
            views[id(c)] = e = (c, dict(c))
        return e[1]

    # -- send paths (network.send + kernel.post, fused) --------------------

    def send_token(src, dst, clk, rnd, served):
        nonlocal seq, sent_total, sent_token, crc
        sent_total += 1
        sent_token += 1
        if digest_on:
            crc = crc32(
                (f"{now:.6f}|{src}|{dst}|TokenMsg(clock={clk}, "
                 f"round_no={rnd}, served={served!r}, membership=None, "
                 f"epoch=0, suspects=())").encode("utf-8"), crc)
        if use_dq:
            dq.append((now + const_delay, seq, TAG_TOKEN, dst, clk, rnd,
                       served))
        else:
            heappush(heap, (now + sample(rng, src, dst), seq, TAG_TOKEN,
                            dst, clk, rnd, served))
        seq += 1

    def send_loan(src, dst, clk, rnd, lender, requester, rseq, served,
                  trail):
        nonlocal seq, sent_total, sent_loan, crc
        sent_total += 1
        sent_loan += 1
        if digest_on:
            crc = crc32(
                (f"{now:.6f}|{src}|{dst}|LoanMsg(clock={clk}, "
                 f"round_no={rnd}, lender={lender}, requester={requester}, "
                 f"req_seq={rseq}, served={served!r}, trail={trail!r}, "
                 f"epoch=0)").encode("utf-8"), crc)
        if use_dq:
            dq.append((now + const_delay, seq, TAG_LOAN, dst, clk, rnd,
                       lender, requester, rseq, served, trail))
        else:
            heappush(heap, (now + sample(rng, src, dst), seq, TAG_LOAN, dst,
                            clk, rnd, lender, requester, rseq, served,
                            trail))
        seq += 1

    def send_loan_return(src, dst, clk, rnd, served):
        nonlocal seq, sent_total, sent_ret, crc
        sent_total += 1
        sent_ret += 1
        if digest_on:
            crc = crc32(
                (f"{now:.6f}|{src}|{dst}|LoanReturnMsg(clock={clk}, "
                 f"round_no={rnd}, served={served!r}, epoch=0)"
                 ).encode("utf-8"), crc)
        if use_dq:
            dq.append((now + const_delay, seq, TAG_LOAN_RETURN, dst, served))
        else:
            heappush(heap, (now + sample(rng, src, dst), seq,
                            TAG_LOAN_RETURN, dst, served))
        seq += 1

    def send_gimme(src, dst, requester, rseq, span, vstamp, trail):
        # The one unreliable message: loss/dup draws happen here, in the
        # network's order (loss, dup, then one delay sample per copy).
        nonlocal seq, sent_total, sent_gimme, dropped, crc
        sent_total += 1
        sent_gimme += 1
        if digest_on:
            crc = crc32(
                (f"{now:.6f}|{src}|{dst}|GimmeMsg(requester={requester}, "
                 f"req_seq={rseq}, span={span}, visit_stamp={vstamp}, "
                 f"trail={trail!r})").encode("utf-8"), crc)
        if loss_rate and rng_random() < loss_rate:
            dropped += 1
            return
        if dup_rate and rng_random() < dup_rate:
            if use_dq:
                dq.append((now + const_delay, seq, TAG_GIMME, dst, requester,
                           rseq, span, vstamp, trail))
            else:
                heappush(heap, (now + sample(rng, src, dst), seq, TAG_GIMME,
                                dst, requester, rseq, span, vstamp, trail))
            seq += 1
        if use_dq:
            dq.append((now + const_delay, seq, TAG_GIMME, dst, requester,
                       rseq, span, vstamp, trail))
        else:
            heappush(heap, (now + sample(rng, src, dst), seq, TAG_GIMME,
                            dst, requester, rseq, span, vstamp, trail))
        seq += 1

    # -- served bookkeeping (binary search, rotation GC) -------------------
    #
    # The carry's {node: seq} dict view is identity-cached per node
    # (rebuilt only when the carry object changed) and inlined at every
    # use site — returning a bound ``.get`` would allocate a method
    # object per probe.

    def record_served(node, z, s):
        if not rotation or piggyback == 0:
            return
        entries = [p for p in carry[node] if p[0] != z]
        entries.append((z, s))
        t = tuple(entries[-piggyback:])
        out = intern_tab.get(t)
        if out is None:
            if len(intern_tab) > _MEMO_LIMIT:
                intern_tab.clear()
                intern_tab[()] = ()
            intern_tab[t] = out = t
        carry[node] = out
        gc_clean[node] = 0

    def merge_miss(node, served, base):
        # Cold path of the merge: the arms answer memo hits inline.
        merged = dict(base)
        g = merged.get
        for z, s in served:
            if g(z, -1) < s:
                merged[z] = s
        entries = sorted(merged.items())
        if piggyback and len(entries) > piggyback:
            entries = entries[-piggyback:]
        t = tuple(entries)
        out = intern_tab.get(t)
        if out is None:
            intern_tab[t] = out = t
        if len(merge_memo) > _MEMO_LIMIT:
            merge_memo.clear()
        if len(intern_tab) > _MEMO_LIMIT:
            intern_tab.clear()
            intern_tab[()] = ()
            intern_tab[out] = out
        merge_memo[(id(served), id(base))] = (served, base, out)
        if out is not base:
            carry[node] = out
            gc_clean[node] = 0

    def gc_traps(node):
        # TrapStore.expire + drop_served fused into one conditional rebuild
        # (both are pure filters, so one pass with the conjunction yields
        # the same final queue).  Detection is O(|carry|) at worst: the
        # expiry half is answered by the conservative min-set_clock bound;
        # the served half by the gc_clean flag when nothing relevant
        # changed, else by probing the trap dict with the <=piggyback
        # carry keys (a hit needs the requester in both).  A false expiry
        # trigger just rebuilds an identical queue and tightens the bound.
        d = traps[node]
        stale = clock[node] - n
        if trap_minclk[node] > stale:
            if gc_clean[node]:
                return
            smap = view(carry[node])
            dget = d.get
            for z, s in smap.items():
                t = dget(z)
                if t is not None and s >= t[1]:
                    break
            else:
                gc_clean[node] = 1
                return
        else:
            smap = view(carry[node])
        nd = {}
        mn = _INF
        sget = smap.get
        for z, t in d.items():
            if t[2] > stale and sget(z, -1) < t[1]:
                nd[z] = t
                c2 = t[2]
                if c2 < mn:
                    mn = c2
        traps[node] = nd
        trap_minclk[node] = mn
        gc_clean[node] = 1

    # -- binary-search protocol steps --------------------------------------

    def next_loan(node):
        """Pop the next live trap and loan the token; True when loaned."""
        d = traps[node]
        smap = view(carry[node])
        sget = smap.get
        while d:
            z = next(iter(d))
            t = d.pop(z)
            if z == node:
                continue
            if sget(z, -1) >= t[1]:
                continue
            has_token[node] = 0
            lent_to[node] = z
            target = z
            trail = ()
            if inverse and t[3]:
                back = tuple(h for h in reversed(t[3])
                             if h != node and h != z)
                if back:
                    target = back[0]
                    trail = back[1:]
            send_loan(node, target, clock[node], round_no[node], node,
                      z, t[1], carry[node], trail)
            return True
        return False

    def forward_bs(node):
        if n == 1:
            return
        has_token[node] = 0
        demand_seen[node] = 0
        succ = node + 1
        if succ == n:
            succ = 0
        send_token(node, succ, clock[node] + 1,
                   round_no[node] + 1 if succ == 0 else round_no[node],
                   carry[node])

    def forward_ring(node):
        if n == 1:
            return
        has_token[node] = 0
        succ = node + 1
        if succ == n:
            succ = 0
        send_token(node, succ, clock[node] + 1,
                   round_no[node] + 1 if succ == 0 else round_no[node], ())

    def advance_bs(node):
        nonlocal seq, grants_count
        if serving[node] or not has_token[node]:
            return
        if ready[node]:
            ready[node] = 0
            outstanding[node] = 0
            s = req_seq[node]
            granted_seq[node] = s
            record_served(node, node, s)
            w = waiting[node]            # deliver("granted") -> cluster
            if w >= 0:
                waiting[node] = -1
                applog_append((1, node, w, now))
                grants_count += 1
            if service_time > 0:
                serving[node] = 1
                heappush(heap, (now + service_time, seq, TAG_REL, node))
                seq += 1
                return
        if traps[node] and next_loan(node):
            return
        if idle_pause > 0 and not demand_seen[node]:
            parked[node] = 1
            heappush(heap, (now + idle_pause, seq, TAG_FWD, node,
                            fwd_gen[node]))
            seq += 1
            return
        forward_bs(node)

    def advance_ring(node):
        nonlocal seq, grants_count
        if serving[node]:
            return
        if ready[node]:
            ready[node] = 0
            s = req_seq[node]
            granted_seq[node] = s
            w = waiting[node]
            if w >= 0:
                waiting[node] = -1
                applog_append((1, node, w, now))
                grants_count += 1
            if service_time > 0:
                serving[node] = 1
                heappush(heap, (now + service_time, seq, TAG_REL, node))
                seq += 1
                return
        if idle_pause > 0:
            parked[node] = 1
            heappush(heap, (now + idle_pause, seq, TAG_FWD, node,
                            fwd_gen[node]))
            seq += 1
            return
        forward_ring(node)

    advance = advance_bs if is_bs else advance_ring

    def launch_search(node):
        nonlocal seq
        if n <= 1:
            return
        if outstanding[node] and single_outstanding:
            return
        outstanding[node] = 1
        gimme_inflight[node] = 1
        span = n // 2
        target = node + span
        if target >= n:
            target -= n
        send_gimme(node, target, node, req_seq[node], span,
                   last_visit[node], (node,))
        if retry_timeout > 0:
            heappush(heap, (now + retry_timeout, seq, TAG_RETRY, node,
                            req_seq[node]))
            seq += 1

    def on_gimme(node, requester, rseq, span, vstamp, trail):
        demand_seen[node] = 1
        if requester == node:
            return
        smap = view(carry[node])
        if smap.get(requester, -1) >= rseq:
            return
        # Trap it (both the holder and the relay branch do this first;
        # TrapStore.add inlined: the latest-seq gate, then an in-place
        # supersede — dict insertion order is the FIFO order).
        tl = trap_latest[node]
        known = tl.get(requester)
        if known is None or known < rseq:
            tl[requester] = rseq
            d = traps[node]
            slot = d.get(requester)
            if slot is not None:
                slot[1] = rseq
                slot[2] = vstamp
                slot[3] = trail
            else:
                d[requester] = [requester, rseq, vstamp, trail]
                gc_clean[node] = 0
            if vstamp < trap_minclk[node]:
                trap_minclk[node] = vstamp
        if has_token[node] or lent_to[node] >= 0:
            if has_token[node] and not serving[node]:
                if parked[node]:
                    parked[node] = 0
                    fwd_gen[node] += 1   # CancelTimer(forward)
                advance_bs(node)
            return
        half = span // 2
        if half < 1:
            return
        if throttle and gimme_inflight[node]:
            gimme_queue[node].append((requester, rseq, span, vstamp, trail))
            return
        if last_visit[node] < vstamp:
            target = node - half        # rule 6: token is behind us
            if target < 0:
                target += n
        else:
            target = node + half        # token is ahead (or unseen)
            if target >= n:
                target -= n
        if target == node or target == requester:
            return
        gimme_inflight[node] = 1
        send_gimme(node, target, requester, rseq, half, vstamp,
                   trail + (node,))

    def release_gimme_budget(node):
        # Slow path: callers have already cleared the inflight bit and
        # checked the holdback queue is non-empty.  The served view is
        # re-derived per message, as _is_served does — a grant inside
        # on_gimme's advance can change the carry mid-loop.
        queued = gimme_queue[node]
        gimme_queue[node] = []
        for idx, m in enumerate(queued):
            smap = view(carry[node])
            if smap.get(m[0], -1) >= m[1]:
                continue
            on_gimme(node, m[0], m[1], m[2], m[3], m[4])
            if gimme_inflight[node]:
                gimme_queue[node].extend(queued[idx + 1:])
                break

    # -- application entry points ------------------------------------------

    def handle_request(node):
        # Cluster.request + core.on_request, fused.
        if waiting[node] >= 0:
            return
        s = req_seq[node] + 1
        waiting[node] = s
        applog_append((0, node, s, now))
        ready[node] = 1
        req_seq[node] = s
        if is_bs:
            demand_seen[node] = 1
        if has_token[node] and not serving[node]:
            if parked[node]:
                parked[node] = 0
                fwd_gen[node] += 1       # CancelTimer(forward)
            advance(node)
        elif is_bs:
            if lent_to[node] >= 0:
                return                   # served when the loan returns
            launch_search(node)

    def request(node):
        if not 0 <= node < n:
            raise SimulationError(f"node {node} out of range")
        handle_request(node)

    def request_at(time, node):
        nonlocal seq
        heappush(heap, (time, seq, TAG_REQUEST, node))
        seq += 1

    def add_fixed_rate(mean_interval):
        # FixedRateWorkload.bind: draw the first gap immediately.
        nonlocal seq
        gap = rng_expovariate(1.0 / mean_interval)
        heappush(heap, (now + gap, seq, TAG_WORKLOAD, mean_interval))
        seq += 1

    def start():
        nonlocal started
        if started:
            return
        started = True
        # Only the initial holder (node 0) emits effects from on_start.
        advance(0)                       # token_visit at clock 0 is a no-op

    # -- the dispatch loop --------------------------------------------------

    def run(rounds: Optional[int] = None, until: Optional[float] = None,
            max_events: Optional[int] = None,
            grants: Optional[int] = None) -> None:
        nonlocal now, seq, executed_total, grants_count, rounds_seen
        nonlocal sent_total, sent_gimme, dropped, crc
        if rounds is None and until is None and max_events is None \
                and grants is None:
            raise SimulationError("run() needs at least one stopping bound")
        start()
        budget = max_events if max_events is not None else 200_000_000
        chunk = max(64, n // 8 * 10)
        until_bound = _INF if until is None else until
        # Allocation churn (calendar tuples, carries) with no cycles:
        # the generational collector only costs here, so park it.
        gc_was_on = gc.isenabled()
        if gc_was_on:
            gc.disable()
        try:
            _run_loop(rounds, until, grants, budget, chunk, until_bound)
        finally:
            if gc_was_on:
                gc.enable()

    def _run_loop(rounds, until, grants, budget, chunk, until_bound):
        nonlocal now, seq, executed_total, grants_count, rounds_seen
        nonlocal sent_total, sent_gimme, sent_loan, sent_ret, dropped, crc
        # Hot names re-bound as frame locals: the inner loop touches
        # these dozens of times per event and LOAD_FAST beats LOAD_DEREF.
        l_heap = heap
        l_dq = dq
        dq_popleft = dq.popleft
        dq_append = dq.append
        l_has_token = has_token
        l_ready = ready
        l_outstanding = outstanding
        l_serving = serving
        l_parked = parked
        l_demand = demand_seen
        l_inflight = gimme_inflight
        l_clock = clock
        l_round = round_no
        l_req_seq = req_seq
        l_last_visit = last_visit
        l_granted = granted_seq
        l_waiting = waiting
        l_lent = lent_to
        l_carry = carry
        l_vget = views_get
        l_view = view
        l_traps = traps
        l_latest = trap_latest
        l_minclk = trap_minclk
        l_clean = gc_clean
        l_gq = gimme_queue
        l_applog = applog_append
        l_memo_get = memo_get
        l_n = n
        l_rot = rotation
        l_bs = is_bs
        l_dqm = use_dq
        l_cd = const_delay
        l_dig = digest_on
        l_throttle = throttle
        l_service = service_time
        l_loss = loss_rate
        l_dup = dup_rate
        l_rand = rng_random
        l_pb = piggyback
        l_intern = intern_tab
        l_heappush = heappush
        l_heappop = heappop
        l_abs = advance_bs
        l_adv = advance
        l_gct = gc_traps
        l_mm = merge_miss
        l_ls = launch_search
        l_fbs = forward_bs
        l_fg = fwd_gen
        l_sample = sample
        l_expo = rng_expovariate
        l_rb = _randbelow
        l_crc32 = crc32
        l_lp = loan_pending
        l_rgb = release_gimme_budget
        l_hreq = handle_request
        l_slr = send_loan_return
        l_sl = send_loan
        while budget > 0:
            if rounds is not None and rounds_seen >= rounds:
                break
            if grants is not None and grants_count >= grants:
                break
            step = min(chunk, budget)
            executed = 0
            while executed < step:
                # Merge the deque and heap heads (peek before popping: an
                # entry beyond `until` must stay queued, clock moves to
                # `until` — kernel semantics).  Times decide almost
                # always; the full tuple comparison only breaks ties.
                if l_dq:
                    head = l_dq[0]
                    t = head[0]
                    if l_heap:
                        hh = l_heap[0]
                        ht = hh[0]
                        if ht < t or (ht == t and hh < head):
                            head = hh
                            t = ht
                            from_heap = True
                        else:
                            from_heap = False
                    else:
                        from_heap = False
                elif l_heap:
                    head = l_heap[0]
                    t = head[0]
                    from_heap = True
                else:
                    if until is not None and until > now:
                        now = until
                    break
                if t > until_bound:
                    now = until
                    break
                entry = l_heappop(l_heap) if from_heap else dq_popleft()
                tag = entry[2]
                # Arms ordered by delivery frequency on busy BS runs:
                # gimme, loan, loan-return, workload, token, then timers.
                # The gimme arm is on_gimme + send_gimme inlined (the
                # functions stay canonical for the throttle release
                # path); keep the two in sync.
                if tag == 1:
                    now = t
                    executed += 1
                    node = entry[3]
                    requester = entry[4]
                    l_demand[node] = 1
                    if requester == node:
                        continue
                    rseq = entry[5]
                    c = l_carry[node]
                    e = l_vget(id(c))
                    smap = e[1] if e is not None else l_view(c)
                    if smap.get(requester, -1) >= rseq:
                        continue
                    vstamp = entry[7]
                    tl = l_latest[node]
                    known = tl.get(requester)
                    if known is None or known < rseq:
                        tl[requester] = rseq
                        d = l_traps[node]
                        slot = d.get(requester)
                        if slot is not None:
                            slot[1] = rseq
                            slot[2] = vstamp
                            slot[3] = entry[8]
                        else:
                            d[requester] = [requester, rseq, vstamp,
                                            entry[8]]
                            l_clean[node] = 0
                        if vstamp < l_minclk[node]:
                            l_minclk[node] = vstamp
                    if l_has_token[node] or l_lent[node] >= 0:
                        if l_has_token[node] and not l_serving[node]:
                            if l_parked[node]:
                                l_parked[node] = 0
                                l_fg[node] += 1
                            l_abs(node)
                        continue
                    half = entry[6] // 2
                    if half < 1:
                        continue
                    if l_throttle and l_inflight[node]:
                        l_gq[node].append((requester, rseq, entry[6],
                                           vstamp, entry[8]))
                        continue
                    if l_last_visit[node] < vstamp:
                        target = node - half
                        if target < 0:
                            target += l_n
                    else:
                        target = node + half
                        if target >= l_n:
                            target -= l_n
                    if target == node or target == requester:
                        continue
                    l_inflight[node] = 1
                    trail = entry[8] + (node,)
                    sent_total += 1
                    sent_gimme += 1
                    if l_dig:
                        crc = l_crc32(
                            (f"{now:.6f}|{node}|{target}|GimmeMsg("
                             f"requester={requester}, req_seq={rseq}, "
                             f"span={half}, visit_stamp={vstamp}, "
                             f"trail={trail!r})").encode("utf-8"), crc)
                    if l_loss and l_rand() < l_loss:
                        dropped += 1
                        continue
                    if l_dup and l_rand() < l_dup:
                        if l_dqm:
                            dq_append((now + l_cd, seq, 1, target,
                                       requester, rseq, half, vstamp, trail))
                        else:
                            l_heappush(l_heap, (now + l_sample(rng, node,
                                                           target),
                                              seq, 1, target,
                                              requester, rseq, half, vstamp,
                                              trail))
                        seq += 1
                    if l_dqm:
                        dq_append((now + l_cd, seq, 1, target,
                                   requester, rseq, half, vstamp, trail))
                    else:
                        l_heappush(l_heap, (now + l_sample(rng, node, target),
                                          seq, 1, target, requester,
                                          rseq, half, vstamp, trail))
                    seq += 1
                elif tag == 2:
                    now = t
                    executed += 1
                    dst = entry[3]
                    requester = entry[7]
                    if requester != dst:
                        # Inverse-GC relay hop: clear our trap, pass along.
                        l_traps[dst].pop(requester, None)
                        trail = entry[10]
                        nxt = trail[0] if trail else requester
                        l_sl(dst, nxt, entry[4], entry[5], entry[6],
                                  requester, entry[8], entry[9], trail[1:])
                        continue
                    clk = entry[4]
                    rnd = entry[5]
                    lender = entry[6]
                    l_last_visit[dst] = clk
                    l_clock[dst] = clk
                    l_round[dst] = rnd
                    if l_rot:
                        served = entry[9]
                        base = l_carry[dst]
                        hit = l_memo_get((id(served), id(base)))
                        if hit is not None:
                            nc = hit[2]
                            if nc is not base:
                                l_carry[dst] = nc
                                l_clean[dst] = 0
                        else:
                            l_mm(dst, served, base)
                    if l_ready[dst]:
                        l_ready[dst] = 0
                        l_outstanding[dst] = 0
                        s = l_req_seq[dst]
                        l_granted[dst] = s
                        if l_rot and l_pb:       # record_served inlined
                            entries = [p for p in l_carry[dst]
                                       if p[0] != dst]
                            entries.append((dst, s))
                            tt = tuple(entries[-l_pb:])
                            out = l_intern.get(tt)
                            if out is None:
                                if len(l_intern) > _MEMO_LIMIT:
                                    l_intern.clear()
                                    l_intern[()] = ()
                                l_intern[tt] = out = tt
                            l_carry[dst] = out
                            l_clean[dst] = 0
                        w = l_waiting[dst]
                        if w >= 0:
                            l_waiting[dst] = -1
                            l_applog((1, dst, w, now))
                            grants_count += 1
                        if l_service > 0:
                            l_serving[dst] = 1
                            l_lp[dst] = (lender, l_carry[dst])
                            l_heappush(l_heap, (now + l_service, seq, 13,
                                              dst))
                            seq += 1
                            continue
                    # else: stale loan (served through rotation) — the
                    # return below bounces it straight back.
                    served = l_carry[dst]    # send_loan_return inlined
                    sent_total += 1
                    sent_ret += 1
                    if l_dig:
                        crc = l_crc32(
                            (f"{now:.6f}|{dst}|{lender}|LoanReturnMsg("
                             f"clock={clk}, round_no={rnd}, "
                             f"served={served!r}, epoch=0)"
                             ).encode("utf-8"), crc)
                    if l_dqm:
                        dq_append((now + l_cd, seq, 3, lender,
                                   served))
                    else:
                        l_heappush(l_heap, (now + l_sample(rng, dst, lender),
                                          seq, 3, lender,
                                          served))
                    seq += 1
                elif tag == 3:
                    now = t
                    executed += 1
                    dst = entry[3]
                    if l_lent[dst] < 0:
                        raise ProtocolError(
                            f"node {dst}: loan return without "
                            f"outstanding loan")
                    l_lent[dst] = -1
                    l_has_token[dst] = 1
                    if l_rot:
                        served = entry[4]
                        base = l_carry[dst]
                        hit = l_memo_get((id(served), id(base)))
                        if hit is not None:
                            nc = hit[2]
                            if nc is not base:
                                l_carry[dst] = nc
                                l_clean[dst] = 0
                        else:
                            l_mm(dst, served, base)
                        if l_traps[dst] and (
                                not l_clean[dst]
                                or l_minclk[dst] <= l_clock[dst] - l_n):
                            l_gct(dst)
                    l_inflight[dst] = 0      # release budget, fast path
                    if l_gq[dst]:
                        l_rgb(dst)
                    # advance_bs inlined (the lender holds the token again;
                    # the function stays canonical for the other callers).
                    if l_serving[dst]:
                        continue
                    if l_ready[dst]:
                        l_abs(dst)      # rare: lender wants it itself
                        continue
                    d = l_traps[dst]
                    if d:
                        # next_loan + send_loan inlined.
                        c = l_carry[dst]
                        e = l_vget(id(c))
                        smap = e[1] if e is not None else l_view(c)
                        sget = smap.get
                        loaned = False
                        while d:
                            z = next(iter(d))
                            tslot = d.pop(z)
                            if z == dst:
                                continue
                            if sget(z, -1) >= tslot[1]:
                                continue
                            l_has_token[dst] = 0
                            l_lent[dst] = z
                            target = z
                            trail = ()
                            if inverse and tslot[3]:
                                back = tuple(h for h in reversed(tslot[3])
                                             if h != dst and h != z)
                                if back:
                                    target = back[0]
                                    trail = back[1:]
                            clk = l_clock[dst]
                            rnd = l_round[dst]
                            rs = tslot[1]
                            sent_total += 1
                            sent_loan += 1
                            if l_dig:
                                crc = l_crc32(
                                    (f"{now:.6f}|{dst}|{target}|LoanMsg("
                                     f"clock={clk}, round_no={rnd}, "
                                     f"lender={dst}, requester={z}, "
                                     f"req_seq={rs}, served={c!r}, "
                                     f"trail={trail!r}, epoch=0)"
                                     ).encode("utf-8"), crc)
                            if l_dqm:
                                dq_append((now + l_cd, seq, 2,
                                           target, clk, rnd, dst, z, rs, c,
                                           trail))
                            else:
                                l_heappush(l_heap,
                                         (now + l_sample(rng, dst, target),
                                          seq, 2, target, clk, rnd,
                                          dst, z, rs, c, trail))
                            seq += 1
                            loaned = True
                            break
                        if loaned:
                            continue
                    if idle_pause > 0 and not l_demand[dst]:
                        l_parked[dst] = 1
                        l_heappush(l_heap, (now + idle_pause, seq, 12,
                                          dst, l_fg[dst]))
                        seq += 1
                        continue
                    l_fbs(dst)
                elif tag == 10:
                    now = t
                    executed += 1
                    node = l_rb(l_n)
                    # handle_request inlined.
                    if l_waiting[node] < 0:
                        s = l_req_seq[node] + 1
                        l_waiting[node] = s
                        l_applog((0, node, s, now))
                        l_ready[node] = 1
                        l_req_seq[node] = s
                        if l_bs:
                            l_demand[node] = 1
                        if l_has_token[node] and not l_serving[node]:
                            if l_parked[node]:
                                l_parked[node] = 0
                                l_fg[node] += 1
                            l_adv(node)
                        elif l_bs and l_lent[node] < 0:
                            l_ls(node)
                    mean = entry[3]
                    gap = l_expo(1.0 / mean)
                    l_heappush(l_heap, (now + gap, seq, 10, mean))
                    seq += 1
                elif tag == 0:
                    now = t
                    executed += 1
                    dst = entry[3]
                    if l_has_token[dst] or (l_bs and l_lent[dst] >= 0):
                        raise ProtocolError(
                            f"node {dst} received a second token")
                    l_has_token[dst] = 1
                    clk = entry[4]
                    l_clock[dst] = clk
                    l_round[dst] = entry[5]
                    l_last_visit[dst] = clk
                    if l_bs:
                        if l_rot:
                            served = entry[6]
                            base = l_carry[dst]
                            hit = l_memo_get((id(served), id(base)))
                            if hit is not None:
                                nc = hit[2]
                                if nc is not base:
                                    l_carry[dst] = nc
                                    l_clean[dst] = 0
                            else:
                                l_mm(dst, served, base)
                            if l_traps[dst] and (
                                    not l_clean[dst]
                                    or l_minclk[dst] <= l_clock[dst] - l_n):
                                l_gct(dst)
                    r = clk // l_n       # deliver("token_visit")
                    if r > rounds_seen:
                        rounds_seen = r
                    if l_bs:
                        l_inflight[dst] = 0
                        if l_gq[dst]:
                            l_rgb(dst)
                    l_adv(dst)
                elif tag == 11:
                    now = t
                    executed += 1
                    l_hreq(entry[3])
                elif tag == 12:
                    node = entry[3]
                    if entry[4] != l_fg[node]:
                        continue         # cancelled: skip, don't count
                    now = t
                    executed += 1
                    if not (has_token[node] and parked[node]):
                        continue
                    parked[node] = 0
                    if is_bs:
                        l_fbs(node)
                    else:
                        forward_ring(node)
                elif tag == 13:
                    now = t
                    executed += 1
                    node = entry[3]
                    if not serving[node]:
                        continue
                    serving[node] = 0
                    pend = l_lp[node]
                    if pend is not None:
                        l_lp[node] = None
                        l_slr(node, pend[0], clock[node],
                                         round_no[node], pend[1])
                        continue
                    l_adv(node)
                else:                    # 14
                    now = t
                    executed += 1
                    node = entry[3]
                    if ready[node] and entry[4] == req_seq[node]:
                        outstanding[node] = 0
                        l_ls(node)
            executed_total += executed
            budget -= executed
            if executed < step:
                break

    def sync():
        """Flush scalar run state back to the ArrayState."""
        st.now = now
        st.seq = seq
        st.executed_total = executed_total
        st.sent_total = sent_total
        st.dropped_count = dropped
        st.sent_by_type["TokenMsg"] = sent_token
        st.sent_by_type["GimmeMsg"] = sent_gimme
        st.sent_by_type["LoanMsg"] = sent_loan
        st.sent_by_type["LoanReturnMsg"] = sent_ret
        st.grants_count = grants_count
        st.rounds_seen = rounds_seen
        st.send_crc = crc

    return Engine(st, run, start, request, request_at, add_fixed_rate, sync)
