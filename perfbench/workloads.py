"""The benchmark's three workloads, driven through the public API.

One *instance* of a workload is a fixed amount of work for a given seed: the
same seed gives the same populations, the same op schedules and, on the two
simulated workloads, exactly the same simulated outcome.  The worker repeats
instances for the run's time budget; see ``README.md`` for why each workload
exists and how its numbers are read.

Schedules are generated here, benchmark-side, from the workload seed; the
program only ever receives the generated ops (``add_node``/``leave``/
``crash``/``update_attached_info`` calls at their due times).
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import NodeId, PeerWindowNetwork, PeerWindowNode, ProtocolConfig
from repro.core.dissemination import MulticastService
from repro.core.events import EventKind
from repro.live.clock import RealtimeClock
from repro.live.node import live_config
from repro.live.runtime import RealtimeRuntime
from repro.net.latency import PairwiseLatencyModel
from repro.net.transport import Transport

#: Every node's bandwidth threshold (bps).  Far above the maintenance cost
#: of these populations, so every node sits at level 0, the autonomic
#: controller never shifts a level, and steady_maint multicasts nothing.
THRESHOLD_BPS = 4000.0

#: churn_mcast: ``shards`` independent networks of ``n`` seeded nodes, each
#: with its own op schedule: ``mix`` ops arriving as a Poisson process over
#: ``window`` sim seconds after ``warm`` (conditioned on the count, so every
#: seed issues the same mix), then ``drain`` seconds with no ops.  Every
#: ``segment`` sim seconds is one timed region; peer-list accuracy is
#: sampled, untimed, every ``sample_every`` sim seconds and at the end.
CHURN = dict(
    n=40,
    shards=4,
    mix={"join": 6, "leave": 6, "crash": 6, "info": 8},
    warm=30.0,
    window=240.0,
    drain=60.0,
    segment=30.0,
    sample_every=60.0,
)

#: Sim seconds a churn subject rests before it may be the subject of
#: another op, so no announcement supersedes an earlier one in flight.
SUBJECT_REST = 120.0

#: steady_maint: one network of ``n`` seeded nodes, no ops.
STEADY = dict(n=400, shards=1, duration=900.0, segment=60.0, sample_every=300.0)

#: live_storm: swarm size, open-loop info-change rate (ops/s), storm length
#: (s), the CPU timing window (s) and the waits (s) that bound set-up and
#: drain.
LIVE = dict(
    n=16,
    rate=20.0,
    storm=6.0,
    window=0.5,
    settle_timeout=10.0,
    drain_timeout=10.0,
)

#: Iterations of the :func:`reference` loop, and the loop's wall time on
#: the host the bounds were set on when that host runs at its usual fast
#: speed.  Host time is reported scaled to that speed: a timed region
#: measured while the loop ran 1.3x slower counts at 1/1.3 of its wall time.
REFERENCE_LOOP = 50_000
REFERENCE_S = 0.0035

#: A run whose peerlist_accuracy falls below this fails its correctness check.
ACCURACY_FLOOR = 0.9


def reference() -> float:
    """Wall time of a fixed pure-Python loop of a few milliseconds: the
    host's momentary speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REFERENCE_LOOP):
        x += i * i % 7
    return time.perf_counter() - t0


def timed(fn: Callable, *args) -> dict:
    """Run ``fn(*args)`` as one timed region, after a gc.collect() and
    between two reads of :func:`reference`.  Returns the region's
    ``{"wall", "cpu", "ref"}`` in seconds (ref = mean of the two reads)."""
    gc.collect()
    r0 = reference()
    w0, c0 = time.perf_counter(), time.process_time()
    fn(*args)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return {"wall": wall, "cpu": cpu, "ref": (r0 + reference()) / 2}


# ---------------------------------------------------------------------------
# ops and their receipts
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One generated operation.  ``pick`` in [0, 1) selects the subject (for
    a join, the bootstrap) among the eligible nodes when the op fires, so
    the schedule never names a node the program has not created."""

    kind: str
    due: float
    pick: float


@dataclass
class OpState:
    """One issued op: when its announcement reached each member (by
    address), and for a join whether the handshake completed."""

    kind: str
    subject: int
    due: float
    addr: Any = None
    seq: Optional[int] = None
    key_limit: Any = None
    joined: Optional[bool] = None
    members: List[Any] = field(default_factory=list)
    first: Dict[Any, float] = field(default_factory=dict)

    def matches(self, event) -> bool:
        if self.kind == "info":
            return event.kind is EventKind.INFO_CHANGE and event.seq == self.seq
        if self.kind == "join":
            return event.kind is EventKind.JOIN
        return event.kind is EventKind.LEAVE


class Receipts:
    """Records when each member first applies an op's announcement.

    Installed on :meth:`MulticastService.apply` in every run, traced or not,
    because ``op_lag_*`` and ``op_success_ratio`` are end-to-end metrics.
    It costs one dict lookup per applied event.
    """

    def __init__(self) -> None:
        self.watch: Dict[int, OpState] = {}
        self.on_receipt: Optional[Callable[[], None]] = None

    def install(self) -> None:
        orig = MulticastService.apply
        receipts = self

        def apply(svc, event):
            state = receipts.watch.get(event.subject_id.value)
            if state is not None and state.matches(event):
                addr = svc.ctx.address
                if addr != state.addr and addr not in state.first:
                    state.first[addr] = svc.runtime.now
                    if receipts.on_receipt is not None:
                        receipts.on_receipt()
            return orig(svc, event)

        MulticastService.apply = apply


class ProbeLog:
    """Records every §4.1 probe request and whether it was answered, with
    its simulated round trip (steady_maint's ops).  Installed on
    :meth:`Transport.request`."""

    def __init__(self) -> None:
        self.probes: Optional[List[list]] = None

    def install(self) -> None:
        orig = Transport.request
        log = self

        def request(transport, msg, timeout, on_reply, on_timeout):
            if msg.kind == "probe" and log.probes is not None:
                rec = [transport.sim.now, None]
                log.probes.append(rec)

                def replied(reply, _inner=on_reply):
                    rec[1] = transport.sim.now - rec[0]
                    _inner(reply)

                return orig(transport, msg, timeout, replied, on_timeout)
            return orig(transport, msg, timeout, on_reply, on_timeout)

        Transport.request = request


def poisson_times(rng: np.random.Generator, count: int, start: float, span: float) -> List[float]:
    """``count`` arrivals of a Poisson process on [start, start + span),
    conditioned on the count: sorted uniforms."""
    return sorted(float(t) for t in start + span * rng.random(count))


def lag_stats(lags: List[float]) -> Dict[str, float]:
    """Median and tail of the receipt lags.  The tail is the highest
    percentile with at least ten samples beyond it (nearest rank)."""
    xs = sorted(lags)
    n = len(xs)
    if n < 11:
        raise ValueError(f"{n} lag samples; the tail needs at least 11")
    return {
        "p50": xs[(n - 1) // 2],
        "tail": xs[n - 11],
        "tail_pct": 100.0 * (n - 10) / n,
        "samples": n,
    }


# ---------------------------------------------------------------------------
# simulated workloads
# ---------------------------------------------------------------------------


class SimShard:
    """One detailed-engine network: seeded population plus installed ops."""

    def __init__(self, spec: dict, seed: int, shard: int, receipts: Receipts):
        self.spec = spec
        self.receipts = receipts
        self.master_seed = int(np.random.SeedSequence([seed, shard]).generate_state(1)[0])
        self.ops: List[Op] = []
        if "mix" in spec:
            rng = np.random.default_rng([seed, shard, 1])
            kinds = [k for k, c in spec["mix"].items() for _ in range(c)]
            rng.shuffle(kinds)
            times = poisson_times(rng, len(kinds), spec["warm"], spec["window"])
            self.ops = [Op(k, t, float(rng.random())) for k, t in zip(kinds, times)]
            self.duration = spec["warm"] + spec["window"] + spec["drain"]
        else:
            self.duration = spec["duration"]
        self.net: Optional[PeerWindowNetwork] = None

    def build(self) -> None:
        self.net = None
        net = PeerWindowNetwork(
            config=ProtocolConfig(),
            topology=PairwiseLatencyModel(),
            master_seed=self.master_seed,
        )
        net.seed_nodes([THRESHOLD_BPS] * self.spec["n"])
        for op in self.ops:
            net.sim.schedule_at(op.due, self._fire, op)
        self.net = net
        self.busy: Dict[Any, float] = {}
        self.states: List[OpState] = []

    def _fire(self, op: Op) -> None:
        net = self.net
        alive = [k for k in sorted(net.nodes) if net.nodes[k].alive]
        if op.kind != "join":
            alive = [k for k in alive if self.busy.get(k, -1.0) < op.due]
        key = alive[int(op.pick * len(alive))]
        # Keys grow with every node created: members with a smaller key
        # than this were present when the op fired.
        state = OpState(op.kind, subject=-1, due=op.due, key_limit=max(net.nodes) + 1)
        if op.kind == "join":
            new = net.add_node(
                THRESHOLD_BPS, bootstrap=key, on_done=lambda ok: setattr(state, "joined", ok)
            )
            state.subject = net.node(new).node_id.value
            state.addr = new
        else:
            self.busy[key] = op.due + SUBJECT_REST
            node = net.node(key)
            state.subject = node.node_id.value
            state.addr = key
            if op.kind == "info":
                node.update_attached_info(f"info-{op.due:.3f}")
                state.seq = node.ctx.seq
            elif op.kind == "leave":
                net.leave(key)
            else:
                net.crash(key)
        self.receipts.watch[state.subject] = state
        self.states.append(state)

    def audience(self, st: OpState) -> List[Any]:
        """Members that should have applied the op's announcement: live at
        the end, present before the op fired, covering its subject."""
        subject = NodeId(st.subject, self.net.config.id_bits)
        return [
            n.address
            for n in self.net.live_nodes()
            if n.address < st.key_limit
            and n.node_id.value != st.subject
            and n.node_id.shares_prefix(subject, n.level)
        ]

    def segment_ends(self) -> List[float]:
        step = self.spec["segment"]
        return [float(t) for t in np.arange(step, self.duration, step)] + [self.duration]

    def sampled(self, t: float) -> bool:
        return t == self.duration or t % self.spec["sample_every"] == 0.0


class SimInstance:
    """One churn_mcast or steady_maint instance: every shard built, then
    every shard simulated for its fixed duration."""

    def __init__(self, workload: str, seed: int, receipts: Receipts, probes: ProbeLog):
        self.spec = CHURN if workload == "churn_mcast" else STEADY
        self.receipts = receipts
        self.probes = probes
        self.shards = [
            SimShard(self.spec, seed, i, receipts) for i in range(self.spec["shards"])
        ]

    def build(self) -> dict:
        """The timed set-up: network, seeded population and installed ops
        of every shard."""
        for shard in self.shards:
            shard.net = None
        return timed(lambda: [shard.build() for shard in self.shards])

    def run(self) -> Dict[str, Any]:
        """Simulate every shard, one timed region per segment; the accuracy
        samples between segments are not timed."""
        segments: List[dict] = []
        errors: List[float] = []
        bws: List[float] = []
        events = delivered = attempted = ok = 0
        lags: List[float] = []
        self.probes.probes = []
        for shard in self.shards:
            net = shard.net
            self.receipts.watch.clear()
            for t in shard.segment_ends():
                segments.append(timed(net.run, t))
                if shard.sampled(t):
                    errors.append(net.mean_error_rate())
            now = net.now
            bws.extend(
                n.endpoint.bw_in.lifetime_rate(now) + n.endpoint.bw_out.lifetime_rate(now)
                for n in net.live_nodes()
            )
            events += net.sim.events_executed
            delivered += net.transport.delivered
            for st in shard.states:
                members = shard.audience(st)
                attempted += 1
                ok += bool(st.joined) if st.kind == "join" else all(m in st.first for m in members)
                # A crash has no announcement of its own; its obituary waits
                # for the §4.1 probe phase, so it counts toward success only.
                if st.kind != "crash":
                    lags.extend(t - st.due for t in st.first.values())
        if not self.shards[0].ops:
            # steady_maint: the ops are probe requests resolved by the end.
            horizon = self.shards[0].duration - ProtocolConfig().probe_timeout
            resolved = [p for p in self.probes.probes if p[0] <= horizon]
            attempted = len(resolved)
            lags = [p[1] for p in resolved if p[1] is not None]
            ok = len(lags)
        self.probes.probes = None
        return {
            "segments": segments,
            "events": events,
            "delivered": delivered,
            "accuracy": 1.0 - float(np.mean(errors)),
            "bw": float(np.mean(bws)),
            "attempted": attempted,
            "ok": ok,
            "lags": lags,
        }


# ---------------------------------------------------------------------------
# live workload
# ---------------------------------------------------------------------------


class LiveInstance:
    """A loopback-UDP mini-swarm of real nodes in this process (one
    :class:`RealtimeRuntime`, so one socket, per node, all on one event
    loop) driven by an open-loop Poisson storm of attached-info changes.

    Node ids are seeded but stratified: node ``i`` gets the ``i``-th of
    ``n`` equal id-space buckets, so every seed builds the same balanced
    multicast tree and the receipt lag measures the runtime, not the draw.
    """

    def __init__(self, seed: int, receipts: Receipts, setup_reps: int = 1):
        self.seed = seed
        self.receipts = receipts
        self.setup_reps = setup_reps
        self.config = live_config()
        rng = np.random.default_rng([seed, 2])
        n = LIVE["n"]
        count = int(round(LIVE["rate"] * LIVE["storm"]))
        self.times = poisson_times(rng, count, 0.0, LIVE["storm"])
        # Round-robin over a seeded permutation: two ops on one subject are
        # n arrivals apart, so no announcement supersedes one in flight.
        order = rng.permutation(n)
        self.subjects = [int(order[i % n]) for i in range(count)]
        width = (1 << self.config.id_bits) // n
        self.ids = [
            NodeId(i * width + int(rng.integers(0, width)), self.config.id_bits)
            for i in range(n)
        ]

    def run(self) -> Dict[str, Any]:
        return asyncio.run(self._main())

    async def _build(self, loop) -> tuple:
        """Bind every socket, join every node through node 0 and wait until
        every peer list holds the whole swarm: the timed set-up."""
        clock = RealtimeClock(loop)
        runtimes: List[RealtimeRuntime] = []
        nodes: List[PeerWindowNode] = []
        try:
            for _ in range(LIVE["n"]):
                runtimes.append(await RealtimeRuntime.create(clock=clock, request_retries=1))
            nodes = [
                PeerWindowNode(
                    runtime=rt,
                    config=self.config,
                    node_id=self.ids[i],
                    address=rt.address,
                    threshold_bps=THRESHOLD_BPS,
                    rng=np.random.default_rng([self.seed, 3, i]),
                )
                for i, rt in enumerate(runtimes)
            ]
            nodes[0].bootstrap_first(level=0)
            joins = []
            for node in nodes[1:]:
                fut = loop.create_future()
                node.join_via(nodes[0].address, on_done=fut.set_result)
                joins.append(await fut)
            everyone = {nd.node_id.value for nd in nodes}
            deadline = loop.time() + LIVE["settle_timeout"]
            while (
                any(set(nd.peer_list.ids()) != everyone for nd in nodes)
                and loop.time() < deadline
            ):
                await asyncio.sleep(0.002)
        except BaseException:
            await self._teardown(runtimes, nodes)
            raise
        return clock, runtimes, nodes, joins

    @staticmethod
    async def _teardown(runtimes, nodes) -> None:
        for nd in nodes:
            nd.ctx.cancel_loops()
        for rt in runtimes:
            await rt.close()

    async def _main(self) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        setups: List[dict] = []
        joins: List[bool] = []
        for rep in range(self.setup_reps):
            gc.collect()
            r0 = reference()
            w0, c0 = time.perf_counter(), time.process_time()
            clock, runtimes, nodes, ok = await self._build(loop)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            setups.append({"wall": wall, "cpu": cpu, "ref": (r0 + reference()) / 2})
            joins.extend(ok)
            if rep + 1 < self.setup_reps:
                await self._teardown(runtimes, nodes)
        try:
            out = await self._storm(loop, clock, runtimes, nodes)
        finally:
            await self._teardown(runtimes, nodes)
        out.update(setup=setups, joins=joins)
        return out

    async def _storm(self, loop, clock, runtimes, nodes) -> Dict[str, Any]:
        receipts = self.receipts
        receipts.watch.clear()
        states: List[OpState] = []
        late: List[float] = []
        pending = {"receipts": 0, "ops": len(self.times), "last": 0.0}
        done = asyncio.Event()

        def on_receipt() -> None:
            pending["receipts"] -= 1
            pending["last"] = time.perf_counter()
            if pending["ops"] == 0 and pending["receipts"] <= 0:
                done.set()

        def fire(i: int) -> None:
            late.append(loop.time() - (start_loop + self.times[i]))
            node = nodes[self.subjects[i]]
            subject = node.node_id
            node.update_attached_info(i)
            st = OpState(
                "info",
                subject.value,
                due=start_clock + self.times[i],
                addr=node.address,
                seq=node.ctx.seq,
            )
            st.members = [
                nd.address
                for nd in nodes
                if nd is not node and nd.node_id.shares_prefix(subject, nd.level)
            ]
            pending["receipts"] += len(st.members)
            pending["ops"] -= 1
            receipts.watch[subject.value] = st
            states.append(st)

        # The storm's CPU is timed in windows with a reference read at every
        # boundary, so each window is scaled by the host speed around it.
        # A read blocks the loop for a few milliseconds and is not counted.
        windows: List[dict] = []
        mark: dict = {}

        def boundary() -> None:
            cpu, dgrams = time.process_time(), sum(rt.delivered for rt in runtimes)
            ref = reference()
            if mark:
                windows.append({
                    "wall": time.perf_counter() - mark["wall"],
                    "cpu": cpu - mark["cpu"],
                    "ref": (ref + mark["ref"]) / 2,
                    "dgrams": dgrams - mark["dgrams"],
                })
            mark.update(cpu=time.process_time(), dgrams=dgrams, ref=ref, wall=time.perf_counter())

        receipts.on_receipt = on_receipt
        gc.collect()
        boundary()
        w0 = time.perf_counter()
        start_loop = loop.time() + 0.01
        start_clock = clock.now + 0.01
        for i, t in enumerate(self.times):
            loop.call_at(start_loop + t, fire, i)
        for k in range(1, int(LIVE["storm"] / LIVE["window"]) + 1):
            loop.call_at(start_loop + k * LIVE["window"], boundary)
        try:
            await asyncio.wait_for(done.wait(), LIVE["storm"] + LIVE["drain_timeout"])
        except asyncio.TimeoutError:
            pass
        boundary()
        # The storm ends with its last receipt (a lost one would otherwise
        # stretch it to the drain timeout).
        run_wall = pending["last"] - w0
        receipts.on_receipt = None

        everyone = [nd.node_id for nd in nodes]
        errors = []
        for nd in nodes:
            correct = {v.value for v in everyone if v.shares_prefix(nd.node_id, nd.level)}
            errors.append(len(set(nd.peer_list.ids()) ^ correct) / len(correct))
        now = clock.now
        bw = float(np.mean([
            nd.endpoint.bw_in.lifetime_rate(now) + nd.endpoint.bw_out.lifetime_rate(now)
            for nd in nodes
        ]))
        return {
            "segments": windows,
            "run_wall": run_wall,
            "events": 0,
            "delivered": sum(w["dgrams"] for w in windows),
            "accuracy": 1.0 - float(np.mean(errors)),
            "bw": bw,
            "attempted": len(states),
            "ok": sum(all(m in st.first for m in st.members) for st in states),
            "lags": [t - st.due for st in states for t in st.first.values()],
            "late": late,
            "malformed": sum(rt.malformed for rt in runtimes),
            "retransmits": sum(rt.retransmits for rt in runtimes),
        }
