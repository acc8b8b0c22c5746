"""Per-layer tracing for the traced run.

:func:`install` wraps the public functions of each layer, from the
benchmark's side, with timing wrappers that count calls, attribute *self*
time (a span's duration minus the part its child spans cover) and, while
:attr:`Tracer.recording` is set, keep every span (layer, start, end, parent)
in memory for :meth:`Tracer.write_spans`.  Names imported into another
module are patched where they are imported, e.g. ``encode_message`` in
``repro.live.runtime``.  The untraced run never imports this module.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Optional

import repro.core.protocol
import repro.live.runtime
from repro.core.dissemination import MulticastService
from repro.core.join import JoinService
from repro.core.multicast import MulticastForwarder
from repro.core.node import PeerWindowNode
from repro.core.peerlist import PeerList
from repro.core.pointer import Pointer
from repro.core.refresh import RefreshManager
from repro.live.runtime import RealtimeRuntime
from repro.net.transport import Transport
from repro.sim.engine import Simulator

#: (layer metric prefix, owner, attribute) of every wrapped function.
LAYERS = (
    ("sim.step", Simulator, "step"),
    ("sim.schedule", Simulator, "schedule_at"),
    ("transport.send", Transport, "send"),
    ("transport.request", Transport, "request"),
    ("peerlist.multicast_candidates", PeerList, "multicast_candidates"),
    ("peerlist.ring_successor", PeerList, "ring_successor"),
    ("peerlist.add", PeerList, "add"),
    ("peerlist.remove", PeerList, "remove"),
    ("multicast.forward", MulticastForwarder, "forward"),
    ("dissemination.apply", MulticastService, "apply"),
    ("refresh.sweep", RefreshManager, "sweep"),
    ("pointer.copy", Pointer, "copy"),
    ("seeding.seed_network", repro.core.protocol, "seed_network"),
    ("node.install", PeerWindowNode, "install"),
    ("join.on_download", JoinService, "on_download"),
    ("codec.encode_message", repro.live.runtime, "encode_message"),
    ("codec.decode_message", repro.live.runtime, "decode_message"),
    ("live.send", RealtimeRuntime, "send"),
    ("live.request", RealtimeRuntime, "request"),
)


class Tracer:
    """Call counts, self time, extra per-layer counters and (optionally)
    the raw spans of the wrapped functions."""

    def __init__(self) -> None:
        self.names: List[str] = [name for name, _, _ in LAYERS]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.recording = False
        self._stack: List[list] = []
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.reset()

    def reset(self) -> None:
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        #: Extra counters: candidates scanned/returned, out-degree, expired
        #: pointers, request timeouts, encoded bytes.
        self.extra: Dict[str, float] = dict.fromkeys(
            ("scanned", "returned", "out_degree", "expired", "timeouts", "bytes"), 0
        )

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        idx = self._index[name]
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            frame = [-1, 0.0]
            if tracer.recording:
                frame[0] = len(tracer.span_layer)
                tracer.span_layer.append(idx)
                tracer.span_parent.append(stack[-1][0] if stack else -1)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                tracer.calls[idx] += 1
                tracer.self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if frame[0] >= 0:
                    tracer.span_start[frame[0]] = t0
                    tracer.span_end[frame[0]] = t1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def snapshot(self) -> Dict[str, dict]:
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i]}
            for i, name in enumerate(self.names)
        } | {"extra": dict(self.extra)}

    def write_spans(self, path: str) -> int:
        """Write the recorded spans, one ``layer start end parent`` line
        each (times in seconds of ``time.perf_counter``, parent = line
        index or -1) after a header naming the layers."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# layers: " + " ".join(self.names) + "\n")
            for i in range(len(self.span_layer)):
                fh.write(
                    f"{self.names[self.span_layer[i]]} {self.span_start[i]:.9f} "
                    f"{self.span_end[i]:.9f} {self.span_parent[i]}\n"
                )
        return len(self.span_layer)


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`LAYERS` (for this process's life)."""

    def candidates(args, kwargs, result):
        tracer.extra["scanned"] += len(args[0])
        tracer.extra["returned"] += len(result)

    def forward(args, kwargs, result):
        tracer.extra["out_degree"] += result

    def sweep(args, kwargs, result):
        tracer.extra["expired"] += len(result)

    def encode(args, kwargs, result):
        tracer.extra["bytes"] += len(result)

    observers = {
        "peerlist.multicast_candidates": candidates,
        "multicast.forward": forward,
        "refresh.sweep": sweep,
        "codec.encode_message": encode,
    }
    for name, owner, attr in LAYERS:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), observers.get(name)))

    # Request timeouts: count each on_timeout callback that fires.
    traced_request = Transport.request

    def request(transport, msg, timeout, on_reply, on_timeout):
        def timed_out(_inner=on_timeout):
            tracer.extra["timeouts"] += 1
            _inner()

        return traced_request(transport, msg, timeout, on_reply, timed_out)

    Transport.request = request
