"""Span recording for the traced run, from outside the program.

`run_round` takes its backend and network as arguments, so the traced run
hands it proxies that time every call into the real `MaskingBackend`,
`PaillierBackend` and `SimNetwork` and delegate everything else. The untraced
run uses `NULL_TRACER`, which passes the real objects through untouched.

A span is (name, start_ns, end_ns, parent index, op id). Spans stay in memory
until `write_spans` runs at the end; self time is a span's duration minus the
part covered by its direct children (spans nest, the run is single-threaded).
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter_ns

from ftagg import DeliveryStatus


class NullTracer:
    """Untraced run: no spans, no counters, the real objects."""

    op = 0

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n=1):
        pass

    def backend(self, backend):
        return backend

    def network(self, net):
        return net


NULL_TRACER = NullTracer()


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def count(self, name, n=1):
        self.counts[name] += n

    def backend(self, backend):
        return _BackendProxy(self, backend)

    def network(self, net):
        return _NetworkProxy(self, net)

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: the number of spans, their summed duration and their
        summed self time, in seconds."""
        calls: Counter = Counter()
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent, _op in self.spans:
            calls[name] += 1
            total[name] += (end - start) / 1e9
            if parent >= 0:
                child[parent] += (end - start) / 1e9
        self_time: Counter = Counter()
        for idx, (name, start, end, _parent, _op) in enumerate(self.spans):
            self_time[name] += (end - start) / 1e9 - child[idx]
        return calls, total, self_time

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


class _BackendProxy:
    """Times the four calls `run_round` makes into a computation backend."""

    def __init__(self, tracer: Tracer, backend):
        self._tr = tracer
        self._b = backend
        self._layer = backend.name

    def initial_payload(self, i, t):
        return self._tr.call(f"{self._layer}.payload", self._b.initial_payload, i, t)

    def init_share(self):
        return self._tr.call(f"{self._layer}.init_share", self._b.init_share)

    def fold_measurement(self, s_running, i):
        return self._tr.call(f"{self._layer}.fold", self._b.fold_measurement, s_running, i)

    def finalize(self, s_final, l_act, collected, aux):
        return self._tr.call(
            f"{self._layer}.finalize", self._b.finalize, s_final, l_act, collected, aux
        )


class _NetworkProxy:
    """Times sends and counts timeouts; reads pass through."""

    def __init__(self, tracer: Tracer, net):
        self._tr = tracer
        self._net = net

    def send(self, sender, receiver, msg):
        status = self._tr.call("netsim.send", self._net.send, sender, receiver, msg)
        if status is not DeliveryStatus.DELIVERED:
            self._tr.count("netsim.timeouts")
        return status

    def send_bundled_ack(self, sender, receiver, msg):
        return self._tr.call("netsim.ack", self._net.send_bundled_ack, sender, receiver, msg)

    def __getattr__(self, name):
        return getattr(self._net, name)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as a per-op mean; a layer that did not run reads 0.
    Each Paillier init_share and fold is one encryption."""
    calls, total, self_time = tracer.totals()
    c = tracer.counts

    def span(*names):
        return sum(total[n] for n in names) / ops, "s/op"

    def calls_of(*names):
        return sum(calls[n] for n in names) / ops, "count/op"

    def count(name):
        return c[name] / ops, "count/op"

    sends = calls["netsim.send"]
    return {
        "model.parse_s": span("model.parse"),
        "model.validate_s": span("model.validate"),
        "model.digest_s": span("model.digest"),
        "model.trace_jsonl_s": span("model.trace_jsonl"),
        "model.edges": count("model.edges"),
        "paillier.setup_s": span("paillier.setup"),
        "paillier.keygen_misses": count("paillier.keygen_misses"),
        "paillier.init_share_s": span("paillier.init_share"),
        "paillier.fold_s": span("paillier.fold"),
        "paillier.finalize_s": span("paillier.finalize"),
        "paillier.encrypts": calls_of("paillier.init_share", "paillier.fold"),
        "masking.setup_s": span("masking.setup"),
        "masking.payload_s": span("masking.payload"),
        "masking.fold_s": span("masking.fold"),
        "masking.finalize_s": span("masking.finalize"),
        "masking.payloads": calls_of("masking.payload"),
        "netsim.setup_s": span("netsim.setup"),
        "netsim.send_s": span("netsim.send", "netsim.ack"),
        "netsim.sends": calls_of("netsim.send"),
        "netsim.timeouts": count("netsim.timeouts"),
        "netsim.delivery_ratio": ((sends - c["netsim.timeouts"]) / sends if sends else 0.0, "ratio"),
        "protocol.round_s": span("protocol.round"),
        "protocol.self_s": (self_time["protocol.round"] / ops, "s/op"),
        "protocol.classify_s": span("protocol.classify"),
        "protocol.steps": count("protocol.steps"),
        "walker.predict_s": span("walker.predict"),
        "game.setup_build_s": span("game.setup_build"),
        "game.trial_s": span("game.trial"),
        "game.strategy_s": span("game.strategy"),
        "game.aborts": count("game.aborts"),
    }
