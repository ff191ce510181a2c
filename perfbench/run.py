"""Benchmark for ftagg: one closed-loop caller, one process per workload.

    python3 perfbench/run.py --workload corpus-mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. The caller issues the next op only after the
previous one returns; throughput is ops per second of op time at the input
size each workload states in perfbench/workloads.json. A run measures for
`--seconds` and for at least the workload's `min_ops` ops, checks every op,
and prints a details line and then, as the last line, the result:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` the run measures half its time
untraced and half traced, in alternating slices, and the metrics are the
per-layer ones plus the tracing overhead. The spans of the traced half go to
.perfbench_spans/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
# Every run must end well inside three minutes, however slow the host.
LOOP_CAP_S = 100.0
TRACE_MIN_OPS = 3
TRACE_SLICE_S = 0.25
ALL = 10**9  # input count meaning "the workload's whole pool"


def _require_source() -> None:
    if not (ROOT / "src" / "ftagg" / "__init__.py").is_file():
        sys.exit(f"error: no ftagg source under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))


def _config() -> dict:
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


def setup_seconds(workload: str) -> float:
    """Process start to ready for the first op, measured on a fresh
    interpreter: interpreter start, `import ftagg`, and the workload's
    one-time set-up."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - start
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        sys.exit(f"error: set-up probe for {workload} failed")
    return elapsed


class Loop:
    """Runs ops in a closed loop and keeps latencies, failures, and the
    digest records and simulated costs of the first `min_ops` ops."""

    def __init__(self, workload, items, tr):
        self.w = workload
        self.items = items
        self.tr = tr
        self.latencies_ns: list[int] = []
        self.failed = 0
        self.elapsed = 0.0
        self.records: list[str] = []
        self.ticks: list[int] = []
        self.messages: list[int] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns) + self.failed

    def run(self, seconds: float, min_ops: int) -> None:
        """Run further ops until the loop has run for `seconds` and made
        `min_ops` ops, both counted over all calls."""
        start = perf_counter() - self.elapsed
        while self.attempted < min_ops or perf_counter() - start < seconds:
            if perf_counter() - start > LOOP_CAP_S:
                break
            self.step(self.attempted)
        self.elapsed = perf_counter() - start

    def step(self, i: int) -> None:
        item = self.items[i % len(self.items)]
        self.tr.op = i
        t0 = perf_counter_ns()
        try:
            result = self.w.op(item, self.tr)
        except Exception:  # a raising op is a failed op; the loop goes on
            self.failed += 1
            if self.failed <= 3:
                traceback.print_exc()
            return
        self.latencies_ns.append(perf_counter_ns() - t0)
        checked = self.w.check(item, result, self.tr)
        if not checked.ok:
            self.failed += 1
            self.latencies_ns.pop()
            if self.failed <= 3:
                print(f"error: op {i} of {self.w.name} gave a wrong result", file=sys.stderr)
        if i < self.w.min_ops:
            self.records.append(checked.record)
            if checked.ticks is not None:
                self.ticks.append(checked.ticks)
                self.messages.append(checked.messages)

    def ops_per_s(self) -> float:
        return len(self.latencies_ns) / (sum(self.latencies_ns) / 1e9)

    def digest(self) -> str | None:
        """The digest over the first `min_ops` reports, once there are that many."""
        if len(self.records) < self.w.min_ops:
            return None
        return hashlib.sha256("\n".join(self.records).encode()).hexdigest()


def tail(latencies_ns: list[int], min_ops: int) -> tuple[float, float, int]:
    """The workload's tail latency as (ms, percentile, samples beyond it).

    The percentile is the highest one with at least ten samples beyond it in
    the `min_ops` samples every run makes. It is fixed per workload, so runs
    that complete more ops report the same percentile with more beyond it.
    """
    pct = 100.0 * max(min_ops - 10, 1) / min_ops
    ordered = sorted(latencies_ns)
    rank = min(max(math.ceil(pct / 100 * len(ordered)) - 1, 0), len(ordered) - 1)
    return ordered[rank] / 1e6, pct, len(ordered) - rank - 1


def reference_digest(workload, seed: int) -> str:
    """The digest of the first `min_ops` ops for `seed`, made apart from the
    timed loop."""
    from tracing import NULL_TRACER

    loop = Loop(workload, workload.inputs(seed, workload.min_ops), NULL_TRACER)
    for i in range(workload.min_ops):
        loop.step(i)
    return loop.digest() if loop.failed == 0 else "failed"


def check_digest(workload, cfg: dict, seed: int, loop: Loop) -> tuple[int, str, bool]:
    """Checks the digest of the first `min_ops` ops against the pinned value:
    for the run's own seed when it is pinned, taken from `loop` when the loop
    got that far; otherwise for the workload's default seed. Returns the seed
    checked, its digest and whether it matches."""
    pinned = cfg["digest"]
    if str(seed) not in pinned:
        seed, loop = cfg["default_seed"], None
    digest = loop.digest() if loop is not None else None
    if digest is None:
        digest = reference_digest(workload, seed)
    return seed, digest, digest == pinned[str(seed)]


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    cfg = _config()[name]
    from ftagg import keygen
    from tracing import NULL_TRACER, Tracer, layer_metrics
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    w.prepare()

    details: dict = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "input_size": cfg["input_size"],
    }
    if not trace:
        # The set-up probes are spread over the timed loop, so that they meet
        # the same changes in host speed as the ops; taken back to back, they
        # all fell in one fast or slow spell of the host.
        loop = Loop(w, w.inputs(seed, ALL), NULL_TRACER)
        setup = []
        for k in range(1, SETUP_SAMPLES + 1):
            setup.append(setup_seconds(name))
            loop.run(seconds * k / SETUP_SAMPLES, w.min_ops if k == SETUP_SAMPLES else 1)
        lat = loop.latencies_ns
        tail_ms, tail_pct, beyond = tail(lat, w.min_ops)
        metrics = {
            "ops_per_s": (loop.ops_per_s(), "1/s"),
            "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "sim_ticks_per_op": (statistics.mean(loop.ticks), "ticks"),
            "messages_per_op": (statistics.mean(loop.messages), "count"),
        }
        details.update(samples=len(lat), tail_percentile=tail_pct, tail_beyond=beyond,
                       sim_ops=len(loop.ticks), setup_samples_s=setup)
        attempted, failed, first = loop.attempted, loop.failed, loop
    else:
        # Untraced and traced slices alternate, so drift on the host and
        # warm-up fall on both sides of the tracing overhead alike. The traced
        # half starts halfway through the inputs, so it never meets a key the
        # untraced half has just left in keygen's cache.
        plain = Loop(w, w.inputs(seed, ALL), NULL_TRACER)
        tr = Tracer()
        items = w.inputs(seed, ALL)
        half = len(items) // 2
        traced = Loop(w, items[half:] + items[:half], tr)
        start = perf_counter()
        while traced.attempted < TRACE_MIN_OPS or perf_counter() - start < seconds:
            if perf_counter() - start > LOOP_CAP_S:
                break
            plain.run(plain.elapsed + TRACE_SLICE_S, 1)
            misses = keygen.cache_info().misses
            with w.instrument(tr):
                traced.run(traced.elapsed + TRACE_SLICE_S, 1)
            tr.count("paillier.keygen_misses", keygen.cache_info().misses - misses)
        ops = len(traced.latencies_ns)
        metrics = layer_metrics(tr, ops)
        metrics["trace.untraced_ops_per_s"] = (plain.ops_per_s(), "1/s")
        metrics["trace.traced_ops_per_s"] = (traced.ops_per_s(), "1/s")
        metrics["trace.overhead_pct"] = (100.0 * (plain.ops_per_s() / traced.ops_per_s() - 1), "%")
        spans = ROOT / ".perfbench_spans"
        spans.mkdir(exist_ok=True)
        tr.write_spans(spans / f"{name}-{seed}.jsonl")
        details.update(samples=ops, untraced_samples=len(plain.latencies_ns), spans=len(tr.spans))
        first = plain  # its ops start at the first input, as the pinned digest's do
        attempted = traced.attempted + plain.attempted
        failed = traced.failed + plain.failed

    digest_seed, digest, digest_ok = check_digest(w, cfg, seed, first)
    details.update(failed_ratio=failed / attempted, digest_seed=digest_seed,
                   digest=digest, digest_ok=digest_ok)
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": failed == 0 and digest_ok,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another; the last line
    merges their results with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in _config():
        seed_args = [] if seed is None else ["--seed", str(seed)]
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, *seed_args,
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {out.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _require_source()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    cfg = _config()
    if args.workload not in cfg:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(cfg)} or 'all'")
    seed = cfg[args.workload]["default_seed"] if args.seed is None else args.seed
    return run_one(args.workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
