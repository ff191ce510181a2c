"""Seeded input generators, the timed operation, and the correctness check of
each workload.

The program only ever sees what the generators emit: scenario JSON text for
the round workloads, and a family name plus a seeded `random.Random` for the
game trials. Everything is derived from the `--seed` of the run, so the same
seed gives the same inputs; keys and scenario seeds that a workload fixes on
purpose are constants below.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from contextlib import contextmanager

import ftagg.game
from ftagg import (
    FAMILIES,
    STRATEGIES,
    SimNetwork,
    keygen,
    make_backend,
    predict_aggregate,
    proof_case_histogram,
    run_round,
    run_trial,
    scenario_digest,
    scenario_from_json,
    trace_to_jsonl,
    validate_scenario,
)

MASKING_64 = {"type": "masking", "k_bits": 64}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _names(n: int) -> list[str]:
    return ["DC"] + [f"SM{i}" for i in range(1, n + 1)]


def _mesh_json(rng, n, p_fail, n_min, round_index, backend, seed) -> tuple[str, int]:
    """Full mesh over DC and n meters, each link off with probability p_fail,
    ring order 1..n, measurements in 0..1000."""
    names = _names(n)
    edges = [[a, b] for a, b in itertools.combinations(names, 2)]
    working = [e for e in edges if rng.random() >= p_fail]
    doc = {
        "n_sm": n,
        "edges": edges,
        "working_edges": working,
        "sending_list": list(range(1, n + 1)),
        "n_min": n_min,
        "round": round_index,
        "measurements": {str(i): rng.randint(0, 1000) for i in range(1, n + 1)},
        "backend": backend,
        "seed": seed,
    }
    return json.dumps(doc), len(edges)


def _corpus_json(rng, backend) -> tuple[str, int]:
    """One scenario from the acceptance-corpus distribution (the test suite's
    `random_scenario`), with the backend chosen by the caller."""
    n = rng.randint(1, 12)
    edges = [[a, b] for a, b in itertools.combinations(_names(n), 2) if rng.random() < 0.85]
    density = rng.uniform(0.2, 1.0)
    working = [e for e in edges if rng.random() < density]
    order = list(range(1, n + 1))
    rng.shuffle(order)
    online = {}
    if n > 1 and rng.random() < 0.3:
        online[str(rng.randint(1, n))] = False
    doc = {
        "n_sm": n,
        "edges": edges,
        "working_edges": working,
        "sending_list": order,
        "n_min": rng.randint(1, n),
        "round": rng.randint(0, 1000),
        "measurements": {str(i): rng.randint(0, 1000) for i in range(1, n + 1)},
        "backend": backend,
        "seed": rng.getrandbits(64),
        "sm_online": online,
    }
    return json.dumps(doc), len(edges)


def _message_counts(trace) -> dict:
    delivered: Counter = Counter()
    failed: Counter = Counter()
    for r in trace:
        (delivered if r.delivered else failed)[r.message.kind] += 1
    return {
        "total": len(trace),
        "delivered": dict(sorted(delivered.items())),
        "failed": dict(sorted(failed.items())),
    }


class Checked:
    """What the harness keeps from one op: pass/fail, one digest record, and
    the simulated cost of its round (None when the op ran no round)."""

    __slots__ = ("ok", "record", "ticks", "messages")

    def __init__(self, ok, record, ticks, messages):
        self.ok = ok
        self.record = record
        self.ticks = ticks
        self.messages = messages


class Workload:
    """A named stream of ops. Every run makes at least `min_ops` ops; their
    reports are pinned and the simulated costs are means over them."""

    name: str
    min_ops: int

    def inputs(self, seed: int, count: int) -> list:
        """The first `count` op inputs for `seed` (the op stream cycles over
        them when a run gets further)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """One-time set-up before the first op."""

    @contextmanager
    def instrument(self, tr):
        """Extra timing hooks for the traced run."""
        yield

    def op(self, item, tr):
        raise NotImplementedError

    def check(self, item, result, tr) -> Checked:
        raise NotImplementedError


class RoundWorkload(Workload):
    """One op is `ftagg run` on one scenario text, minus argparse and file I/O:
    parse, validate, backend and network setup, the round, then the report."""

    def op(self, item, tr):
        text, _n_edges = item
        s = tr.call("model.parse", scenario_from_json, text)
        s = tr.call("model.validate", validate_scenario, s)
        backend = tr.call(f"{s.backend.type}.setup", make_backend, s)
        net = tr.call("netsim.setup", SimNetwork.for_scenario, s)
        outcome = tr.call(
            "protocol.round", run_round, s, tr.backend(backend), tr.network(net)
        )
        report = {
            "scenario_digest": tr.call("model.digest", scenario_digest, s),
            "aggregate": outcome.aggregate,
            "quorum_met": outcome.aggregate is not None,
            "active": list(outcome.active),
            "remaining_at_init": list(outcome.remaining_at_init),
            "steps": len(outcome.trace),
            "elapsed_ticks": net.clock,
            "messages": _message_counts(outcome.trace),
            "proof_cases": tr.call("protocol.classify", proof_case_histogram, outcome),
        }
        jsonl = tr.call("model.trace_jsonl", trace_to_jsonl, outcome.trace)
        return s, outcome, json.dumps(report, sort_keys=True), jsonl, net.clock

    def check(self, item, result, tr) -> Checked:
        s, outcome, report, jsonl, ticks = result
        tr.count("model.edges", item[1])
        tr.count("protocol.steps", len(outcome.trace))
        expected = tr.call("walker.predict", predict_aggregate, s)
        plain = sum(s.measurements[i] for i in outcome.active)
        ok = outcome.aggregate == expected and (
            outcome.aggregate is None or outcome.aggregate == plain
        )
        return Checked(ok, report + _sha(jsonl), ticks, len(outcome.trace))


class CorpusMixed(RoundWorkload):
    name = "corpus-mixed"
    pool = 12000
    min_ops = 1000

    def inputs(self, seed, count):
        # Backends follow a fixed cycle of one masking to two Paillier
        # scenarios. With half of each, the median op falls in the gap between
        # the fast masking ops and the slow Paillier ops, where few ops lie,
        # and swings by a quarter between runs; here it lies inside the
        # Paillier ops.
        rng = random.Random(seed)
        paillier = {"type": "paillier", "key_bits": 128}
        backends = (MASKING_64, paillier, paillier)
        return [_corpus_json(rng, backends[i % 3]) for i in range(min(count, self.pool))]


class Mesh400(RoundWorkload):
    name = "mesh-400"
    n = 400
    key_seed = 0x400
    min_ops = 4

    def inputs(self, seed, count):
        rng = random.Random(seed)
        return [
            _mesh_json(rng, self.n, 0.10, self.n // 2, r, MASKING_64, self.key_seed)
            for r in range(min(count, self.min_ops))
        ]


class He2048(RoundWorkload):
    name = "he-2048"
    n = 10
    key_bits = 2048
    key_seed = 0x2048
    period = 48
    min_ops = 10

    def inputs(self, seed, count):
        rng = random.Random(seed)
        backend = {"type": "paillier", "key_bits": self.key_bits}
        return [
            _mesh_json(rng, self.n, 0.10, self.n // 2, r, backend, self.key_seed)
            for r in range(min(count, self.period))
        ]

    def prepare(self):
        keygen(self.key_bits, self.key_seed)


class Games(Workload):
    """One op is one trial of each family in turn; a trial is the family's
    setup builder, `run_trial`, and the family's default strategy. The three
    families differ in cost, so with one trial per op the median op would sit
    where the costs of two families meet and jump between them from run to
    run."""

    name = "games"
    families = ("masking-colluding-meters", "he-concentrator", "he-breach")
    n_sm = 5
    pool = 3000
    min_ops = 300

    def family_seed(self, seed: int, family: str) -> int:
        return int.from_bytes(hashlib.sha256(f"{seed}:{family}".encode()).digest()[:8], "big")

    def inputs(self, seed, count):
        rngs = {f: random.Random(self.family_seed(seed, f)) for f in self.families}
        return [(idx, rngs) for idx in range(min(count, self.pool))]

    def prepare(self):
        # Warms the fixed game keys the encrypting families share.
        for family in self.families:
            builder, _ = FAMILIES[family]
            run_trial(builder(random.Random(0), self.n_sm, 0))

    @contextmanager
    def instrument(self, tr):
        """Times the walker calls `run_trial` makes, by swapping the names the
        game module looks up for timing wrappers while the traced run lasts."""
        saved = {name: getattr(ftagg.game, name) for name in ("reachable_active", "predict_aggregate")}
        for name, fn in saved.items():
            setattr(ftagg.game, name, lambda s, _fn=fn: tr.call("walker.predict", _fn, s))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(ftagg.game, name, fn)

    def op(self, item, tr):
        idx, rngs = item
        return [self.trial(family, rngs[family], idx, tr) for family in self.families]

    def trial(self, family, rng, idx, tr):
        """One trial of `family`: (the trial, the strategy's guess or None)."""
        builder, strategy = FAMILIES[family]
        setup = tr.call("game.setup_build", builder, rng, self.n_sm, idx)
        trial = tr.call("game.trial", run_trial, setup, idx)
        guess = None
        if trial.abort_reason is None:
            guess = int(tr.call("game.strategy", STRATEGIES[strategy], trial.view)) & 1
        return trial, guess

    def check(self, item, result, tr) -> Checked:
        idx, _rngs = item
        ok, records, ticks, messages = True, [], 0, 0
        for family, (trial, guess) in zip(self.families, result):
            if trial.abort_reason is not None:
                tr.count("game.aborts")
                ok = ok and family != "he-breach"
                records.append(json.dumps({"family": family, "idx": idx, "abort": trial.abort_reason}))
                continue
            view, outcome = trial.view, trial.outcome
            measurements = dict(view.mlist)
            first, second = (view.m0, view.m1) if trial.secret_bit == 0 else (view.m1, view.m0)
            measurements[view.challenged[0]] = first
            measurements[view.challenged[1]] = second
            # Every family plays on a fully working mesh, where the walker's
            # prediction is every meter contributing.
            ok = (
                ok
                and sorted(outcome.active) == list(range(1, view.n_sm + 1))
                and outcome.aggregate == sum(measurements.values())
                and outcome.aggregate == sum(measurements[i] for i in outcome.active)
                and (family != "he-breach" or guess == trial.secret_bit)
            )
            tr.count("protocol.steps", len(outcome.trace))
            ticks += outcome.trace[-1].tick
            messages += len(outcome.trace)
            records.append(
                json.dumps(
                    {
                        "family": family,
                        "idx": idx,
                        "bit": trial.secret_bit,
                        "guess": guess,
                        "aggregate": outcome.aggregate,
                        "active": list(outcome.active),
                        "ticks": outcome.trace[-1].tick,
                        "trace": _sha(trace_to_jsonl(outcome.trace)),
                    },
                    sort_keys=True,
                )
            )
        return Checked(ok, "\n".join(records), ticks, messages)


WORKLOADS = {w.name: w for w in (CorpusMixed(), Mesh400(), He2048(), Games())}
