"""Domain types shared by every module: parties, failure graphs, messages,
round configuration, outcomes, and the scenario file format."""

from __future__ import annotations

import gc
import hashlib
import json
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
from operator import itemgetter
from typing import Container, Iterable, Iterator, Mapping, Optional, Sequence


class ScenarioError(ValueError):
    """A scenario violates one of its type invariants."""


# A party is an int: 0 is the concentrator, i >= 1 is meter SMi. Names exist
# only where scenarios, traces and game views meet the outside world.
DC = 0


def party_name(p: int) -> str:
    return f"SM{p}" if p else "DC"


@dataclass(frozen=True)
class FailureGraph:
    """Undirected link graph over parties 0..n_sm, one adjacency int per
    party. Each link is stored once, in the row of its lower party: for
    v < u, bit u of `edges[v]` is set iff the v-u link exists in the
    topology, and of `working[v]` iff it is on for the current round."""

    edges: tuple[int, ...]
    working: tuple[int, ...]

    @staticmethod
    def build(
        n_sm: int,
        edges: Iterable[tuple[int, int]],
        working: Iterable[tuple[int, int]],
    ) -> "FailureGraph":
        """The graph of two iterables of (party, party) pairs."""
        return graph_from_names(
            n_sm,
            [tuple(map(party_name, pair)) for pair in edges],
            [tuple(map(party_name, pair)) for pair in working],
        )


def _adjacency(adj: list, pairs: Iterable, what: str) -> list:
    """`adj`, the rows of parties 0..len(adj)-1, with the links in `pairs`
    added in one pass: each link's higher bit goes into its lower party's
    row. A self-loop sets its party's own bit, which `validate_scenario`
    rejects."""
    n_sm = len(adj) - 1
    table = _name_order(n_sm + 1)[-1]
    try:
        for a, b in pairs:
            va, vb = table[a], table[b]
            if va < vb:
                adj[va] |= 1 << vb
            else:
                adj[vb] |= 1 << va
    except KeyError as exc:
        raise ScenarioError(
            f"{what} names {exc.args[0]!r}, not one of DC, SM1..SM{n_sm}"
        ) from None
    except (TypeError, ValueError):
        raise ScenarioError(f"{what} entries must be arrays of two party names") from None
    return adj


def full_mesh(n_sm: int) -> FailureGraph:
    """DC and n_sm meters with every link present and on."""
    everyone = (1 << (n_sm + 1)) - 1
    adj = tuple(everyone ^ ((2 << v) - 1) for v in range(n_sm + 1))
    return FailureGraph(adj, adj)


class _Rows(tuple):
    """A link array of a scenario text already turned into its rows."""


def _is_pair_array(raw: object) -> bool:
    return isinstance(raw, (list, tuple)) and all(
        issubclass(kind, (list, tuple)) for kind in set(map(type, raw))
    )


def graph_from_names(n_sm: int, edges: Sequence, working: Sequence) -> FailureGraph:
    """The graph of two arrays of [name, name] pairs, as scenario files give
    them. Either may instead be the `_Rows` that `_read_links` made of it."""
    arrays = ((edges, "edges"), (working, "working_edges"))
    for raw, what in arrays:
        if not isinstance(raw, _Rows) and not _is_pair_array(raw):
            raise ScenarioError(f"{what} must be an array of [name, name] pairs")
    return FailureGraph(
        *(
            tuple(raw if isinstance(raw, _Rows) else _adjacency([0] * (n_sm + 1), raw, what))
            for raw, what in arrays
        )
    )


def link_on(g: FailureGraph, a: int, b: int) -> bool:
    """True iff the undirected link between a and b is on this round."""
    n = len(g.working)
    if not (0 <= a < n and 0 <= b < n):
        raise ScenarioError(f"link ({a},{b}) references a party outside 0..{n - 1}")
    if a > b:
        a, b = b, a
    return g.working[a] >> b & 1 == 1


# Message kinds double as the "kind" field of exported trace records.
KIND_INITIAL_DATA = "initial_data"
KIND_ACTIVATION = "activation"
KIND_ACK_S = "ack_s"
KIND_ACK = "ack"
KIND_SHARE_HANDOFF = "share_handoff"
KIND_MASKED_REPORT = "masked_report"
KIND_END_OF_ROUND = "end_of_round"


@dataclass(frozen=True)
class InitialData:
    """Per-meter opening message; data is None when the backend ships no
    masked value (it then only marks the meter as reachable)."""

    round: int
    sm: int
    data: Optional[int]

    kind = KIND_INITIAL_DATA


@dataclass(frozen=True)
class Activation:
    """Handoff carrying the running share. The paper's message also carries
    the candidate and contributor lists, which the trace already fixes: the
    k-th handoff offers the share to `remaining_at_init[k]`, so its
    candidates are `remaining_at_init[k:]` and its contributors are the
    receivers of the delivered handoffs before it."""

    share: object

    kind = KIND_ACTIVATION


@dataclass(frozen=True)
class AckS:
    """Explicit acknowledgment of a successful activation handoff."""

    kind = KIND_ACK_S


@dataclass(frozen=True)
class EndOfRound:
    """Final message to the concentrator; share is None iff active is empty."""

    round: int
    share: Optional[object]
    active: tuple[int, ...]

    kind = KIND_END_OF_ROUND


@dataclass(frozen=True)
class TraceRecord:
    tick: int
    sender: int
    receiver: int
    message: object
    delivered: bool


# One JSON object per record, with the keys in this order; names and kinds
# are plain ASCII that JSON writes unescaped.
_TRACE_LINE = '{"tick": %d, "from": "%s", "to": "%s", "kind": "%s", "delivered": %s}\n'


def trace_to_jsonl(trace: Sequence[TraceRecord]) -> str:
    """One JSON line per record; a trace with no record writes one empty line."""
    if not trace:
        return "\n"
    return "".join(
        _TRACE_LINE
        % (
            r.tick,
            party_name(r.sender),
            party_name(r.receiver),
            r.message.kind,
            "true" if r.delivered else "false",
        )
        for r in trace
    )


@dataclass(frozen=True)
class MaskingSpec:
    """Modular-masking backend choice; k is a power of two."""

    k_bits: int = 64

    type = "masking"

    @property
    def k(self) -> int:
        return 1 << self.k_bits

    def check_sum(self, total: int) -> None:
        if not 1 <= self.k_bits <= MAX_K_BITS:
            raise ScenarioError(f"k_bits must be in 1..{MAX_K_BITS}, got {self.k_bits}")
        if total >= self.k:
            raise ScenarioError(
                f"sum of measurements {total} must stay below the modulus {self.k}"
            )


@dataclass(frozen=True)
class PaillierSpec:
    """Additive-HE backend choice."""

    key_bits: int = 256

    type = "paillier"

    def check_sum(self, total: int) -> None:
        # keygen forces the top two bits of both primes, so n > 2^(key_bits-1)
        # and every sum below that bound decrypts to itself.
        check_key_bits(self.key_bits)
        if total >= 1 << (self.key_bits - 1):
            raise ScenarioError(
                f"sum of measurements {total} must stay below 2^{self.key_bits - 1}"
            )


# Masks are 16-byte keyed digests (masking.KEY_BYTES): the bits of a
# measurement above them would go out in the clear.
MAX_K_BITS = 128
MAX_KEY_BITS = 4096


def check_key_bits(bits: int) -> None:
    if not 64 <= bits <= MAX_KEY_BITS or bits % 2:
        raise ScenarioError(
            f"key_bits must be an even number in 64..{MAX_KEY_BITS}, got {bits}"
        )


# Every backend choice by its type; check_sum checks its own parameters first.
SPECS = {spec.type: spec for spec in (MaskingSpec, PaillierSpec)}
BackendSpec = MaskingSpec | PaillierSpec


@dataclass(frozen=True)
class Scenario:
    """One aggregation round: topology, ring order, measurements, backend, seed.

    All fields are fixed for the round; link states never change mid-round.
    """

    n_sm: int
    graph: FailureGraph
    # Ring order over meter indices; the concentrator endpoints are implicit.
    sending_list: tuple[int, ...]
    n_min: int
    round: int
    measurements: Mapping[int, int]
    backend: BackendSpec
    seed: int
    sm_online: Mapping[int, bool] = field(default_factory=dict)
    prf_keys: Optional[Mapping[int, bytes]] = None

    def online(self, i: int) -> bool:
        return self.sm_online.get(i, True)


@dataclass(frozen=True)
class RoundOutcome:
    """Result of one terminated round.

    aggregate is present iff the round terminated with at least n_min active
    meters; active lists every meter that ever held the running share.
    """

    aggregate: Optional[int]
    active: tuple[int, ...]
    remaining_at_init: tuple[int, ...]
    trace: tuple[TraceRecord, ...]


def validate_scenario(s: Scenario) -> Scenario:
    """Check every scenario invariant; returns the scenario unchanged.

    Idempotent; raises a ScenarioError naming the violated invariant.
    """
    if s.n_sm < 1:
        raise ScenarioError(f"need at least one meter, got n_sm={s.n_sm}")
    sms = list(range(1, s.n_sm + 1))

    seen = set()
    for i in s.sending_list:
        if i not in range(1, s.n_sm + 1):
            raise ScenarioError(f"sending list names unknown meter {i}")
        if i in seen:
            raise ScenarioError(f"meter {i} appears twice in the sending list")
        seen.add(i)
    if len(seen) != s.n_sm:
        missing = sorted(set(sms) - seen)
        raise ScenarioError(f"sending list omits meters {missing}")

    g = s.graph
    if len(g.edges) != s.n_sm + 1 or len(g.working) != s.n_sm + 1:
        raise ScenarioError("graph must contain DC and every meter")
    parties = (1 << (s.n_sm + 1)) - 1
    # One pass per row. A bit at or below the row's own party in working
    # alone would otherwise read as a working edge outside the topology, so
    # those come first.
    for v, (links, on) in enumerate(zip(g.edges, g.working)):
        if links & ~parties:
            raise ScenarioError(f"a link of {party_name(v)} references an unknown party")
        if (links | on) >> v & 1:
            raise ScenarioError(f"self-loop at {party_name(v)}")
        lower = (1 << v) - 1
        for row, what in ((links, "edges"), (on, "working_edges")):
            below = row & lower
            if below:
                u = below.bit_length() - 1
                raise ScenarioError(
                    f"{what} holds the link ({party_name(u)},{party_name(v)}) in the"
                    f" row of {party_name(v)}, not of its lower party"
                )
        if on & ~links:
            u = (on & ~links).bit_length() - 1
            raise ScenarioError(
                f"working edge ({party_name(v)},{party_name(u)}) not in topology"
            )

    if not 1 <= s.n_min <= s.n_sm:
        raise ScenarioError(f"n_min={s.n_min} outside 1..{s.n_sm}")

    for i in s.measurements:
        if i not in seen:
            raise ScenarioError(f"measurement for unknown meter {i}")
    for i in sms:
        if i not in s.measurements:
            raise ScenarioError(f"no measurement for meter {i}")
        if s.measurements[i] < 0:
            raise ScenarioError(f"measurement of meter {i} is negative")

    s.backend.check_sum(sum(s.measurements.values()))

    for i in s.sm_online:
        if i not in seen:
            raise ScenarioError(f"online flag for unknown meter {i}")

    if not 0 <= s.seed < 1 << 64:
        raise ScenarioError("seed must fit in 64 bits")
    if not 0 <= s.round < 1 << 64:
        raise ScenarioError("round index must be a non-negative integer of 64 bits")

    if s.prf_keys is not None:
        for i, key in s.prf_keys.items():
            if i not in seen:
                raise ScenarioError(f"pinned key for unknown meter {i}")
            if len(key) != 16:
                raise ScenarioError(f"pinned key for meter {i} must be 16 bytes")

    return s


def _backend_to_dict(b: BackendSpec) -> dict:
    return {"type": b.type, **vars(b)}


def _backend_from_dict(d: dict) -> BackendSpec:
    if not isinstance(d, dict) or "type" not in d:
        raise ScenarioError("backend must be an object with a 'type' field")
    try:
        spec = SPECS[d["type"]]
    except (KeyError, TypeError):
        raise ScenarioError(f"unknown backend type {d['type']!r}") from None
    check_keys(d, {"type", *spec.__dataclass_fields__}, f"{spec.type} backend")
    return spec(**{key: _int(value, key) for key, value in d.items() if key != "type"})


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


@lru_cache(maxsize=64)
def _name_order(width: int) -> tuple[tuple, tuple, tuple, itemgetter, dict]:
    """For parties 0..width-1: their names, the parties in name order, the
    names in that order, a getter that takes a row's bit-string bytes in
    that order (byte width-1-b of the string is bit b), and a table from
    each name to its party, which callers only read. All are linear in
    width. The getter needs width >= 2, as itemgetter of a single index
    returns no tuple."""
    names = tuple(party_name(v) for v in range(width))
    by_name = tuple(sorted(range(width), key=names.__getitem__))
    sorted_names = tuple(names[v] for v in by_name)
    table = {name: v for v, name in enumerate(names)}
    getter = itemgetter(*(width - 1 - b for b in by_name))
    return names, by_name, sorted_names, getter, table


def _edge_pieces(adj: Sequence[int]) -> Iterator[str]:
    """Compact JSON array of every link once as [lower-index name,
    higher-index name], sorted as name pairs, as consecutive pieces of text:
    one per party's row of links to the parties above it, without a list
    per link. A row with fewer than one link per 16 parties lists and sorts
    the names of its set bits; a denser row reorders its full-width bit
    string. Per row, the listing took 0.4-0.7 times the bit string's time at
    one link per 16 parties, and broke even between one per 8 (4000 and
    8000 parties) and one per 5 (401 and 1000 parties)."""
    width = len(adj)
    if width < 2:
        yield "[]"
        return
    names, by_name, sorted_names, in_name_order, _ = _name_order(width)
    bit_string = f"0{width}b"
    opening = "["
    for a in by_name:
        row = adj[a]
        if not row:
            continue
        if row.bit_count() * 16 < width:
            bs = []
            while row:
                b = row.bit_length() - 1
                bs.append(names[b])
                row ^= 1 << b
            bs.sort()
        else:
            row = format(row, bit_string).encode().translate(_BIT_BYTES)
            bs = compress(sorted_names, in_name_order(row))
        head = '["' + names[a] + '","'
        yield opening + head + ('"],' + head).join(bs) + '"]'
        opening = ","
    yield "[]" if opening == "[" else "]"


def check_keys(d: dict, known: Container[str], what: str) -> None:
    """Refuse a key outside `known`, so that a misspelt optional key cannot
    silently leave its default in place."""
    for key in d:
        if key not in known:
            raise ScenarioError(f"{what} has unknown key {key!r}")


def _object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be a JSON object")
    return value


def _int(value: object, what: str) -> int:
    """A JSON integer; int() would truncate floats and accept bools and strings."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def _hex_bytes(value: object, what: str) -> bytes:
    if not isinstance(value, str):
        raise ScenarioError(f"{what} must be a hex string, got {type(value).__name__}")
    try:
        return bytes.fromhex(value)
    except ValueError:
        raise ScenarioError(f"{what} is not a hex string") from None


def _parse_index(raw: object, what: str) -> int:
    """A meter index written as an object key in canonical decimal, so that
    no two keys ("1", "01", " 1") name the same meter."""
    try:
        i = int(raw)
    except (TypeError, ValueError):
        i = None
    if i is None or str(i) != raw:
        raise ScenarioError(f"{what} key {raw!r} is not a meter index")
    return i


def scenario_from_dict(d: dict) -> Scenario:
    if not isinstance(d, dict):
        raise ScenarioError("a scenario must be a JSON object")
    try:
        n_sm = _int(d["n_sm"], "n_sm")
        raw_edges = d["edges"]
        raw_working = d["working_edges"]
        sending_list = tuple(_int(i, "sending_list entry") for i in d["sending_list"])
        n_min = _int(d["n_min"], "n_min")
        round_index = _int(d["round"], "round")
        raw_measurements = _object(d["measurements"], "measurements")
        raw_backend = d["backend"]
        seed = _int(d["seed"], "seed")
    except KeyError as exc:
        raise ScenarioError(f"scenario file missing key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ScenarioError(f"malformed scenario field: {exc}") from None
    known = {"n_sm", "edges", "working_edges", "sending_list", "n_min", "round",
             "measurements", "backend", "seed", "sm_online", "prf_keys"}
    check_keys(d, known, "scenario file")
    # A valid n_sm is positive and equals the sending list's length. Checked
    # here, so that the rows and the name table below stay linear in the text.
    if n_sm < 1:
        raise ScenarioError(f"need at least one meter, got n_sm={n_sm}")
    if n_sm > len(sending_list):
        raise ScenarioError(
            f"sending list names {len(sending_list)} meters but n_sm is {n_sm}"
        )

    measurements = {
        _parse_index(i, "measurements"): _int(m, f"measurement {i}")
        for i, m in raw_measurements.items()
    }
    raw_online = _object(d.get("sm_online", {}), "sm_online")
    if not all(isinstance(v, bool) for v in raw_online.values()):
        raise ScenarioError("sm_online values must be true or false")
    sm_online = {_parse_index(i, "sm_online"): v for i, v in raw_online.items()}
    prf_keys = None
    if "prf_keys" in d:
        prf_keys = {
            _parse_index(i, "prf_keys"): _hex_bytes(h, f"prf_keys value {i}")
            for i, h in _object(d["prf_keys"], "prf_keys").items()
        }
    return Scenario(
        n_sm=n_sm,
        graph=graph_from_names(n_sm, raw_edges, raw_working),
        sending_list=sending_list,
        n_min=n_min,
        round=round_index,
        measurements=measurements,
        backend=_backend_from_dict(raw_backend),
        seed=seed,
        sm_online=sm_online,
        prf_keys=prf_keys,
    )


@contextmanager
def _gc_paused():
    """Keep the cyclic garbage collector off inside the block, then restore
    the caller's setting. For building large acyclic data (parsed JSON):
    reference counting frees it, and a collection pass would only walk it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _unique_keys(pairs: list) -> dict:
    """json's object_pairs_hook: a key given twice in one object is an error,
    where json.loads would keep the last value without a word."""
    d = dict(pairs)
    if len(d) != len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ScenarioError(f"key {key!r} repeated in one JSON object")
    return d


def load_json(text: str) -> object:
    """json.loads that refuses repeated keys."""
    return json.loads(text, object_pairs_hook=_unique_keys)


# Texts of at least this many characters are read by `_load_by_value`.
# Below it, its per-value loop costs more than the memory it saves.
_BY_VALUE_FROM_CHARS = 1 << 16

_DECODE = json.JSONDecoder(object_pairs_hook=_unique_keys).raw_decode
_SKIP_SPACE = json.decoder.WHITESPACE.match
# A candidate n_sm for `_load_by_value`. No plausible n_sm has more digits,
# and int() of a longer run takes time quadratic in its length.
_N_SM = re.compile(r'"n_sm"\s*:\s*([0-9]{1,18})')


def _slices(text: str, at: int, end: list) -> Iterator[object]:
    """The link array whose "[" is text[at], decoded a slice at a time. A
    slice ends at the first "]," at least `_BY_VALUE_FROM_CHARS` characters
    after its start and is decoded as "[" + slice + "]". Every slice starts
    at an element boundary, so its decode goes as the whole array's would
    from there: a cut inside a string or a nested entry leaves it
    unterminated or unbalanced, and a decode that stops before the added "]"
    has met the array's own. Sets end[0] to the index after the array, or
    yields None (no array of arrays) at any other outcome, such as a trailing
    comma, which reads as an empty last slice."""
    start = at + 1
    while True:
        cut = text.find("],", start + _BY_VALUE_FROM_CHARS)
        part = "[" + text[start : cut + 1 if cut >= 0 else len(text)] + "]"
        try:
            pairs, stop = _DECODE(part)
        except (ValueError, RecursionError):
            yield None
            return
        if stop < len(part):
            end[0] = start + stop - 1
            yield pairs if pairs or start == at + 1 else None
            return
        if cut < 0:
            yield None
            return
        yield pairs
        start = cut + 2


def _read_links(text: str, at: int, n_sm: int, what: str) -> tuple[object, int]:
    """The link array at text[at] as `_Rows` over parties 0..n_sm, read a
    slice at a time, and the index after it. Rows are filled slice by slice,
    so no slice's lists outlive it. Where a slice is not an array of arrays
    or names anything but a party, the array is decoded whole as before and
    returned as read, so that `graph_from_names` makes its rows or raises
    its error in turn."""
    end = [at]
    if text.startswith("[", at):
        adj = [0] * (n_sm + 1)
        try:
            for pairs in _slices(text, at, end):
                if not _is_pair_array(pairs):
                    break
                _adjacency(adj, pairs, what)
            else:
                return _Rows(adj), end[0]
        except ScenarioError:
            pass
    return _DECODE(text, at)


# The exact text of the last `edges` value `_load_by_value` turned into rows,
# and those rows, assigned together. A deployment's topology stays the same
# from round to round, so its next round's text most often holds the same
# array; only the working links change.
_last_edges: tuple[str, _Rows] = ("", _Rows())


def _load_by_value(text: str) -> Optional[dict]:
    """`load_json(text)` for a text whose top level is an object, parsed one
    top-level value at a time. Its n_sm is taken up front from the first
    `"n_sm": digits` in the text, so that every link array, in any key
    order, becomes its rows a slice at a time (`_slices`). An `edges` value
    that is the last one read into rows, with as many rows as that n_sm
    gives, is not decoded again. None where the candidate is implausible or
    is not the text's own integer n_sm, or where the text holds anything
    this loop does not expect (another top level, a repeated top-level key,
    a bad separator, trailing data, or any error of the decoder); `load_json`
    then parses the whole text and raises exactly its own error."""
    global _last_edges
    last_text, last_rows = _last_edges
    d: dict = {}
    try:
        found = _N_SM.search(text)
        n_sm = int(found[1]) if found else 0
        # A valid scenario spends at least 8 characters per meter (its
        # sending-list entry and its measurement), so no larger n_sm, which
        # validation rejects, sizes the rows or the name table here.
        if not 1 <= n_sm <= len(text) // 8:
            return None
        i = _SKIP_SPACE(text).end()
        if text[i : i + 1] != "{":
            return None
        sep = ","
        while sep == ",":
            key, i = _DECODE(text, _SKIP_SPACE(text, i + 1).end())
            if type(key) is not str or key in d:
                return None
            i = _SKIP_SPACE(text, i).end()
            if text[i : i + 1] != ":":
                return None
            j = _SKIP_SPACE(text, i + 1).end()
            if key == "edges" and len(last_rows) == n_sm + 1 and text.startswith(last_text, j):
                # A JSON array ends at its own closing bracket, so the value
                # at j is exactly that array.
                d[key], i = last_rows, j + len(last_text)
            elif key in ("edges", "working_edges"):
                d[key], i = _read_links(text, j, n_sm, key)
                if key == "edges" and type(d[key]) is _Rows:
                    _last_edges = (text[j:i], d[key])
            else:
                d[key], i = _DECODE(text, j)
            i = _SKIP_SPACE(text, i).end()
            sep = text[i : i + 1]
        if sep != "}" or _SKIP_SPACE(text, i + 1).end() != len(text):
            return None
    except (ValueError, RecursionError):
        return None
    # The candidate may have come from elsewhere in the text: a nested key,
    # or a value such as 100.0 or 1e2 that only begins with digits.
    return d if type(d.get("n_sm")) is int and d["n_sm"] == n_sm else None


def scenario_from_json(text: str) -> Scenario:
    # A 400-meter mesh parses into ~150k small lists, enough to start
    # several full collections that find nothing to free.
    with _gc_paused():
        d = _load_by_value(text) if len(text) >= _BY_VALUE_FROM_CHARS else None
        return scenario_from_dict(load_json(text) if d is None else d)


# Stands in for both edge arrays in `_text_around_links`'s json.dumps. Every
# other string there is a number key, a backend type or hex, so this one's
# JSON text splits the output in three, edges first in key order.
_EDGE_ARRAYS_HERE = "\0"


def _text_around_links(s: Scenario) -> list[str]:
    """The canonical text of `s` without its two link arrays: the parts
    before `edges`' array, between it and `working_edges`', and after."""
    d = {
        "edges": _EDGE_ARRAYS_HERE,
        "working_edges": _EDGE_ARRAYS_HERE,
        "n_sm": s.n_sm,
        "sending_list": list(s.sending_list),
        "n_min": s.n_min,
        "round": s.round,
        "measurements": {str(i): m for i, m in s.measurements.items()},
        "backend": _backend_to_dict(s.backend),
        "seed": s.seed,
    }
    if s.sm_online:
        d["sm_online"] = {str(i): v for i, v in s.sm_online.items()}
    if s.prf_keys is not None:
        d["prf_keys"] = {str(i): key.hex() for i, key in s.prf_keys.items()}
    text = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return text.split(json.dumps(_EDGE_ARRAYS_HERE))


def scenario_to_json(s: Scenario) -> str:
    """The canonical scenario text: compact, key-sorted JSON that
    `scenario_from_json` reads back to the same scenario."""
    head, middle, tail = _text_around_links(s)
    return "".join(
        [head, *_edge_pieces(s.graph.edges), middle, *_edge_pieces(s.graph.working), tail]
    )


@lru_cache(maxsize=1)
def _hash_through_edges(head: str, edges: tuple[int, ...]):
    """The SHA-256 state of a canonical text through its `edges` array. Kept
    for the last topology, which only the working links change from round to
    round of one deployment; callers hash on from a copy."""
    h = hashlib.sha256(head.encode())
    for piece in _edge_pieces(edges):
        h.update(piece.encode())
    return h


def scenario_digest(s: Scenario) -> str:
    """Stable content hash used to key reports to their scenario: the SHA-256
    of `scenario_to_json(s)`, hashed piece by piece without building it."""
    head, middle, tail = _text_around_links(s)
    h = _hash_through_edges(head, tuple(s.graph.edges)).copy()
    h.update(middle.encode())
    for piece in _edge_pieces(s.graph.working):
        h.update(piece.encode())
    h.update(tail.encode())
    return h.hexdigest()
