"""Modular-masking computation backend: Z_k share arithmetic and the keyed PRF.

k is a power of two so truncating a keyed-hash output to log2(k) bits samples
Z_k exactly uniformly. Each meter holds two independent 128-bit secrets: a PRF
key (pre-shared with the concentrator) and a share key (never shared) from
which its per-round additive share is derived.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Optional

from .model import MAX_K_BITS, MeasurementOutOfRange, Scenario, ScenarioError

KEY_BYTES = 16


class KeySetMismatch(ValueError):
    pass


def _check_modulus(k: int) -> None:
    if k < 2 or k & (k - 1) or k > 1 << MAX_K_BITS:
        raise ScenarioError(
            f"masking modulus must be a power of two in 2..2^{MAX_K_BITS}, got {k}"
        )


def _h(data: bytes, key: bytes, person: bytes, size: int = KEY_BYTES) -> bytes:
    return hashlib.blake2b(data, key=key, person=person, digest_size=size).digest()


def _seed_bytes(seed: int) -> bytes:
    return seed.to_bytes(8, "big")


def _index_bytes(i: int) -> bytes:
    return i.to_bytes(8, "big")


@dataclass(frozen=True)
class MaskingParams:
    """Public-side masking parameters: modulus, pre-shared PRF keys, and the
    concentrator's round-share seed."""

    k: int
    keys: Mapping[int, bytes]
    dc_seed: int

    def __post_init__(self):
        _check_modulus(self.k)
        for i, key in self.keys.items():
            if len(key) != KEY_BYTES:
                raise ScenarioError(f"key for meter {i} must be {KEY_BYTES} bytes")


def derive_prf_key(seed: int, i: int) -> bytes:
    return _h(_index_bytes(i), _seed_bytes(seed), b"prfkey")


def derive_share_key(seed: int, i: int) -> bytes:
    """Per-meter secret behind the round shares; never placed in any view."""
    return _h(_index_bytes(i), _seed_bytes(seed), b"sharekey")


def round_share(seed: int, i: int, t: int, k: int) -> int:
    _check_modulus(k)
    digest = _h(_index_bytes(t), derive_share_key(seed, i), b"roundshare")
    return int.from_bytes(digest, "big") & (k - 1)


def derive_params(scenario: Scenario) -> MaskingParams:
    keys = dict(scenario.prf_keys) if scenario.prf_keys else {}
    for i in range(1, scenario.n_sm + 1):
        if i not in keys:
            keys[i] = derive_prf_key(scenario.seed, i)
    dc_seed = int.from_bytes(
        _h(_index_bytes(scenario.round), _seed_bytes(scenario.seed), b"dcseed", 8),
        "big",
    )
    return MaskingParams(k=scenario.backend.k, keys=keys, dc_seed=dc_seed)


def prf(key: bytes, t: int, k: int) -> int:
    """Keyed pseudo-random residue for round t, exactly uniform over Z_k."""
    _check_modulus(k)
    digest = _h(_index_bytes(t), key, b"prf")
    return int.from_bytes(digest, "big") & (k - 1)


def mask(m: int, s: int, p: int, k: int) -> int:
    if not 0 <= m < k:
        raise MeasurementOutOfRange(f"measurement {m} outside [0, {k})")
    return (m + s + p) % k


def init_share(params: MaskingParams) -> tuple[int, int]:
    """Concentrator's round opener: returns (s_0, running share S = s_0)."""
    digest = _h(b"", _seed_bytes(params.dc_seed), b"dcshare")
    s_0 = int.from_bytes(digest, "big") & (params.k - 1)
    return s_0, s_0


def update_share(s_running: int, s_i: int, k: int) -> int:
    return (s_running + s_i) % k


def unmask_aggregate(
    s_final: int,
    s_0: int,
    masked: Mapping[int, int],
    prfs: Mapping[int, int],
    k: int,
) -> int:
    """Recover the plain sum over the active set from the final running share,
    the masked values, and the PRF outputs; all mask terms cancel."""
    if not masked:
        raise KeySetMismatch("no contributors to unmask")
    if set(masked) != set(prfs):
        raise KeySetMismatch(
            f"masked values cover {sorted(masked)} but PRFs cover {sorted(prfs)}"
        )
    total = -s_final + s_0 + sum(masked.values()) - sum(prfs.values())
    return total % k


class MaskingBackend:
    """Computation plug for the protocol engine (masking column)."""

    name = "masking"

    def __init__(self, scenario: Scenario):
        self.params = derive_params(scenario)
        self.k = self.params.k
        self._t = scenario.round
        self._measurements = dict(scenario.measurements)
        self._shares = {
            i: round_share(scenario.seed, i, scenario.round, self.k)
            for i in range(1, scenario.n_sm + 1)
        }

    def initial_payload(self, i: int, t: int) -> int:
        return mask(self._measurements[i], self._shares[i], self.prf_of(i), self.k)

    def init_share(self) -> tuple[int, int]:
        return init_share(self.params)

    def fold_measurement(self, s_running: int, i: int) -> int:
        return update_share(s_running, self._shares[i], self.k)

    def finalize(self, s_final, l_act, collected, aux) -> Optional[int]:
        if s_final is None or not l_act:
            return None
        masked = {i: collected[i] for i in l_act}
        prfs = {i: self.prf_of(i) for i in l_act}
        return unmask_aggregate(s_final, aux, masked, prfs, self.k)

    # Accessors below exist for the privacy-game view builder only.

    def prf_of(self, i: int) -> int:
        return prf(self.params.keys[i], self._t, self.k)

    def share_of(self, i: int) -> int:
        return self._shares[i]
