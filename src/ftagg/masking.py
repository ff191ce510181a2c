"""Modular-masking computation backend: Z_k share arithmetic and the keyed PRF.

k is a power of two so truncating a keyed-hash output to log2(k) bits samples
Z_k exactly uniformly. Each meter holds two independent 128-bit secrets: a PRF
key (pre-shared with the concentrator) and a share key (never shared) from
which its per-round additive share is derived.
"""

from __future__ import annotations

import hashlib

from .model import MAX_K_BITS, MeasurementOutOfRange, Scenario, ScenarioError

KEY_BYTES = 16


def _check_modulus(k: int) -> None:
    if k < 2 or k & (k - 1) or k > 1 << MAX_K_BITS:
        raise ScenarioError(
            f"masking modulus must be a power of two in 2..2^{MAX_K_BITS}, got {k}"
        )


def _h(data: bytes, key: bytes, person: bytes, size: int = KEY_BYTES) -> bytes:
    return hashlib.blake2b(data, key=key, person=person, digest_size=size).digest()


def _u64(x: int) -> bytes:
    return x.to_bytes(8, "big")


def derive_prf_key(seed: int, i: int) -> bytes:
    return _h(_u64(i), _u64(seed), b"prfkey")


def derive_share_key(seed: int, i: int) -> bytes:
    """Per-meter secret behind the round shares; never placed in any view."""
    return _h(_u64(i), _u64(seed), b"sharekey")


def round_share(seed: int, i: int, t: int, k: int) -> int:
    _check_modulus(k)
    digest = _h(_u64(t), derive_share_key(seed, i), b"roundshare")
    return int.from_bytes(digest, "big") & (k - 1)


def prf(key: bytes, t: int, k: int) -> int:
    """Keyed pseudo-random residue for round t, exactly uniform over Z_k."""
    _check_modulus(k)
    digest = _h(_u64(t), key, b"prf")
    return int.from_bytes(digest, "big") & (k - 1)


def mask(m: int, s: int, p: int, k: int) -> int:
    if not 0 <= m < k:
        raise MeasurementOutOfRange(f"measurement {m} outside [0, {k})")
    return (m + s + p) % k


class MaskingBackend:
    """Computation plug for the protocol engine (masking column).

    Set-up derives every meter's PRF key (a pinned key wins), its round
    share and its PRF value for the round, and the concentrator's opener
    s_0. The privacy game's view builder reads `prf_keys`, `shares` and
    `s_0`.
    """

    name = "masking"

    def __init__(self, scenario: Scenario):
        k = self.k = scenario.backend.k
        seed, t = scenario.seed, scenario.round
        pinned = scenario.prf_keys or {}
        meters = range(1, scenario.n_sm + 1)
        self.prf_keys = {
            i: pinned[i] if i in pinned else derive_prf_key(seed, i) for i in meters
        }
        self.shares = {i: round_share(seed, i, t, k) for i in meters}
        self._prfs = {i: prf(key, t, k) for i, key in self.prf_keys.items()}
        self._measurements = dict(scenario.measurements)
        dc_seed = _h(_u64(t), _u64(seed), b"dcseed", 8)
        self.s_0 = int.from_bytes(_h(b"", dc_seed, b"dcshare"), "big") & (k - 1)

    def initial_payload(self, i: int, t: int) -> int:
        return mask(self._measurements[i], self.shares[i], self._prfs[i], self.k)

    def init_share(self) -> int:
        return self.s_0

    def fold_measurement(self, s_running: int, i: int) -> int:
        return (s_running + self.shares[i]) % self.k

    def finalize(self, s_final, l_act, collected, opening) -> int:
        """The plain sum over l_act: every round share and PRF value cancels."""
        unmasked = sum(collected[i] - self._prfs[i] for i in l_act)
        return (opening - s_final + unmasked) % self.k
