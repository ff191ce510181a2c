"""Additive homomorphic backend: textbook Paillier with the g = n + 1 variant.

Keygen is fully deterministic for a fixed seed so traces and tests reproduce
bit-identically. Decryption uses lambda = phi(n) and mu = phi(n)^-1 mod n.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from .model import Scenario, check_key_bits


class PlaintextOutOfRange(ValueError):
    pass


class BadRandomness(ValueError):
    pass


class MalformedCiphertext(ValueError):
    pass


def _small_primes(limit: int = 1000) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, v in enumerate(sieve) if v]


_SMALL_PRIMES = _small_primes()

MR_ROUNDS = 40


def is_probable_prime(n: int, rng: random.Random, rounds: int = MR_ROUNDS) -> bool:
    """Miller-Rabin with `rounds` random bases drawn from rng."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(start: int, rng: random.Random) -> int:
    candidate = start | 1
    while not is_probable_prime(candidate, rng):
        candidate += 2
    return candidate


def _random_prime(bits: int, rng: random.Random) -> int:
    # Top two bits forced so the product of two such primes has full width.
    start = rng.getrandbits(bits) | (1 << (bits - 1)) | (1 << (bits - 2))
    return _next_prime(start, rng)


@dataclass(frozen=True)
class PaillierKeys:
    n: int
    g: int
    lam: int
    mu: int
    bits: int

    @property
    def n_sq(self) -> int:
        return self.n * self.n


@dataclass(frozen=True)
class Ciphertext:
    value: int
    n_sq: int


@functools.lru_cache(maxsize=256)
def keygen(bits: int, seed: int) -> PaillierKeys:
    """Deterministic key generation; prime search loops until success."""
    check_key_bits(bits)
    rng = random.Random(seed)
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if n.bit_length() != bits or math.gcd(n, phi) != 1:
            continue
        return PaillierKeys(n=n, g=n + 1, lam=phi, mu=pow(phi, -1, n), bits=bits)


def encrypt(keys: PaillierKeys, m: int, r: int) -> Ciphertext:
    """c = g^m * r^n mod n^2, with g = n + 1 so g^m = 1 + m*n."""
    n = keys.n
    if not 0 <= m < n:
        raise PlaintextOutOfRange(f"plaintext {m} outside [0, {n})")
    if not 1 <= r < n or math.gcd(r, n) != 1:
        raise BadRandomness("randomness must be a unit of Z_n")
    n_sq = keys.n_sq
    return Ciphertext(((1 + m * n) % n_sq) * pow(r, n, n_sq) % n_sq, n_sq)


def add_encrypted(s_running: Ciphertext, c: Ciphertext) -> Ciphertext:
    if s_running.n_sq != c.n_sq:
        raise MalformedCiphertext("ciphertexts under different moduli")
    return Ciphertext((s_running.value * c.value) % s_running.n_sq, s_running.n_sq)


def decrypt_aggregate(keys: PaillierKeys, s_final: Ciphertext) -> int:
    """A = L(c^lambda mod n^2) * mu mod n, with L(x) = (x - 1) / n."""
    n, n_sq = keys.n, keys.n_sq
    if s_final.n_sq != n_sq:
        raise MalformedCiphertext("ciphertext under a different modulus")
    v = s_final.value
    if not 0 <= v < n_sq or math.gcd(v, n_sq) != 1:
        raise MalformedCiphertext("ciphertext value is not a unit of Z_{n^2}")
    x = pow(v, keys.lam, n_sq)
    return ((x - 1) // n) * keys.mu % n


def randomness_stream(keys: PaillierKeys, seed: int, t: int) -> Iterator[int]:
    """Deterministic stream of encryption randomizers, fresh per (seed, t)."""
    digest = hashlib.blake2b(
        t.to_bytes(8, "big"), key=seed.to_bytes(8, "big"), person=b"encrand"
    ).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    while True:
        r = rng.randrange(1, keys.n)
        if math.gcd(r, keys.n) == 1:
            yield r


class PaillierBackend:
    """Computation plug for the protocol engine (additive-HE column)."""

    name = "paillier"

    def __init__(self, scenario: Scenario, keys: Optional[PaillierKeys] = None):
        self.keys = keys if keys is not None else keygen(
            scenario.backend.key_bits, scenario.seed
        )
        self._measurements = dict(scenario.measurements)
        self._rand = randomness_stream(self.keys, scenario.seed, scenario.round)

    def initial_payload(self, i: int, t: int) -> None:
        # The opening message only marks the meter reachable; no data rides it.
        return None

    def init_share(self) -> tuple[None, Ciphertext]:
        return None, encrypt(self.keys, 0, next(self._rand))

    def fold_measurement(self, s_running: Ciphertext, i: int) -> Ciphertext:
        c = encrypt(self.keys, self._measurements[i], next(self._rand))
        return add_encrypted(s_running, c)

    def finalize(self, s_final, l_act, collected, aux) -> Optional[int]:
        if s_final is None or not l_act:
            return None
        return decrypt_aggregate(self.keys, s_final)
