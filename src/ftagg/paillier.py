"""Additive homomorphic backend: textbook Paillier with the g = n + 1 variant.

Keygen is fully deterministic for a fixed seed so traces and tests reproduce
bit-identically. Its Miller-Rabin test draws 40 random bases per candidate. A
candidate that passes the first one is settled by a proof where one is known,
in three tiers:

- below 2^64 (key_bits <= 128), by the Baillie-PSW test: a strong test to
  base 2 and a strong Lucas test with Selfridge's parameters (Baillie &
  Wagstaff, "Lucas pseudoprimes", Math. Comp. 1980; Pomerance, Selfridge &
  Wagstaff, "The pseudoprimes to 25*10^9", Math. Comp. 1980). No composite
  below 2^64 passes both, by Feitsma's list of the base-2 pseudoprimes there;
- below PSI_12 = 318665857834031151167461 (about 2^78, so key_bits <= 156),
  by strong tests to the 12 prime bases 2..37 (Sorenson & Webster, "Strong
  pseudoprimes to twelve prime bases", Math. Comp. 2017);
- above, by the other 39 random rounds.

A proven prime's other 39 bases are drawn but not tried, so every key is the
one the full loop gives. Before any of this, a wheel over 3 * 5 * 7 * 11 * 13
and one gcd with the product of the primes below 1000 reject the candidates
with a small factor, with no draw, as the full loop's trial division does.

The private key is lambda = phi(n), mu = phi(n)^-1 mod n and the primes p, q.
Decryption computes L(c^lambda mod n^2) * mu mod n the CRT way: mod p^2 and
q^2 with exponents p - 1 and q - 1, joined mod n (Paillier, EUROCRYPT 1999,
section 7).

Encryption computes its randomizer r^n mod n^2 from p and q as well: as
x^p mod p^2 depends only on x mod p, r^n mod p^2 = (r^(q mod (p-1)) mod p)^p
mod p^2, likewise mod q^2, joined mod n^2. This is a simulation shortcut. A
real meter holds only the public key; the shortcut is valid here only because
it yields the same integer as pow(r, n, n^2), so every ciphertext, trace and
view is the one the public-key formula gives.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass
from typing import Iterator

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


_SMALL_PRIMES = frozenset(_small_primes())
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)

_WHEEL = 3 * 5 * 7 * 11 * 13


def _wheel() -> bytes:
    """Byte r is 0 iff r shares a factor with _WHEEL, so byte n % _WHEEL
    rejects the candidates n that the primorial gcd would reject for these
    five primes. Slice assignment fills it in well under a millisecond."""
    table = bytearray([1]) * _WHEEL
    for p in (3, 5, 7, 11, 13):
        table[::p] = bytes(_WHEEL // p)
    return bytes(table)


_COPRIME_TO_WHEEL = _wheel()

MR_ROUNDS = 40

# Sorenson & Webster: every composite below PSI_12 fails a strong test to one
# of the first 12 prime bases (PSI_12 itself passes all 12).
PSI_12 = 318665857834031151167461
_PSI_12_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _strong_probe(a: int, d: int, r: int, n: int) -> bool:
    """One Miller-Rabin round: True iff n is a strong probable prime to base a,
    with n - 1 = d * 2^r and d odd."""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                sign = -sign
        a, n = n, a
        if a & n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """True iff odd n > 2 is a strong Lucas probable prime with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D) / 4. No such D exists for a square, so squares are rejected
    first.

    With alpha, beta the roots of x^2 - x + Q, the test asks whether
    U_d = 0 or V_(d 2^r) = 0 for some r < s, where n + 1 = d 2^s, d odd.
    Both D and Q are units mod n (a prime factor of Q would divide an
    earlier D of the search), so these are g^d = 1 and g^(d 2^r) = -1 for
    g = alpha / beta. The ladder runs on W_k = g^k + g^-k alone, as
    W_2k = W_k^2 - 2 and W_(2k+1) = W_k W_(k+1) - W_1, and reads g^k = +-1
    exactly as (W_k, W_(k+1)) = +-(2, W_1): if W_k = 2 and z = g^k, then
    (z - 1)^2 = 0, and W_(k+1) = W_1 makes (z - 1)(g - 1/g) = 0, where
    g - 1/g = sqrt(D) / Q is a unit."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and D % n:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    w1 = (1 - 2 * Q) * pow(Q, -1, n) % n  # g + 1/g = (alpha^2 + beta^2) / Q
    v, w = 2, w1
    for bit in bin((n + 1) >> s)[2:]:
        if bit == "1":
            v, w = (v * w - w1) % n, (w * w - 2) % n
        else:
            v, w = (v * v - 2) % n, (v * w - w1) % n
    if v == 2 and w == w1:
        return True
    for _ in range(s):
        if v == n - 2 and w == -w1 % n:
            return True
        v, w = (v * v - 2) % n, (v * w - w1) % n
    return False


def _draw_bases(n: int, count: int, rng: random.Random) -> None:
    """Draw count bases as rng.randrange(2, n - 1) would, and drop them.

    CPython's randrange draws (n - 3).bit_length() random bits and draws
    again until they fall below n - 3, so running that loop here leaves rng
    in the same state, without randrange's per-call argument checks."""
    width = n - 3
    k = width.bit_length()
    getrandbits = rng.getrandbits
    for _ in range(count):
        while getrandbits(k) >= width:
            pass


def is_probable_prime(n: int, rng: random.Random) -> bool:
    """Miller-Rabin with MR_ROUNDS random bases drawn from rng.

    Once n passes its first round, Baillie-PSW decides it below 2^64 and the
    12 fixed bases below PSI_12. A proven prime would pass every later round,
    so those bases are only drawn, which leaves the result and rng's state as
    the full loop leaves them; a composite goes on with the full loop.
    """
    if n <= 1000:
        return n in _SMALL_PRIMES
    if not _COPRIME_TO_WHEEL[n % _WHEEL] or math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return False
    r = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> r
    if not _strong_probe(rng.randrange(2, n - 1), d, r, n):
        return False
    if n < 1 << 64:
        proven = _strong_probe(2, d, r, n) and _strong_lucas(n)
    else:
        proven = n < PSI_12 and all(_strong_probe(a, d, r, n) for a in _PSI_12_BASES)
    if proven:
        _draw_bases(n, MR_ROUNDS - 1, rng)
        return True
    return all(_strong_probe(rng.randrange(2, n - 1), d, r, n) for _ in range(MR_ROUNDS - 1))


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
    """Public n and g = n + 1; private lam, mu, the primes p > q and the CRT
    constants hp = ((p-1)q)^-1 mod p, hq = ((q-1)p)^-1 mod q,
    q_inv = q^-1 mod p and q_sq_inv = (q^2)^-1 mod p^2. Build one with
    keys_from_primes."""

    n: int
    g: int
    lam: int
    mu: int
    bits: int
    p: int
    q: int
    hp: int
    hq: int
    q_inv: int
    q_sq_inv: int

    @property
    def n_sq(self) -> int:
        return self.n * self.n


@dataclass(frozen=True)
class Ciphertext:
    value: int
    n_sq: int


def keys_from_primes(p: int, q: int, bits: int) -> PaillierKeys:
    p, q = max(p, q), min(p, q)
    n = p * q
    phi = (p - 1) * (q - 1)
    return PaillierKeys(
        n=n, g=n + 1, lam=phi, mu=pow(phi, -1, n), bits=bits, p=p, q=q,
        hp=pow((p - 1) * q, -1, p), hq=pow((q - 1) * p, -1, q), q_inv=pow(q, -1, p),
        q_sq_inv=pow(q * q, -1, p * p),
    )


def keys_from_totient(n: int, phi: int, bits: int) -> PaillierKeys:
    """The key of n = pq rebuilt from phi = (p-1)(q-1): p + q = n - phi + 1,
    so p and q are the roots of x^2 - (n - phi + 1)x + n."""
    s = n - phi + 1
    disc = s * s - 4 * n
    root = math.isqrt(max(disc, 0))
    p, q = (s + root) // 2, (s - root) // 2
    if root * root != disc or q < 2:
        raise ValueError("phi is not the totient of a product of two primes")
    return keys_from_primes(p, q, bits)


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
        return keys_from_primes(p, q, bits)


def encrypt(keys: PaillierKeys, m: int, r: int) -> Ciphertext:
    """c = g^m * r^n mod n^2, with g = n + 1 so g^m = 1 + m*n.

    r^n mod n^2 is joined by the CRT from r^n mod p^2 = (r^(q mod (p-1))
    mod p)^p mod p^2 and its twin mod q^2. That uses the private p and q, a
    simulation shortcut that a real meter cannot take; it is exact, so the
    ciphertext is the one pow(r, n, n^2) gives.
    """
    n = keys.n
    if not 0 <= m < n:
        raise PlaintextOutOfRange(f"plaintext {m} outside [0, {n})")
    if not 1 <= r < n or math.gcd(r, n) != 1:
        raise BadRandomness("randomness must be a unit of Z_n")
    p, q = keys.p, keys.q
    p_sq, q_sq, n_sq = p * p, q * q, keys.n_sq
    r_p = pow(pow(r, q % (p - 1), p), p, p_sq)
    r_q = pow(pow(r, p % (q - 1), q), q, q_sq)
    r_n = r_q + q_sq * ((r_p - r_q) * keys.q_sq_inv % p_sq)
    return Ciphertext((1 + m * n) * r_n % n_sq, n_sq)


def add_encrypted(s_running: Ciphertext, c: Ciphertext) -> Ciphertext:
    if s_running.n_sq != c.n_sq:
        raise MalformedCiphertext("ciphertexts under different moduli")
    return Ciphertext((s_running.value * c.value) % s_running.n_sq, s_running.n_sq)


def decrypt_aggregate(keys: PaillierKeys, s_final: Ciphertext) -> int:
    """A = L(c^lambda mod n^2) * mu mod n, with L(x) = (x - 1) / n, computed as
    A mod p = L_p(c^(p-1) mod p^2) * hp mod p (likewise mod q) and joined by
    the CRT."""
    n_sq = keys.n_sq
    if s_final.n_sq != n_sq:
        raise MalformedCiphertext("ciphertext under a different modulus")
    v = s_final.value
    if not 0 <= v < n_sq or math.gcd(v, n_sq) != 1:
        raise MalformedCiphertext("ciphertext value is not a unit of Z_{n^2}")
    p, q = keys.p, keys.q
    a_p = (pow(v, p - 1, p * p) - 1) // p * keys.hp % p
    a_q = (pow(v, q - 1, q * q) - 1) // q * keys.hq % q
    return a_q + q * ((a_p - a_q) * keys.q_inv % p)


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

    def __init__(self, scenario: Scenario):
        self.keys = keygen(scenario.backend.key_bits, scenario.seed)
        self._measurements = dict(scenario.measurements)
        self._rand = randomness_stream(self.keys, scenario.seed, scenario.round)

    def initial_payload(self, i: int, t: int) -> None:
        # The opening message only marks the meter reachable; no data rides it.
        return None

    def init_share(self) -> Ciphertext:
        return encrypt(self.keys, 0, next(self._rand))

    def fold_measurement(self, s_running: Ciphertext, i: int) -> Ciphertext:
        c = encrypt(self.keys, self._measurements[i], next(self._rand))
        return add_encrypted(s_running, c)

    def finalize(self, s_final, l_act, collected, opening) -> int:
        # The opener is an encryption of zero, already folded into s_final.
        return decrypt_aggregate(self.keys, s_final)
