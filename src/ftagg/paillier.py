"""Additive homomorphic backend: textbook Paillier with the g = n + 1 variant.

Keygen is fully deterministic for a fixed seed so traces and tests reproduce
bit-identically. Its Miller-Rabin test draws 40 random bases per candidate. A
candidate that passes the first one is settled in two tiers:

- below 2^64 (key_bits <= 128), by the Baillie-PSW test: a strong test to
  base 2 and a strong Lucas test with Selfridge's parameters (Baillie &
  Wagstaff, "Lucas pseudoprimes", Math. Comp. 1980; Pomerance, Selfridge &
  Wagstaff, "The pseudoprimes to 25*10^9", Math. Comp. 1980). No composite
  below 2^64 passes both, by Feitsma's list of the base-2 pseudoprimes there;
- above, by the other 39 random rounds.

A proven prime's other 39 bases are drawn but not tried, so every key is the
one the full loop gives. Before any of this, a wheel over 3 * 5 * 7 * 11 * 13
and one gcd with the product of the primes below 1000 reject the candidates
with a small factor, with no draw, as the full loop's trial division does.

Candidates of 512 bits and more (keys of 1024 bits and more) are also
sieved, a window of 1024 odd candidates at a time, by the primes in
(1000, 2^18]. A candidate marked with such a factor f still draws its first
base a, and is rejected at once if a^(n-1) mod f != 1. This is exact: a
strong liar a of n has a^(n-1) = 1 mod n, so mod every factor of n, and the
full loop would reject n at that base too. Otherwise the full probe runs on
the same a. The table of about 23,000 primes is built on first use, so
smaller keys never pay for it. The sieved search probes two candidates at a
time, and the 39 random rounds run as two halves of the bases: if the first
of a pair passes, or a half fails, rng goes back to the state that the full
loop has there, so the draws stay exact.

A ciphertext is a plain int, a unit of Z_(n^2): every holder of one also
holds its key, so the backend folds a share into the running one by a
product mod n^2. The private key is lambda = phi(n), mu = phi(n)^-1 mod n
and the primes p, q. Decryption computes L(c^lambda mod n^2) * mu mod n the
CRT way: mod p^2 and q^2 with exponents p - 1 and q - 1, joined mod n
(Paillier, EUROCRYPT 1999, section 7).

Encryption computes its randomizer r^n mod n^2 from p and q as well: as
x^p mod p^2 depends only on x mod p, r^n mod p^2 = (r^(q mod (p-1)) mod p)^p
mod p^2, likewise mod q^2, joined mod n^2. This is a simulation shortcut. A
real meter holds only the public key; the shortcut is valid here only because
it yields the same integer as pow(r, n, n^2), so every ciphertext, trace and
view is the one the public-key formula gives.

Each encryption and each decryption is thus two independent halves, one mod
p^2 and one mod q^2 (ftagg.halves), joined by the same CRT step, and keygen
runs its probes in such pairs too. For keys of _SPLIT_FROM_BITS = 1536 bits
and more, where the process may run on two CPUs, the first of each pair (the
p-half) runs in one helper process while the caller computes the second.
The helper is a bare interpreter spawned at the first such call, in the
first large keygen, to run halves.py, so it shares no state with its caller.
Smaller keys, where the split gained nothing in most processes measured, and
every other case compute both in the caller. Either way the same function
runs on the same ints, so every result is the one the serial code gives. The
helper answers each line of hex ints on its stdin with one on its stdout.
Its caller closes both pipes unflushed and waits for it at exit; a forked
child drops it and may start its own. Any OSError or EOF from the helper
stops it for good in that process, and the caller computes that half itself.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import itertools
import math
import os
import random
import sys
import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import halves
from .halves import HALVES, ask, strong_probes
from .model import Scenario, check_key_bits


def _prime_flags(limit: int) -> bytearray:
    """Byte i is 1 iff i is a prime, for i up to limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return flags


_SMALL_PRIMES = frozenset(itertools.compress(range(1001), _prime_flags(1000)))
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


def is_probable_prime(n: int, rng: random.Random, factor: int) -> bool:
    """Miller-Rabin with MR_ROUNDS random bases drawn from rng; factor is a
    prime factor of n in (1000, 2^18], or 0 if none is known. Once n passes
    its first round, Baillie-PSW decides it below 2^64: a proven prime's
    later bases are only drawn, and a composite goes on with the full loop.
    """
    if n <= 1000:
        return n in _SMALL_PRIMES
    a = _first_base(n, rng, factor)
    if not a or not strong_probes(n, a):
        return False
    if n < 1 << 64 and strong_probes(n, 2) and _strong_lucas(n):
        _draw_bases(n, MR_ROUNDS - 1, rng)
        return True
    return _confirmed(n, rng)


def _first_base(n: int, rng: random.Random, factor: int) -> int:
    """The base of n's first round, drawn from rng, or 0 if n is rejected by
    the wheel or the gcd, before any draw, or as no Fermat liar mod factor."""
    if not _COPRIME_TO_WHEEL[n % _WHEEL] or math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return 0
    a = rng.randrange(2, n - 1)
    return 0 if factor and pow(a, n - 1, factor) != 1 else a


def _confirmed(n: int, rng: random.Random) -> bool:
    """True iff n passes MR_ROUNDS - 1 more rounds, leaving rng as the plain
    loop does: all bases are drawn at once and split between the sides of a
    _pair, and on a failure rng goes back and the plain loop runs."""
    state = rng.getstate()
    bases = [rng.randrange(2, n - 1) for _ in range(MR_ROUNDS - 1)]
    if all(_pair(_PROBES, 2 * n.bit_length(), (n, *bases[::2]), (n, *bases[1::2]))):
        return True
    rng.setstate(state)
    return all(strong_probes(n, rng.randrange(2, n - 1)) for _ in range(MR_ROUNDS - 1))


# Candidates of this many bits and more are sieved, a window of
# _SIEVE_WINDOW odd numbers at a time, by the primes in (1000, 2^18].
_SIEVE_FROM_BITS = 512
_SIEVE_WINDOW = 1024
_SIEVE_LIMIT = 1 << 18


@functools.cache
def _sieve_primes() -> Sequence[int]:
    """The primes in (1000, _SIEVE_LIMIT], built on first use and with no
    list on the way, so that only keys of 1024 bits and more pay for them,
    in time and in peak memory."""
    from array import array  # loading it would add 0.6 ms to every import

    flags = _prime_flags(_SIEVE_LIMIT)
    flags[:1001] = bytes(1001)
    return array("L", itertools.compress(range(_SIEVE_LIMIT + 1), flags))


def _window_factors(first: int) -> list[int]:
    """Entry i is a prime in (1000, _SIEVE_LIMIT] that divides first + 2i,
    or 0 if none does; first is odd."""
    factors = [0] * _SIEVE_WINDOW
    for f in _sieve_primes():
        # first + 2i = 0 (mod f) at i = -first * 2^-1 (mod f).
        i = (f - first % f) * (f + 1 >> 1) % f
        while i < _SIEVE_WINDOW:
            factors[i] = f
            i += f
    return factors


def _probe_candidates(candidate: int, rng: random.Random) -> Iterator[tuple[int, int, tuple]]:
    """(n, a, state) for each odd n from candidate on that the sieve leaves
    to a probe, in order: a its first base and state rng's state right after
    drawing a. Each window is sieved as the search reaches it."""
    while True:
        for factor in _window_factors(candidate):
            if a := _first_base(candidate, rng, factor):
                yield candidate, a, rng.getstate()
            candidate += 2


def _next_prime(start: int, rng: random.Random) -> int:
    """The first prime from start on; a sieved search probes in pairs."""
    candidate = start | 1
    if candidate.bit_length() < _SIEVE_FROM_BITS:
        while not is_probable_prime(candidate, rng, 0):
            candidate += 2
        return candidate
    while True:
        probes = _probe_candidates(candidate, rng)
        for (n, a, state), (m, b, _) in zip(probes, probes):
            first, second = _pair(_PROBES, 2 * n.bit_length(), (n, a), (m, b))
            if first or second:
                break
        if first:
            rng.setstate(state)
        else:
            n = m
        if _confirmed(n, rng):
            return n
        candidate = n + 2


def _random_prime(bits: int, rng: random.Random) -> int:
    # Top two bits forced so the product of two such primes has full width.
    start = rng.getrandbits(bits) | (1 << (bits - 1)) | (1 << (bits - 2))
    return _next_prime(start, rng)


@dataclass(frozen=True)
class PaillierKeys:
    """Public n, with g = n + 1 left implicit; private lam, mu, the primes
    p > q and the CRT constants hp = ((p-1)q)^-1 mod p, hq = ((q-1)p)^-1
    mod q, q_inv = q^-1 mod p and q_sq_inv = (q^2)^-1 mod p^2. Build one
    with keys_from_primes."""

    n: int
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


def keys_from_primes(p: int, q: int, bits: int) -> PaillierKeys:
    p, q = max(p, q), min(p, q)
    n = p * q
    phi = (p - 1) * (q - 1)
    return PaillierKeys(
        n=n, lam=phi, mu=pow(phi, -1, n), bits=bits, p=p, q=q,
        hp=pow((p - 1) * q, -1, p), hq=pow((q - 1) * p, -1, q), q_inv=pow(q, -1, p),
        q_sq_inv=pow(q * q, -1, p * p),
    )


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


def encrypt(keys: PaillierKeys, m: int, r: int) -> int:
    """c = g^m * r^n mod n^2, with g = n + 1 so g^m = 1 + m*n.

    r^n mod n^2 is joined by the CRT from r^n mod p^2 = (r^(q mod (p-1))
    mod p)^p mod p^2 and its twin mod q^2. That uses the private p and q, a
    simulation shortcut that a real meter cannot take; it is exact, so the
    ciphertext is the one pow(r, n, n^2) gives.
    """
    n = keys.n
    if not 0 <= m < n:
        raise ValueError(f"plaintext {m} outside [0, {n})")
    if not 1 <= r < n or math.gcd(r, n) != 1:
        raise ValueError("randomness must be a unit of Z_n")
    p_sq, q_sq = keys.p * keys.p, keys.q * keys.q
    r_p, r_q = _pair(_RANDOMIZER, keys.bits, (r, keys.p, keys.q), (r, keys.q, keys.p))
    r_n = r_q + q_sq * ((r_p - r_q) * keys.q_sq_inv % p_sq)
    return (1 + m * n) * r_n % keys.n_sq


def decrypt_aggregate(keys: PaillierKeys, c: int) -> int:
    """A = L(c^lambda mod n^2) * mu mod n, with L(x) = (x - 1) / n, computed as
    A mod p = L_p(c^(p-1) mod p^2) * hp mod p (likewise mod q) and joined by
    the CRT."""
    n_sq = keys.n_sq
    if not 0 <= c < n_sq or math.gcd(c, n_sq) != 1:
        raise ValueError("ciphertext value is not a unit of Z_{n^2}")
    p, q = keys.p, keys.q
    c_p, c_q = _pair(_DECRYPT, keys.bits, (c, p, q), (c, q, p))
    a_p = (c_p - 1) // p * keys.hp % p
    a_q = (c_q - 1) // q * keys.hq % q
    return a_q + q * ((a_p - a_q) * keys.q_inv % p)


_RANDOMIZER, _DECRYPT, _PROBES = 0, 1, 2  # indexes into HALVES

# Keys of this many bits and more run one side of each _pair in the helper
# process. Below, the split gained nothing in most processes measured (README).
_SPLIT_FROM_BITS = 1536

# The helper process: None until it starts, its Popen while it runs, and
# False once it has failed or been stopped in this process.
_helper = None
_lock = threading.Lock()  # one request at a time on the helper's pipes


def _pair(kind: int, bits: int, there: tuple, here: tuple) -> tuple[int, int]:
    """(HALVES[kind](*there), HALVES[kind](*here)) for a key of bits bits:
    the first in the helper, started on first use, while this process
    computes the second. Both run here below _SPLIT_FROM_BITS, with fewer
    than two CPUs, no interpreter to start (sys.executable empty or None),
    or a helper busy with another thread's request or failed in this process."""
    global _helper
    half = HALVES[kind]
    if (bits >= _SPLIT_FROM_BITS and _helper is not False and sys.executable
            and _cpus() >= 2 and _lock.acquire(blocking=False)):
        try:
            if _helper is None:
                import subprocess  # loading it would add to every import of ftagg

                _helper = subprocess.Popen(
                    [sys.executable, "-I", "-S", halves.__file__],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                )
            ask(_helper.stdin, kind, *there)
            mine = half(*here)
            reply = _helper.stdout.readline()
            if not reply.endswith(b"\n"):
                raise BrokenPipeError("the Paillier helper closed its pipe")
            return int(reply, 16), mine
        except BaseException as exc:
            # A request left unanswered, by an error or an interrupt, would
            # leave its reply to be read as the next one's.
            _stop_helper()
            if not isinstance(exc, OSError):
                raise
        finally:
            _lock.release()
    return half(*there), half(*here)


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stop_helper() -> None:
    """Stop the helper for good in this process: close its pipes, on which
    it reads EOF and exits, and wait for it. It is always this process's own
    child, as a forked child drops its parent's helper (_forget_helper)."""
    global _helper
    helper, _helper = _helper, False
    if helper:
        helper.stdin.raw.close()  # unflushed, so a request cut short is never sent
        helper.stdout.raw.close()
        helper.wait()


def _forget_helper() -> None:
    """In a forked child: close the copies of the parent's pipes, unflushed,
    so that the child never writes to nor reads from the parent's helper and
    the helper still sees EOF when the parent ends."""
    global _helper, _lock
    if _helper:
        _helper.stdin.raw.close()
        _helper.stdout.raw.close()
        _helper.returncode = 0  # not this process's child, so never waited for
    _helper, _lock = None, threading.Lock()


atexit.register(_stop_helper)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


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

    def init_share(self) -> int:
        return encrypt(self.keys, 0, next(self._rand))

    def fold_measurement(self, s_running: int, i: int) -> int:
        c = encrypt(self.keys, self._measurements[i], next(self._rand))
        return s_running * c % self.keys.n_sq

    def finalize(self, s_final, l_act, collected, opening) -> int:
        # The opener is an encryption of zero, already folded into s_final.
        return decrypt_aggregate(self.keys, s_final)

    def coalition_view(self, corrupted_dc: bool, corrupted_sms) -> dict:
        """The public n; the private key only with the concentrator."""
        keys = self.keys
        secrets = {}
        if corrupted_dc:
            secrets["he_secret_key"] = {
                "lam": keys.lam, "mu": keys.mu, "n": keys.n, "bits": keys.bits
            }
        return {"modulus": None, "public_n": keys.n, "secrets": secrets}
