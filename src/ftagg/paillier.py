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
smaller keys never pay for it.

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
p^2 and one mod q^2, joined by the same CRT step. For keys of
_SPLIT_FROM_BITS bits and more, where the process may run on two CPUs and has
no other thread, the p-half runs in one helper process forked at the first
such call, while the caller computes the q-half; smaller keys, and every
other case, compute both halves in the caller. Either way the helper runs the
same half function on the same ints, so every result is the one the serial
code gives. The helper talks over a socketpair, one request at a time. It
ignores SIGINT, keeps no descriptor but its socket and leaves only through
os._exit. The process that forked it closes its socket and reaps it at exit;
a forked child drops it and may start its own. Any OSError or EOF from the
helper stops it for good in that process, and the caller computes that half
itself.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import itertools
import math
import os
import random
import struct
import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

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


def is_probable_prime(n: int, rng: random.Random, factor: int) -> bool:
    """Miller-Rabin with MR_ROUNDS random bases drawn from rng; factor is a
    prime factor of n in (1000, 2^18], or 0 if none is known.

    An n with such a factor is rejected right after its first draw unless
    that base is a Fermat liar mod factor. Once n passes its first round,
    Baillie-PSW decides it below 2^64. A proven prime would pass every later
    round, so those bases are only drawn, which leaves the result and rng's
    state as the full loop leaves them; a composite goes on with the full loop.
    """
    if n <= 1000:
        return n in _SMALL_PRIMES
    if not _COPRIME_TO_WHEEL[n % _WHEEL] or math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return False
    a = rng.randrange(2, n - 1)
    if factor and pow(a, n - 1, factor) != 1:
        return False
    r = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> r
    if not _strong_probe(a, d, r, n):
        return False
    if n < 1 << 64 and _strong_probe(2, d, r, n) and _strong_lucas(n):
        _draw_bases(n, MR_ROUNDS - 1, rng)
        return True
    return all(_strong_probe(rng.randrange(2, n - 1), d, r, n) for _ in range(MR_ROUNDS - 1))


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


def _next_prime(start: int, rng: random.Random) -> int:
    candidate = start | 1
    if candidate.bit_length() < _SIEVE_FROM_BITS:
        while not is_probable_prime(candidate, rng, 0):
            candidate += 2
        return candidate
    while True:
        for factor in _window_factors(candidate):
            if is_probable_prime(candidate, rng, factor):
                return candidate
            candidate += 2


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
    r_p, r_q = _both_halves(_RANDOMIZER, r, keys)
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
    c_p, c_q = _both_halves(_DECRYPT, c, keys)
    a_p = (c_p - 1) // p * keys.hp % p
    a_q = (c_q - 1) // q * keys.hq % q
    return a_q + q * ((a_p - a_q) * keys.q_inv % p)


def _randomizer_half(r: int, p: int, q: int) -> int:
    """r^(pq) mod p^2: x^p mod p^2 depends only on x mod p."""
    return pow(pow(r, q % (p - 1), p), p, p * p)


def _decrypt_half(c: int, p: int, q: int) -> int:
    """c^(p-1) mod p^2."""
    return pow(c, p - 1, p * p)


_RANDOMIZER, _DECRYPT = 0, 1
_HALVES = (_randomizer_half, _decrypt_half)

# Keys of this many bits and more run their p-halves in the helper process.
_SPLIT_FROM_BITS = 512


def _both_halves(kind: int, x: int, keys: PaillierKeys) -> tuple[int, int]:
    """(half(x, p, q), half(x, q, p)) for half = _HALVES[kind]: the first in
    the helper, if _take_helper gives one, while this process computes the
    second."""
    global _helper_lost
    half, p, q = _HALVES[kind], keys.p, keys.q
    helper = _take_helper(keys.bits)
    if helper is None:
        return half(x, p, q), half(x, q, p)
    try:
        width = helper.ask(kind, x, p, q)
        h_q = half(x, q, p)
        h_p = helper.answer(width)
    except BaseException as exc:
        # A request left unanswered, by an error or an interrupt, would
        # leave its reply to be read as the next one's.
        _helper_lost = True
        _stop_helper()
        if not isinstance(exc, OSError):
            raise
        return half(x, p, q), half(x, q, p)
    finally:
        _lock.release()
    return h_p, h_q


class _Helper:
    """The caller's end of the helper process: its pid, the pid that forked
    it and one end of a socketpair, which carries one request at a time."""

    def __init__(self, pid: int, sock, send_flags: int) -> None:
        self.pid, self.owner, self.sock, self._send_flags = pid, os.getpid(), sock, send_flags

    def ask(self, kind: int, x: int, p: int, q: int) -> int:
        """Sends one request; returns the size of its reply in bytes."""
        width = (max(x, p * p).bit_length() + 7) // 8
        self.sock.sendall(
            struct.pack("<BI", kind, width)
            + b"".join(v.to_bytes(width, "little") for v in (x, p, q)),
            self._send_flags,
        )
        return width

    def answer(self, width: int) -> int:
        reply = _read_exactly(self.sock.fileno(), width)
        if reply is None:
            raise ConnectionResetError("the Paillier helper closed its socket")
        return int.from_bytes(reply, "little")


_helper: _Helper | None = None
_helper_lost = False  # set once a helper could not start or failed
_lock = threading.Lock()  # one request at a time on the helper's socket


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _take_helper(bits: int) -> _Helper | None:
    """The helper, started on first use and locked for one request, or None
    when the caller is to compute both halves: a key below _SPLIT_FROM_BITS,
    no fork, fewer than two CPUs to run on, a helper busy with another
    thread's request, or one that failed in this process. A process with
    other threads is not forked."""
    global _helper_lost
    if (bits < _SPLIT_FROM_BITS or _helper_lost or not hasattr(os, "fork") or _cpus() < 2
            or not _lock.acquire(blocking=False)):
        return None
    try:
        if _helper is None and threading.active_count() == 1:
            _start_helper()
    except OSError:
        _helper_lost = True
    finally:
        if _helper is None:
            _lock.release()
    return _helper


def _start_helper() -> None:
    global _helper
    import signal  # loading these would add to every import of ftagg
    import socket

    mine, theirs = socket.socketpair()
    # SIGINT stays blocked until the child has set it to be ignored, so no
    # KeyboardInterrupt can take the child back into the caller's code.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        pid = os.fork()
        if pid == 0:
            _serve(mine, theirs, mask)
        _helper = _Helper(pid, mine, getattr(socket, "MSG_NOSIGNAL", 0))
    finally:
        theirs.close()
        if _helper is None:
            mine.close()
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _serve(mine, theirs, mask) -> None:
    """The helper's whole life, from right after the fork: answer requests
    on the socket theirs until EOF. It ends only through os._exit, so it never
    runs the parent's exit handlers nor flushes the parent's buffers, and an
    error ends it without a word."""
    try:
        import gc
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        gc.disable()  # a collection would copy the parent's pages for nothing
        mine.close()
        fd = theirs.detach()
        os.closerange(0, fd)
        os.closerange(fd + 1, max(os.sysconf("SC_OPEN_MAX"), fd + 1))
        while (head := _read_exactly(fd, 5)) is not None:
            kind, width = struct.unpack("<BI", head)
            body = _read_exactly(fd, 3 * width)
            if body is None:
                break
            x, p, q = (int.from_bytes(body[i : i + width], "little")
                       for i in range(0, 3 * width, width))
            reply = memoryview(_HALVES[kind](x, p, q).to_bytes(width, "little"))
            while reply:
                reply = reply[os.write(fd, reply) :]
    finally:
        os._exit(0)


def _read_exactly(fd: int, size: int) -> bytes | None:
    """size bytes from fd, or None at EOF."""
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            return None
        data += chunk
    return data


def _stop_helper() -> None:
    """Close the helper's socket and reap it; it reads EOF and exits. Only
    the process that forked it does so."""
    global _helper
    helper, _helper = _helper, None
    if helper is None:
        return
    helper.sock.close()
    if helper.owner == os.getpid():
        try:
            os.waitpid(helper.pid, 0)
        except ChildProcessError:  # reaped already, as under SIGCHLD = SIG_IGN
            pass


def _forget_helper() -> None:
    """In a forked child: close the copy of the parent's socket, so that
    the child never reads the parent's replies and the helper still sees EOF
    when the parent ends."""
    global _helper, _helper_lost, _lock
    if _helper is not None:
        _helper.sock.close()
    _helper, _helper_lost, _lock = None, False, threading.Lock()


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
