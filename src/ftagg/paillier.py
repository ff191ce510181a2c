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

Encryption computes its randomizer r^n mod n^2 on one of two routes, chosen
by the key size alone (_direct_randomizer). Small keys take one powmod(r, n,
n^2), the public-key formula. Larger keys take the lifted CRT from p and q:
as x^p mod p^2 depends only on x mod p, r^n mod p^2 = (r^(q mod (p-1)) mod
p)^p mod p^2, likewise mod q^2, joined mod n^2 (_crt_randomizer). The CRT's
four exponentiations of half-size numbers beat one of n^2 only where the
fixed cost of each powmod call is small next to the arithmetic: from 384-bit
keys where n^2 goes to libcrypto, and from 128-bit keys on the builtin pow.
The CRT is a simulation shortcut. A real meter holds only the public key;
the shortcut is valid here only because it yields the same integer as
pow(r, n, n^2), so every ciphertext, trace and view is the same on both
routes.

Every exponentiation of keygen's probes, encryption and decryption runs
through powmod. Moduli of _LIBCRYPTO_FROM_BITS = 128 bits and more go to
BN_mod_exp of the libcrypto that hashlib's _hashlib links, loaded by ctypes
at the first such call; smaller moduli, and all of them where no libcrypto
loads, go to the builtin pow. Both give the same integer, so every key,
ciphertext and report is the same on either route.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from .model import Scenario, check_key_bits

# Moduli of this many bits and more are exponentiated by libcrypto where it
# loads. Below, the builtin pow is faster than the calls into it (README).
_LIBCRYPTO_FROM_BITS = 128

# Keys below these many bits encrypt with one powmod(r, n, n^2), larger ones
# with the lifted CRT's four exponentiations of half-size numbers: the first
# on the builtin pow alone, the second where n^2 goes to libcrypto, whose
# calls each cost about 12 us beyond their arithmetic, which the CRT pays
# four times (README, "Big numbers").
_DIRECT_BELOW_BITS = 128
_DIRECT_BELOW_BITS_ON_LIBCRYPTO = 384


@functools.cache
def _libcrypto():
    """libcrypto, with the types of the functions powmod calls set, or False
    where neither soname loads; loaded at the first call that needs it.
    _hashlib links it, so it is normally in the process already."""
    import ctypes  # loading it would add about 2 ms to every import of ftagg

    for name in ("libcrypto.so.3", "libcrypto.so.1.1"):
        try:
            lib = ctypes.CDLL(name)
            ptr, num = ctypes.c_void_p, ctypes.c_int
            for fn, restype, argtypes in (
                ("BN_CTX_new", ptr, ()),
                ("BN_CTX_free", None, (ptr,)),
                ("BN_new", ptr, ()),
                ("BN_free", None, (ptr,)),
                ("BN_bin2bn", ptr, (ctypes.c_char_p, num, ptr)),
                ("BN_bn2binpad", num, (ptr, ctypes.c_char_p, num)),
                ("BN_mod_exp", num, (ptr, ptr, ptr, ptr, ptr)),
            ):
                f = getattr(lib, fn)
                f.restype, f.argtypes = restype, argtypes
        except (OSError, AttributeError):
            continue
        lib.buffer = ctypes.create_string_buffer  # so that powmod needs no ctypes import
        return lib
    return False


def powmod(a: int, e: int, m: int) -> int:
    """pow(a, e, m) for a, e >= 0 and m >= 1: by libcrypto's BN_mod_exp for
    moduli of _LIBCRYPTO_FROM_BITS bits and more where it loads, else by the
    builtin pow. Each call makes and frees its own BIGNUMs and BN_CTX, so
    threads may call it at once."""
    if m.bit_length() < _LIBCRYPTO_FROM_BITS or not (lib := _libcrypto()):
        return pow(a, e, m)
    size = (m.bit_length() + 7) // 8
    ctx, bns = None, []
    try:
        ctx = _checked(lib.BN_CTX_new(), "BN_CTX_new")
        for x in (a, e, m):
            data = x.to_bytes((x.bit_length() + 7) // 8, "big")
            bns.append(_checked(lib.BN_bin2bn(data, len(data), None), "BN_bin2bn"))
        bns.append(_checked(lib.BN_new(), "BN_new"))
        _checked(lib.BN_mod_exp(bns[3], bns[0], bns[1], bns[2], ctx), "BN_mod_exp")
        out = lib.buffer(size)
        _checked(lib.BN_bn2binpad(bns[3], out, size) == size, "BN_bn2binpad")
        return int.from_bytes(out.raw, "big")
    finally:
        for bn in bns:
            lib.BN_free(bn)
        lib.BN_CTX_free(ctx)


def _checked(result, name: str):
    """result, unless libcrypto's call name returned NULL or 0 for failure,
    which for these calls means that an allocation failed."""
    if not result:
        raise MemoryError(f"libcrypto's {name} failed")
    return result


def _direct_randomizer(n: int) -> bool:
    """True iff encrypt computes r^n mod n^2 for the key n by one powmod
    rather than by the lifted CRT: whichever is faster at n's size on the
    route powmod takes (README, "Big numbers")."""
    bits = n.bit_length()
    return bits < _DIRECT_BELOW_BITS or (
        bits < _DIRECT_BELOW_BITS_ON_LIBCRYPTO and bool(_libcrypto()))


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


def _strong_probe(n: int, a: int) -> bool:
    """One Miller-Rabin round: True iff the odd n > 3 is a strong probable
    prime to base a, that is, with n - 1 = d * 2^r and d odd, a^d = 1 or
    a^(d * 2^i) = -1 mod n for some i < r."""
    r = ((n - 1) & (1 - n)).bit_length() - 1
    x = powmod(a, (n - 1) >> r, n)
    if x == 1:
        return True
    for _ in range(r):
        if x == n - 1:
            return True
        x = x * x % n
    return False


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
    if not _strong_probe(n, a):
        return False
    if n < 1 << 64 and _strong_probe(n, 2) and _strong_lucas(n):
        _draw_bases(n, MR_ROUNDS - 1, rng)
        return True
    return all(_strong_probe(n, rng.randrange(2, n - 1)) for _ in range(MR_ROUNDS - 1))


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
    while True:
        sieved = candidate.bit_length() >= _SIEVE_FROM_BITS
        for factor in _window_factors(candidate) if sieved else itertools.repeat(0, _SIEVE_WINDOW):
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

    r^n mod n^2 is one powmod(r, n, n^2) for small keys and the lifted CRT
    of _crt_randomizer for larger ones, as _direct_randomizer decides. Both
    give the same integer, so the ciphertext is the one pow(r, n, n^2)
    gives.
    """
    n = keys.n
    if not 0 <= m < n:
        raise ValueError(f"plaintext {m} outside [0, {n})")
    if not 1 <= r < n or math.gcd(r, n) != 1:
        raise ValueError("randomness must be a unit of Z_n")
    n_sq = keys.n_sq
    r_n = powmod(r, n, n_sq) if _direct_randomizer(n) else _crt_randomizer(keys, r)
    return (1 + m * n) * r_n % n_sq


def _crt_randomizer(keys: PaillierKeys, r: int) -> int:
    """r^n mod n^2, joined by the CRT from r^n mod p^2 = (r^(q mod (p-1))
    mod p)^p mod p^2 and its twin mod q^2. That uses the private p and q, a
    simulation shortcut that a real meter cannot take; it is exact for every
    unit r of Z_n."""
    p, q = keys.p, keys.q
    p_sq, q_sq = p * p, q * q
    r_p = powmod(powmod(r, q % (p - 1), p), p, p_sq)
    r_q = powmod(powmod(r, p % (q - 1), q), q, q_sq)
    return r_q + q_sq * ((r_p - r_q) * keys.q_sq_inv % p_sq)


def decrypt_aggregate(keys: PaillierKeys, c: int) -> int:
    """A = L(c^lambda mod n^2) * mu mod n, with L(x) = (x - 1) / n, computed as
    A mod p = L_p(c^(p-1) mod p^2) * hp mod p (likewise mod q) and joined by
    the CRT."""
    n_sq = keys.n_sq
    if not 0 <= c < n_sq or math.gcd(c, n_sq) != 1:
        raise ValueError("ciphertext value is not a unit of Z_{n^2}")
    p, q = keys.p, keys.q
    a_p = (powmod(c, p - 1, p * p) - 1) // p * keys.hp % p
    a_q = (powmod(c, q - 1, q * q) - 1) // q * keys.hq % q
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
