import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy
from sympy.ntheory.primetest import is_strong_lucas_prp, mr
from conftest import make_scenario
from ftagg import paillier
from ftagg.cli import EXIT_OK, main
from ftagg.model import PaillierSpec
from ftagg.paillier import (
    PaillierBackend,
    _next_prime,
    _strong_lucas,
    decrypt_aggregate,
    encrypt,
    is_probable_prime,
    keygen,
    keys_from_primes,
    randomness_stream,
)


TWO_CPUS = paillier._cpus() >= 2
needs_two_cpus = pytest.mark.skipif(not TWO_CPUS, reason="the helper runs only on two CPUs")


@pytest.fixture
def helper_asks(monkeypatch):
    """The kind of each request this process sends to the Paillier helper:
    0 for an encryption's half, 1 for a decryption's."""
    asks = []
    ask = paillier._Helper.ask

    def counted(self, kind, *args):
        asks.append(kind)
        return ask(self, kind, *args)

    monkeypatch.setattr(paillier._Helper, "ask", counted)
    return asks


def tiny_keys():
    # p = 5, q = 7 worked out by hand: n = 35, phi = 24.
    keys = keys_from_primes(5, 7, bits=6)
    assert (keys.n, keys.lam, keys.mu) == (35, 24, pow(24, -1, 35))
    return keys


def test_tiny_key_encrypt_matches_direct_formula():
    keys = tiny_keys()
    n_sq = 35 * 35
    for m in range(35):
        for r in (2, 3, 4, 6, 8):
            direct = (pow(36, m, n_sq) * pow(r, 35, n_sq)) % n_sq
            assert encrypt(keys, m, r) == direct


def test_tiny_key_decrypt_matches_direct_formula():
    keys = tiny_keys()
    n, n_sq = 35, 35 * 35
    for m in range(35):
        c = encrypt(keys, m, 13)
        x = pow(c, 24, n_sq)
        direct = ((x - 1) // n) * pow(24, -1, n) % n
        assert decrypt_aggregate(keys, c) == direct == m


def test_tiny_key_homomorphic_addition():
    keys = tiny_keys()
    for a, b in [(0, 0), (1, 2), (17, 17), (30, 4)]:
        c = encrypt(keys, a, 2) * encrypt(keys, b, 3) % keys.n_sq
        assert decrypt_aggregate(keys, c) == (a + b) % 35


def test_encrypt_rejects_bad_plaintext():
    keys = tiny_keys()
    for m in (-1, 35, 100):
        with pytest.raises(ValueError, match=rf"plaintext {m} outside \[0, 35\)"):
            encrypt(keys, m, 2)


def test_encrypt_rejects_bad_randomness():
    keys = tiny_keys()
    for r in (0, 5, 7, 35, 70):
        with pytest.raises(ValueError, match="randomness must be a unit of Z_n"):
            encrypt(keys, 1, r)


def test_decrypt_rejects_malformed_ciphertext():
    keys = tiny_keys()
    not_a_unit = r"ciphertext value is not a unit of Z_\{n\^2\}"
    with pytest.raises(ValueError, match=not_a_unit):
        decrypt_aggregate(keys, 35)  # gcd(35, n^2) = 35
    with pytest.raises(ValueError, match=not_a_unit):
        decrypt_aggregate(keys, 35 * 35 + 2)


def test_keygen_deterministic():
    a = keygen(128, 42)
    b = keygen(128, 42)
    c = keygen(128, 43)
    assert a == b
    assert a.n != c.n


def test_keygen_factors_are_prime():
    keys = keygen(64, 7)
    factors = sympy.factorint(keys.n)
    assert len(factors) == 2 and all(e == 1 for e in factors.values())
    p, q = sorted(factors)
    assert sympy.isprime(p) and sympy.isprime(q)
    assert keys.lam == (p - 1) * (q - 1)


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_keygen_invariants(bits):
    keys = keygen(bits, 11)
    assert keys.n.bit_length() == bits
    assert math.gcd(keys.n, keys.lam) == 1
    assert keys.mu * keys.lam % keys.n == 1


def test_roundtrip_random_plaintexts():
    keys = keygen(256, 3)
    rng = random.Random(3)
    stream = randomness_stream(keys, 3, 0)
    for _ in range(100):
        m = rng.randrange(keys.n)
        assert decrypt_aggregate(keys, encrypt(keys, m, next(stream))) == m


def test_homomorphic_fold_matches_plain_sum():
    keys = keygen(128, 9)
    rng = random.Random(9)
    stream = randomness_stream(keys, 9, 1)
    for _ in range(40):
        values = [rng.randrange(1000) for _ in range(rng.randint(1, 8))]
        acc = encrypt(keys, 0, next(stream))
        for v in values:
            acc = acc * encrypt(keys, v, next(stream)) % keys.n_sq
        assert decrypt_aggregate(keys, acc) == sum(values)


def test_adding_zero_preserves_plaintext():
    keys = keygen(128, 5)
    stream = randomness_stream(keys, 5, 0)
    c = encrypt(keys, 77, next(stream)) * encrypt(keys, 0, next(stream)) % keys.n_sq
    assert decrypt_aggregate(keys, c) == 77


def test_encryption_is_randomized():
    keys = keygen(128, 2)
    assert encrypt(keys, 9, 2) != encrypt(keys, 9, 3)


def test_randomness_stream_deterministic_and_fresh_per_round():
    keys = keygen(128, 8)
    a = randomness_stream(keys, 8, 0)
    b = randomness_stream(keys, 8, 0)
    c = randomness_stream(keys, 8, 1)
    first_a = [next(a) for _ in range(10)]
    first_b = [next(b) for _ in range(10)]
    first_c = [next(c) for _ in range(10)]
    assert first_a == first_b
    assert first_a != first_c
    assert all(math.gcd(r, keys.n) == 1 for r in first_a)


def test_miller_rabin_agrees_with_sympy():
    rng = random.Random(0)
    for n in range(2, 2000):
        assert is_probable_prime(n, rng, 0) == sympy.isprime(n), n
    for carmichael in (561, 1105, 1729, 41041, 825265):
        assert not is_probable_prime(carmichael, rng, 0)
    for pseudoprime in PSI + CHERNICK[:30]:
        assert not is_probable_prime(pseudoprime, rng, 0), pseudoprime


def test_backend_fold_and_finalize():
    s = make_scenario(
        3,
        measurements={1: 100, 2: 200, 3: 300},
        backend=PaillierSpec(key_bits=128),
    )
    backend = PaillierBackend(s)
    assert backend.initial_payload(1, s.round) is None
    opening = acc = backend.init_share()
    assert decrypt_aggregate(backend.keys, opening) == 0
    for i in (1, 2, 3):
        acc = backend.fold_measurement(acc, i)
    assert backend.finalize(acc, [1, 2, 3], {}, opening) == 600


def test_backend_deterministic_for_fixed_scenario():
    s = make_scenario(2, backend=PaillierSpec(key_bits=128), seed=77)
    a = PaillierBackend(s)
    b = PaillierBackend(s)
    assert a.init_share() == b.init_share()
    assert a.keys == b.keys


# --- Pins that let the key-generation and decryption fast paths prove they
# change no key and no plaintext. ---


def _keygen_digest(bits, seeds=range(40)):
    h = hashlib.sha256()
    for seed in seeds:
        k = keygen(bits, seed)
        h.update(f"{k.bits} {seed} {k.n} {k.n + 1} {k.lam} {k.mu}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "bits, digest",
    [
        (64, "b7409da9b038b5c30b39f5fab673b52275d5eaf3b444a7b1fb58cb1ca66ac15f"),
        (128, "10d87017c032eb3d3d2e8b9c41cb5d09fb02a61e8e1f014090d120b0e9bf4a44"),
        (156, "51a8d7410e1d0168aa5336bd108c46f2de70b90b930382b04b2d5497fec41c48"),
        (160, "767476a49b4e5c18e20490c43d7beae0a1088bb49b70eb213baa8522cfe0ea82"),
        (256, "460da2305c8abaca4ea1fa15621190699e83687f8184568050040c2a131a45dc"),
    ],
)
def test_keygen_bytes_pinned(bits, digest):
    assert _keygen_digest(bits) == digest


@pytest.mark.parametrize(
    "bits, seeds, digest",
    [
        (1024, range(8), "261846dd176720622c01d5a3130b986f9d903aa35815371fa08232b89dd39e16"),
        (1536, range(2), "5c51c65167139fe6c222d5b510203cbba1915b3f759ea52212e0c5e709933bbc"),
        # The he-2048 benchmark key.
        (2048, [0x2048], "85e89b9568bcd67993d0d3e4f274917ceeae7e66c1ea9acedd6ca18a25fcfd8c"),
    ],
)
def test_large_keygen_bytes_pinned(bits, seeds, digest):
    assert _keygen_digest(bits, seeds) == digest


_REFERENCE_SMALL_PRIMES = list(sympy.primerange(1000))


def _reference_is_probable_prime(n, rng, rounds=40):
    """The plain 40-round Miller-Rabin loop the fast path must match, draw
    for draw."""
    if n < 2:
        return False
    for p in _REFERENCE_SMALL_PRIMES:
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


# The least strong pseudoprimes to the first k prime bases (OEIS A014233);
# PSI_12 is Sorenson & Webster's bound, a strong pseudoprime to 2, 3, ..., 37.
PSI = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 3825123056546413051, 318665857834031151167461]
PSI_12 = PSI[-1]


def _chernick_carmichaels_below(limit):
    """Every Chernick Carmichael number (6k+1)(12k+1)(18k+1), all three factors
    prime, below limit, in ascending order."""
    k_max = 1
    while (6 * k_max + 1) * (12 * k_max + 1) * (18 * k_max + 1) < limit:
        k_max += 1
    prime = bytearray([1]) * (18 * k_max + 2)
    for i in range(2, math.isqrt(len(prime)) + 1):
        if prime[i]:
            prime[i * i :: i] = bytearray(len(prime[i * i :: i]))
    return [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in range(1, k_max)
            if prime[6 * k + 1] and prime[12 * k + 1] and prime[18 * k + 1]]


def _base_2_strong_pseudoprimes(limit):
    return [n for n in range(3, limit, 2) if mr(n, [2]) and not sympy.isprime(n)]


CHERNICK = _chernick_carmichaels_below(1 << 64)
# Composites that pass a strong test to base 2: the case a proof below 2^64
# must settle with something other than base 2.
SPSP_2 = _base_2_strong_pseudoprimes(200_000)
CHERNICK_SPSP_2 = [c for c in CHERNICK if mr(c, [2])]


def _primality_cases_below_2_64():
    rng = random.Random(2064)
    widths = [rng.randrange(32, 65) for _ in range(400)]
    odd = [rng.randrange(1 << (w - 1), 1 << w) | 1 for w in widths]
    primes = [sympy.nextprime(rng.randrange(1 << (w - 1), (1 << w) - (1 << 20)))
              for w in widths[:100]]
    strong_lucas_liars = [n for n in range(3, 50_000, 2)
                          if is_strong_lucas_prp(n) and not sympy.isprime(n)]
    edge = [sympy.prevprime(1 << 64), sympy.nextprime(1 << 64), (1 << 64) - 1, (1 << 64) + 1]
    return odd + primes + strong_lucas_liars + edge + SPSP_2 + CHERNICK_SPSP_2


# Primes 2^k + 3: a base in [2, n - 2) is drawn from k + 1 random bits, so
# about every other draw is rejected and drawn again.
REDRAW_PRIMES = [4099, 32771, 65539, 262147, 268435459, 1073741827, 36028797018963971]


def _wheel_cases():
    """Multiples of 3, 5, 7, 11 and 13 above 1000, which are rejected with no
    draw, and odd numbers next to them, which must go on to a draw."""
    rng = random.Random(15015)
    primes_64 = [sympy.nextprime(rng.randrange(1 << 62, 1 << 63)) for _ in range(10)]
    multiples = [1001, 1005, 1011, 1015, 1027, 15015, 3 * 5 * 7 * 11 * 13 * 17]
    multiples += [f * p for p in primes_64 for f in (3, 5, 7, 11, 13)]
    k_odd = [1, 3, 5, 67, 1001] + [rng.randrange(1 << 40, 1 << 60) | 1 for _ in range(20)]
    beside = [15015 * k + d for k in k_odd for d in (-2, 2)]
    return multiples + beside + REDRAW_PRIMES


def _primality_cases():
    rng = random.Random(2017)
    odd = [rng.randrange(1 << 63, 1 << 79) | 1 for _ in range(400)]
    primes = [sympy.nextprime(rng.randrange(1 << 63, 1 << 79)) for _ in range(60)]
    near_bound = [PSI_12 - 2, PSI_12 + 2, sympy.prevprime(PSI_12), sympy.nextprime(PSI_12),
                  PSI_12 * 3 + 2, sympy.nextprime(1 << 80)]
    small = list(range(0, 1100)) + [1 << 61, (1 << 61) - 1]
    return (odd + primes + near_bound + small + PSI + CHERNICK[:30]
            + _primality_cases_below_2_64() + _wheel_cases())


def test_primality_cases_reach_below_2_64():
    cases = _primality_cases_below_2_64()
    assert sum((1 << 31) <= n < (1 << 64) and sympy.isprime(n) for n in cases) >= 100
    assert SPSP_2[:4] == [2047, 3277, 4033, 4681] and len(SPSP_2) == 19
    assert len(CHERNICK_SPSP_2) == 251 and max(CHERNICK_SPSP_2) < 1 << 64


def test_wheel_cases_reach_both_sides_of_the_wheel():
    cases = _wheel_cases()
    assert all(n > 1000 for n in cases)
    assert sum(math.gcd(n, 15015) > 1 for n in cases) >= 50
    assert sum(math.gcd(n, 15015) == 1 and sympy.isprime(n) is False for n in cases) >= 10
    assert all(sympy.isprime(n) and n - 3 == 1 << (n - 3).bit_length() - 1
               for n in REDRAW_PRIMES)


def test_miller_rabin_matches_reference_loop_draw_for_draw():
    for case, n in enumerate(_primality_cases()):
        fast, ref = random.Random(case), random.Random(case)
        assert is_probable_prime(n, fast, 0) == _reference_is_probable_prime(n, ref), n
        assert fast.getstate() == ref.getstate(), n


def test_strong_lucas_agrees_with_sympy():
    for n in range(3, 50_001, 2):
        assert _strong_lucas(n) == is_strong_lucas_prp(n), n
    rng = random.Random(64)
    for _ in range(2000):
        n = rng.randrange(1 << 63, 1 << 64) | 1
        assert _strong_lucas(n) == is_strong_lucas_prp(n), n


def test_strong_lucas_rejects_squares_of_primes():
    # (D/p^2) is never -1, so Selfridge's search finds no D: the square check
    # must answer, or the search would run on until D = p.
    near_2_32 = [sympy.prevprime(1 << 32), sympy.nextprime(1 << 32)]
    for p in list(sympy.primerange(3, 2000)) + near_2_32:
        assert not _strong_lucas(p * p), p
        assert not is_strong_lucas_prp(p * p)


def test_is_probable_prime_takes_no_rounds_option():
    with pytest.raises(TypeError):
        is_probable_prime(1009 * 1013, random.Random(0), 0, rounds=0)


def _lambda_mu_decrypt(keys, c):
    n, n_sq = keys.n, keys.n_sq
    return ((pow(c, keys.lam, n_sq) - 1) // n) * keys.mu % n


@pytest.mark.parametrize(
    "bits, samples, split",
    [(64, 200, True), (128, 100, True), (256, 50, True), (512, 20, True), (512, 20, False),
     (2048, 1, True)],
    ids=["64-200", "128-100", "256-50", "512-20", "512-20-serial", "2048-1"],
)
def test_decrypt_matches_lambda_mu_formula(bits, samples, split, monkeypatch, helper_asks):
    if not split:
        monkeypatch.setattr(paillier, "_SPLIT_FROM_BITS", 1 << 62)
    keys = keygen(bits, 2)
    rng = random.Random(bits)
    stream = randomness_stream(keys, bits, 0)
    edge = [0, 1, keys.n - 1, keys.n // 2]
    for m in edge + [rng.randrange(keys.n) for _ in range(samples)]:
        c = encrypt(keys, m, next(stream))
        assert decrypt_aggregate(keys, c) == _lambda_mu_decrypt(keys, c) == m
    acc = encrypt(keys, 0, next(stream))
    for m in edge:
        acc = acc * encrypt(keys, m, next(stream)) % keys.n_sq
    assert decrypt_aggregate(keys, acc) == _lambda_mu_decrypt(keys, acc) == sum(edge) % keys.n
    assert set(helper_asks) == ({0, 1} if split and bits >= 512 and TWO_CPUS else set())


def test_miller_rabin_composite_passing_first_round_matches_reference():
    # A composite whose first random base is a strong liar goes on to the
    # proof, fails it, and must then finish the plain loop.
    liar_first = 0
    for n in PSI[:-1] + CHERNICK[:10] + SPSP_2 + CHERNICK_SPSP_2[:20]:
        for seed in range(300):
            liar_first += _reference_is_probable_prime(n, random.Random(seed), rounds=1)
            fast, ref = random.Random(seed), random.Random(seed)
            assert is_probable_prime(n, fast, 0) == _reference_is_probable_prime(n, ref), (n, seed)
            assert fast.getstate() == ref.getstate(), (n, seed)
    assert liar_first > 0


class _FirstDrawFixed(random.Random):
    """A Random whose first randrange returns `first`; later draws are its own."""

    def __init__(self, first, seed):
        super().__init__(seed)
        self.first = first

    def randrange(self, *args):
        if self.first is None:
            return super().randrange(*args)
        first, self.first = self.first, None
        return first


# Strong Lucas pseudoprimes without a factor below 1000 that fail base 2, each
# with a strong liar a: a random first base is a liar about once in 10^6 draws.
LUCAS_LIARS = [(2666711, 1382482), (8581219, 5731357), (13826231, 9074861)]


def test_miller_rabin_strong_lucas_pseudoprime_passing_first_round_matches_reference():
    for n, liar in LUCAS_LIARS:
        assert is_strong_lucas_prp(n) and mr(n, [liar]) and not mr(n, [2])
        for seed in range(20):
            fast, ref = _FirstDrawFixed(liar, seed), _FirstDrawFixed(liar, seed)
            assert is_probable_prime(n, fast, 0) is _reference_is_probable_prime(n, ref) is False
            assert fast.getstate() == ref.getstate(), (n, seed)


# --- Pins that let the window sieve of large candidates prove it finds the
# prime, and leaves the rng state, of the plain loop. ---


def _reference_next_prime(start, rng):
    candidate = start | 1
    while not _reference_is_probable_prime(candidate, rng):
        candidate += 2
    return candidate


def _assert_next_prime_matches_reference(start, fast, ref):
    assert _next_prime(start, fast) == _reference_next_prime(start, ref)
    assert fast.getstate() == ref.getstate()


@pytest.mark.parametrize("bits, seed", [(512, 0), (512, 1), (512, 2), (1024, 0)])
def test_sieved_next_prime_matches_reference_loop_draw_for_draw(bits, seed):
    start = random.Random(seed).getrandbits(bits) | 1 << (bits - 1)
    _assert_next_prime_matches_reference(start, random.Random(seed), random.Random(seed))


def _liar_candidate():
    """A 512-bit n = f * P with f = 1009 and P prime, both 1 mod 3, and a
    strong liar a = 1 mod f of n: a is x mod P for an x of order 3, and 3
    divides the odd part of n - 1, so a^d = 1 mod n."""
    f = 1009
    rng = random.Random(1009)
    while True:
        P = sympy.nextprime(rng.getrandbits(502) | 1 << 501)
        n = f * P
        if P % 3 == 1 and n.bit_length() == 512:
            break
    x = next(x for g in range(2, 100) if (x := pow(g, (P - 1) // 3, P)) != 1)
    return n, f, (1 + f * ((x - 1) * pow(f, -1, P) % P)) % n


@pytest.mark.parametrize("strong_liar", [True, False], ids=["strong-liar", "fermat-liar-mod-f"])
def test_sieved_candidate_whose_first_base_lies_mod_its_factor_runs_the_full_probe(strong_liar):
    # The window marks f at n. A first base that is 1 mod f passes the Fermat
    # check mod f, so the full probe must decide; as a strong liar of n, it
    # sends the probe on to the random rounds.
    n, f, liar = _liar_candidate()
    a = liar if strong_liar else 1 + f * random.Random(n).randrange(2, n // f)
    assert pow(a, n - 1, f) == 1 and 1 < a < n - 1
    assert mr(n, [a]) is strong_liar and not sympy.isprime(n)
    for seed in range(3):
        fast, ref = _FirstDrawFixed(a, seed), _FirstDrawFixed(a, seed)
        _assert_next_prime_matches_reference(n, fast, ref)


# Its next prime is 2140 past it, beyond the first window of 1024 odd candidates.
PAST_FIRST_WINDOW = int(
    "f4f1c07c98951a1818efb3221745c94334b083cc79223b46b54bbaa5ce2847ab"
    "1d33533d756115166b655261e495224821a9e7c7997f7d32d2e56489347b832b", 16
)


def test_sieved_next_prime_past_the_first_window_matches_reference():
    assert PAST_FIRST_WINDOW.bit_length() == 512
    assert sympy.nextprime(PAST_FIRST_WINDOW) - PAST_FIRST_WINDOW == 2140 > 2 * 1024
    _assert_next_prime_matches_reference(PAST_FIRST_WINDOW, random.Random(7), random.Random(7))


def test_small_keygen_leaves_the_sieve_table_unbuilt():
    # Building the table costs milliseconds, which keys below 1024 bits
    # would pay for nothing.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = (
        "import ftagg\n"
        "from ftagg.paillier import _sieve_primes, keygen\n"
        "keygen(256, 1)\n"
        "print(_sieve_primes.cache_info().currsize)\n"
        "keygen(1024, 1)\n"
        "print(_sieve_primes.cache_info().currsize)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out.split() == ["0", "1"]


@pytest.mark.parametrize("bits", [64, 128, 256, 2048])
def test_keys_rebuilt_from_totient_equal_keygen(bits):
    keys = keygen(bits, 5)
    assert keys.p * keys.q == keys.n and keys.p > keys.q
    assert keys_from_primes(keys.q, keys.p, bits) == keys
    p_sq = keys.p * keys.p
    assert keys.q_sq_inv * keys.q * keys.q % p_sq == 1 and 0 < keys.q_sq_inv < p_sq


# --- Pins that let the CRT randomizer prove it gives pow(r, n, n^2) exactly. ---


def _small_key_primes(limit=60):
    """Every pair p > q of primes below limit that makes a valid key."""
    primes = list(sympy.primerange(limit))
    return [(p, q) for i, p in enumerate(primes) for q in primes[:i]
            if math.gcd(p * q, (p - 1) * (q - 1)) == 1]


@pytest.mark.parametrize("p, q", _small_key_primes())
def test_randomizer_equals_plain_pow_for_every_unit(p, q):
    keys = keys_from_primes(p, q, bits=(p * q).bit_length())
    n, n_sq = keys.n, keys.n_sq
    for r in range(1, n):
        if math.gcd(r, n) == 1:
            assert encrypt(keys, 0, r) == pow(r, n, n_sq), r


@pytest.mark.parametrize(
    "bits, split",
    [(64, True), (128, True), (256, True), (512, True), (512, False), (1024, True)],
    ids=["64", "128", "256", "512", "512-serial", "1024"],
)
def test_randomizer_equals_plain_pow_on_stream_draws(bits, split, monkeypatch, helper_asks):
    if not split:
        monkeypatch.setattr(paillier, "_SPLIT_FROM_BITS", 1 << 62)
    keys = keygen(bits, 13)
    n, n_sq = keys.n, keys.n_sq
    rng = random.Random(bits)
    stream = randomness_stream(keys, 13, 0)
    for _ in range(200):
        r, m = next(stream), rng.randrange(n)
        assert encrypt(keys, m, r) == (1 + m * n) * pow(r, n, n_sq) % n_sq
    assert set(helper_asks) == ({0} if split and bits >= 512 and TWO_CPUS else set())


# --- The helper process that runs the p-halves of large keys. ---


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def python_argv(code, *args):
    """A fresh interpreter that turns every DeprecationWarning into an
    error, as fork() in a threaded process gives one from Python 3.12 on."""
    return [sys.executable, "-W", "error::DeprecationWarning", "-c", code, *map(str, args)]


def python_env():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_python(code, *args):
    return subprocess.run(python_argv(code, *args), capture_output=True, text=True,
                          env=python_env(), timeout=60)


def assert_gone(pid):
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_no_helper_below_the_split_size_nor_on_one_cpu():
    code = (
        "import os, sys\n"
        "from ftagg import paillier\n"
        "def helper_after_use(bits):\n"
        "    keys = paillier.keygen(bits, 3)\n"
        "    assert paillier.decrypt_aggregate(keys, paillier.encrypt(keys, 7, 2)) == 7\n"
        "    return paillier._helper\n"
        "print(helper_after_use(128) is None, helper_after_use(256) is None)\n"
        "print('socket' in sys.modules)\n"
        "cpus = os.sched_getaffinity(0)\n"
        "os.sched_setaffinity(0, {min(cpus)})\n"
        "print(helper_after_use(512) is None)\n"
        "os.sched_setaffinity(0, cpus)\n"
        "print(len(cpus) < 2 or helper_after_use(512) is not None)\n"
    )
    out = run_python(code)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.split() == ["True", "True", "False", "True", "True"]


@needs_two_cpus
def test_helper_is_reaped_by_its_parent_at_exit():
    # The check is registered before ftagg, so it runs after ftagg's own
    # exit handler, while the helper is still the caller's child.
    code = (
        "import atexit, os\n"
        "def check():\n"
        "    try:\n"
        "        os.waitpid(pid, os.WNOHANG)\n"
        "    except ChildProcessError:\n"
        "        print('reaped')\n"
        "atexit.register(check)\n"
        "from ftagg import paillier\n"
        "keys = paillier.keygen(512, 3)\n"
        "assert paillier.decrypt_aggregate(keys, paillier.encrypt(keys, 7, 2)) == 7\n"
        "pid = paillier._helper.pid\n"
        "print(pid)\n"
    )
    out = run_python(code)
    assert (out.returncode, out.stderr) == (0, "")
    pid, word = out.stdout.split()
    assert word == "reaped"
    assert_gone(int(pid))


@needs_two_cpus
def test_a_killed_helper_leaves_the_round_to_local_halves(tmp_path, capsys, monkeypatch):
    # A lost helper must not surface as the OSError that `ftagg run` reports
    # as exit 3, nor as a hang or a wrong report.
    scenario = json.loads((SCENARIOS / "paillier_mesh4.json").read_text())
    scenario["backend"]["key_bits"] = 512
    path = tmp_path / "paillier512.json"
    path.write_text(json.dumps(scenario))
    monkeypatch.setattr(paillier, "_SPLIT_FROM_BITS", 1 << 62)
    assert main(["run", str(path)]) == EXIT_OK
    serial = capsys.readouterr().out
    code = (
        "import os, signal, sys\n"
        "from ftagg import cli, paillier\n"
        "keys = paillier.keygen(512, 3)\n"
        "paillier.encrypt(keys, 7, 2)\n"
        "os.kill(paillier._helper.pid, signal.SIGKILL)\n"
        "sys.exit(cli.main(['run', sys.argv[1]]))\n"
    )
    out = run_python(code, path)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == serial
    assert json.loads(serial)["aggregate"] == 110


@needs_two_cpus
def test_a_forked_child_never_reads_the_parents_replies():
    # Parent and child encrypt at the same time; a reply read by the wrong
    # process would give a wrong ciphertext on one side or both.
    code = (
        "import math, os, sys\n"
        "from ftagg import paillier\n"
        "keys = paillier.keygen(512, 3)\n"
        "n, n_sq = keys.n, keys.n_sq\n"
        "def check(first):\n"
        "    for r in range(first, first + 60):\n"
        "        if math.gcd(r, n) == 1:\n"
        "            assert paillier.encrypt(keys, r, r) == (1 + r * n) * pow(r, n, n_sq) % n_sq\n"
        "paillier.encrypt(keys, 0, 2)\n"
        "parents = paillier._helper.pid\n"
        "child = os.fork()\n"
        "if child == 0:\n"
        "    assert paillier._helper is None\n"
        "    check(1000)\n"
        "    assert paillier._helper.pid != parents and paillier._helper.owner == os.getpid()\n"
        "    sys.exit(0)\n"
        "check(2000)\n"
        "assert paillier._helper.pid == parents\n"
        "print(os.waitpid(child, 0)[1])\n"
    )
    out = run_python(code)
    assert (out.returncode, out.stderr, out.stdout.split()) == (0, "", ["0"])


@needs_two_cpus
def test_sigint_to_the_process_group_leaves_no_helper_traceback():
    # A shell starts background jobs with SIGINT ignored; the run needs
    # Python's own handler back, whoever started the tests.
    code = (
        "import signal\n"
        "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
        "from ftagg import paillier\n"
        "keys = paillier.keygen(1024, 3)\n"
        "paillier.encrypt(keys, 0, 2)\n"
        "print(paillier._helper.pid, flush=True)\n"
        "try:\n"
        "    while True:\n"
        "        paillier.encrypt(keys, 1, 2)\n"
        "except KeyboardInterrupt:\n"
        "    print('interrupted')\n"
    )
    with subprocess.Popen(
        python_argv(code), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=python_env(), start_new_session=True,
    ) as proc:
        try:
            helper = int(proc.stdout.readline())
            time.sleep(0.2)
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert (proc.returncode, err, out.split()) == (0, "", ["interrupted"])
    assert_gone(helper)
