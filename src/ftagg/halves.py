"""The two CRT halves of a Paillier exponentiation, keygen's Miller-Rabin
probes, and the loop of the helper process that computes one of a pair of
these while its caller computes the other.

The helper runs this file by its path in a bare interpreter (python -I -S),
so it imports only the standard library: on a 2-vCPU VM that interpreter
starts in 13-15 ms, one that imports ftagg in over 100 ms.
"""

import sys


def randomizer_half(r: int, p: int, q: int) -> int:
    """r^(pq) mod p^2: x^p mod p^2 depends only on x mod p."""
    return pow(pow(r, q % (p - 1), p), p, p * p)


def decrypt_half(c: int, p: int, q: int) -> int:
    """c^(p-1) mod p^2."""
    return pow(c, p - 1, p * p)


def strong_probes(n: int, *bases: int) -> int:
    """Miller-Rabin rounds: 1 iff the odd n > 3 is a strong probable prime to
    every base a, that is, with n - 1 = d * 2^r and d odd, a^d = 1 or
    a^(d * 2^i) = -1 mod n for some i < r; else 0."""
    r = ((n - 1) & (1 - n)).bit_length() - 1
    for a in bases:
        x = pow(a, (n - 1) >> r, n)
        if x == 1:
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return 0
    return 1


HALVES = (randomizer_half, decrypt_half, strong_probes)


def ask(out, kind: int, *ints: int) -> None:
    """Write one request line to the buffered stream out and flush it: kind,
    an index into HALVES, then the ints, in hex and separated by spaces."""
    out.write(b" ".join(b"%x" % v for v in (kind, *ints)) + b"\n")
    out.flush()


def serve(requests, replies) -> None:
    """Answer each request line with one line, HALVES[kind] of its ints in
    hex, until EOF. A last line without its newline was cut short, so it
    counts as EOF."""
    for line in requests:
        if not line.endswith(b"\n"):
            break
        kind, *ints = (int(v, 16) for v in line.split())
        replies.write(b"%x\n" % HALVES[kind](*ints))
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin.buffer, sys.stdout.buffer)
