"""The two CRT halves of a Paillier exponentiation, and the loop of the
helper process that computes one of them while its caller computes the other.

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


HALVES = (randomizer_half, decrypt_half)


def write_request(out, kind: int, x: int, p: int, q: int) -> int:
    """Write one request to the buffered stream out and flush it: the kind,
    an index into HALVES, in one byte, the width in 4 bytes, then x, p and q
    in width bytes each, all little-endian. Returns the size of its reply."""
    width = (max(x, p * p).bit_length() + 7) // 8
    out.write(bytes([kind]) + width.to_bytes(4, "little")
              + b"".join(v.to_bytes(width, "little") for v in (x, p, q)))
    out.flush()
    return width


def serve(requests, replies) -> None:
    """Answer requests until EOF. A buffered stream's read(n) returns fewer
    than n bytes only at EOF."""
    while len(head := requests.read(5)) == 5:
        kind, width = head[0], int.from_bytes(head[1:], "little")
        body = requests.read(3 * width)
        if len(body) < 3 * width:
            break
        x, p, q = (int.from_bytes(body[i : i + width], "little")
                   for i in range(0, 3 * width, width))
        replies.write(HALVES[kind](x, p, q).to_bytes(width, "little"))
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin.buffer, sys.stdout.buffer)
