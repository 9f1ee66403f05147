#!/usr/bin/env python3
"""Write test/drbg_vectors.txt: Crypto.Drbg output computed independently.

Crypto.Drbg is HMAC-DRBG with SHA-256 (NIST SP 800-90A, section 10.1.2):
instantiated from K = 32 zero bytes and V = 32 bytes of 0x01 with the
seed as its only input, reseeded with the entropy alone, and drawing with
no additional input. This script rebuilds it with Python's standard
`hmac` and `hashlib` and writes, for a few seeds, the bytes of draws of
0 to 100 bytes between empty and 40-byte reseeds. test_crypto replays
every line against Crypto.Drbg.

Run from the repository root:  python3 test/drbg_vectors.py [OUT]
It writes OUT (default test/drbg_vectors.txt). It is not run by
`dune runtest`; the vector file it writes is committed, and ci.sh
regenerates it to a temporary file and compares the two byte for byte.
"""

import hashlib
import hmac
import sys

OUT = "test/drbg_vectors.txt"


class Drbg:
    def __init__(self, seed):
        self.k, self.v = bytes(32), b"\x01" * 32
        self.update(seed)

    def mac(self, msg):
        return hmac.new(self.k, msg, hashlib.sha256).digest()

    def update(self, provided):
        for sep in (b"\x00", b"\x01") if provided else (b"\x00",):
            self.k = self.mac(self.v + sep + provided)
            self.v = self.mac(self.v)

    def generate(self, n):
        out = b""
        while len(out) < n:
            self.v = self.mac(self.v)
            out += self.v
        self.update(b"")
        return out[:n]


def field(b):
    return b.hex() if b else "-"


def main(out=OUT):
    entropy = bytes((37 * i + 11) % 256 for i in range(40))
    # Seeds of 0, 12 and 64 bytes: V || 0x00 || seed fits one padded block
    # for the first two only. Draws of 0 bytes, part of an output block,
    # one block, one byte past it, two blocks, and four blocks less 28
    # bytes; reseeds empty and 40 bytes long.
    seeds = [b"", b"drbg vectors", bytes(range(64))]
    ops = [0, 1, 12, 32, 33, 64, 100, b"", 32, entropy, 33, 0, 1]
    lines = ["# seed S | draw N BYTES | reseed E (hex; - is empty), from test/drbg_vectors.py"]
    for seed in seeds:
        d = Drbg(seed)
        lines.append("seed " + field(seed))
        for op in ops:
            if isinstance(op, int):
                lines.append(f"draw {op} {field(d.generate(op))}")
            else:
                d.update(op)
                lines.append("reseed " + field(op))
    with open(out, "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {len(seeds)} seeds of {len(ops)} steps to {out}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
