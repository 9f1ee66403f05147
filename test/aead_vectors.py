#!/usr/bin/env python3
"""Write test/aead_vectors.txt: Crypto.Aead boxes computed independently.

Crypto.Aead is RFC 8439 ChaCha20-Poly1305 keyed by the subkey
HMAC-SHA256(key, "aead-encrypt"), with boxes laid out as
nonce || tag || ciphertext. This script rebuilds each box with Python's
`cryptography` (its ChaCha20Poly1305) and `hmac`, after checking that
library against the RFC 8439 §2.8.2 example. test_crypto opens every box
and reseals every plaintext to the same bytes.

Run from the repository root:  python3 test/aead_vectors.py [OUT]
It writes OUT (default test/aead_vectors.txt). It is not run by
`dune runtest`; the vector file it writes is committed, and ci.sh
regenerates it to a temporary file and compares the two byte for byte.
"""

import hashlib
import hmac
import random
import sys

from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

OUT = "test/aead_vectors.txt"


def rfc8439_example():
    key = bytes(range(0x80, 0xA0))
    nonce = bytes.fromhex("070000004041424344454647")
    ad = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
    pt = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip"
        b" for the future, sunscreen would be it."
    )
    sealed = ChaCha20Poly1305(key).encrypt(nonce, pt, ad)
    assert sealed[-16:].hex() == "1ae10b594f09e26a7e902ecbd0600691", sealed[-16:].hex()


def box(key, nonce, ad, pt):
    subkey = hmac.new(key, b"aead-encrypt", hashlib.sha256).digest()
    sealed = ChaCha20Poly1305(subkey).encrypt(nonce, pt, ad)
    return nonce + sealed[-16:] + sealed[:-16]


def field(b):
    return b.hex() if b else "-"


def main(out=OUT):
    rfc8439_example()
    rng = random.Random(8439)
    draw = lambda n: bytes(rng.randrange(256) for _ in range(n))
    # (ad length, plaintext length): both empty, each empty alone, and
    # lengths either side of the 16-byte Poly1305 and 64-byte ChaCha20
    # block edges.
    shapes = [(0, 0), (0, 1), (5, 0), (0, 15), (16, 16), (17, 17), (15, 63), (31, 64),
              (33, 65), (12, 114), (0, 1024), (100, 300)]
    lines = ["# key nonce ad plaintext box (hex; - is empty), from test/aead_vectors.py"]
    for ad_len, pt_len in shapes:
        key, nonce, ad, pt = draw(32), draw(12), draw(ad_len), draw(pt_len)
        lines.append(" ".join(field(x) for x in (key, nonce, ad, pt, box(key, nonce, ad, pt))))
    with open(out, "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {len(shapes)} vectors to {out}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
