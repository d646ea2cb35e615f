"""AES-128 computed apart from the program: the ``cryptography`` package.

The benchmark checks every block the accelerator returns against these
functions and never against ``repro.aes``.
"""

from __future__ import annotations

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes


def _ecb(key: int):
    return Cipher(algorithms.AES(key.to_bytes(16, "big")), modes.ECB())


def encrypt(key: int, block: int) -> int:
    enc = _ecb(key).encryptor()
    out = enc.update(block.to_bytes(16, "big")) + enc.finalize()
    return int.from_bytes(out, "big")


def decrypt(key: int, block: int) -> int:
    dec = _ecb(key).decryptor()
    out = dec.update(block.to_bytes(16, "big")) + dec.finalize()
    return int.from_bytes(out, "big")


def popcount(x: int) -> int:
    return bin(x).count("1")
