"""Message Authentication Codes of configurable size.

The paper studies MAC sizes from 32 to 256 bits (section 7.3). A MAC
function here is a keyed object producing ``mac_bytes`` of output from an
arbitrary message. Two implementations are provided:

* :class:`HmacSha1Mac` — the paper's construction (HMAC-SHA1, built on the
  from-scratch primitives). Digests longer than SHA-1's 20 bytes are
  produced by counter-suffixed expansion.
* :class:`Blake2Mac` — a drop-in fast keyed MAC from ``hashlib`` (stdlib,
  no third-party dependency) for large functional simulations where the
  pure-Python SHA-1 would dominate runtime. Cryptographically sound, but
  not what the paper's hardware models; tests exercise both.
"""

from __future__ import annotations

import hashlib

from .hmac_sha1 import hmac_sha1
from .sha256 import hmac_sha256

DEFAULT_MAC_BITS = 128
SUPPORTED_MAC_BITS = (32, 64, 128, 256)


class MacFunction:
    """A keyed MAC truncated/expanded to a fixed output size."""

    def __init__(self, key: bytes, mac_bits: int = DEFAULT_MAC_BITS):
        if mac_bits % 8 != 0 or mac_bits <= 0:
            raise ValueError(f"MAC size must be a positive multiple of 8 bits, got {mac_bits}")
        self.key = bytes(key)
        self.mac_bits = mac_bits
        self.mac_bytes = mac_bits // 8

    def compute(self, message: bytes) -> bytes:
        raise NotImplementedError

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Constant-length comparison of a stored tag against a recomputation."""
        expected = self.compute(message)
        if len(tag) != len(expected):
            return False
        diff = 0
        for a, b in zip(expected, tag):
            diff |= a ^ b
        return diff == 0


class HmacSha1Mac(MacFunction):
    """HMAC-SHA1 truncated (or expanded with a counter suffix) to mac_bytes."""

    def compute(self, message: bytes) -> bytes:
        out = b""
        counter = 0
        while len(out) < self.mac_bytes:
            out += hmac_sha1(self.key, message + counter.to_bytes(4, "big"))
            counter += 1
        return out[: self.mac_bytes]


class HmacSha256Mac(MacFunction):
    """HMAC-SHA256: native 32-byte digests for the longest MAC sizes the
    paper studies (section 7.3 cites NIST's move to SHA-256)."""

    def compute(self, message: bytes) -> bytes:
        out = b""
        counter = 0
        while len(out) < self.mac_bytes:
            out += hmac_sha256(self.key, message + counter.to_bytes(4, "big"))
            counter += 1
        return out[: self.mac_bytes]


class Blake2Mac(MacFunction):
    """Keyed BLAKE2s/BLAKE2b MAC — fast stand-in with identical interface.

    BLAKE2 absorbs its key as a first padded block, so the keyed state is
    built once here and ``copy()``-ed per message: the digest equals a
    one-shot ``blake2s(message, key=...)`` byte for byte, without
    re-keying on every call.
    """

    def __init__(self, key: bytes, mac_bits: int = DEFAULT_MAC_BITS):
        super().__init__(key, mac_bits)
        if self.mac_bytes <= 32:
            self._keyed = hashlib.blake2s(key=self.key[:32], digest_size=self.mac_bytes)
        else:
            self._keyed = hashlib.blake2b(key=self.key[:64], digest_size=self.mac_bytes)

    def compute(self, message: bytes) -> bytes:
        state = self._keyed.copy()
        state.update(message)
        return state.digest()


def make_mac(key: bytes, mac_bits: int = DEFAULT_MAC_BITS, fast: bool = True) -> MacFunction:
    """Construct the configured MAC function.

    ``fast=True`` (default for simulations) selects :class:`Blake2Mac`;
    ``fast=False`` selects the reference construction the paper's
    hardware would use — HMAC-SHA1 up to 160-bit MACs, HMAC-SHA256 for
    anything wider (matching the NIST guidance the paper cites).
    """
    if fast:
        return Blake2Mac(key, mac_bits)
    if mac_bits > 160:
        return HmacSha256Mac(key, mac_bits)
    return HmacSha1Mac(key, mac_bits)
