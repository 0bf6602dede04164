"""AES-128 block cipher, implemented from scratch per FIPS-197.

The secure processor's counter-mode encryption unit applies a 128-bit
block cipher to a seed to produce a cryptographic pad (paper section 4.1).
This module provides that cipher. The implementation is a straightforward
table-driven AES: S-box / inverse S-box, key expansion, and the four round
transformations. It is validated against the FIPS-197 appendix vectors in
``tests/crypto/test_aes.py``.

Only AES-128 is needed by the paper (128-bit chunks, 128-bit seeds), but
the key schedule supports 128/192/256-bit keys for completeness.
"""

from __future__ import annotations

BLOCK_SIZE = 16  # bytes; one AES block == one encryption "chunk" in the paper

# ---------------------------------------------------------------------------
# S-box construction.  Rather than pasting a 256-entry magic table, derive the
# S-box from its definition: multiplicative inverse in GF(2^8) followed by the
# affine transformation (FIPS-197 section 5.1.1).
# ---------------------------------------------------------------------------


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    # Multiplicative inverses from the powers of the generator 3:
    # inverse(3^i) = 3^(255 - i).
    power, log = [0] * 255, [0] * 256
    value = 1
    for i in range(255):
        power[i] = value
        log[value] = i
        value = _gf_mul(value, 3)
    sbox = bytearray(256)
    for x in range(256):
        b = power[(255 - log[x]) % 255] if x else 0
        # Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        value = 0x63
        for shift in range(5):
            rotated = ((b << shift) | (b >> (8 - shift))) & 0xFF
            value ^= rotated
        sbox[x] = value & 0xFF
    inv_sbox = bytearray(256)
    for x, s in enumerate(sbox):
        inv_sbox[s] = x
    return bytes(sbox), bytes(inv_sbox)


def _build_tables() -> None:
    """Bind the S-boxes, round constants and (Inv)MixColumns tables.

    Run once, by the first key expansion or the first read of a table
    from outside, so importing the module costs no table construction.
    """
    global SBOX, INV_SBOX, _RCON, _MUL2, _MUL3, _MUL9, _MUL11, _MUL13, _MUL14, _BUILT
    SBOX, INV_SBOX = _build_sbox()
    # Round constants for the key schedule (powers of x in GF(2^8)).
    _RCON = [0x01]
    while len(_RCON) < 14:
        _RCON.append(_gf_mul(_RCON[-1], 2))
    # Precomputed xtime tables used by (Inv)MixColumns.
    _MUL2 = bytes(_gf_mul(x, 2) for x in range(256))
    _MUL3 = bytes(_gf_mul(x, 3) for x in range(256))
    _MUL9 = bytes(_gf_mul(x, 9) for x in range(256))
    _MUL11 = bytes(_gf_mul(x, 11) for x in range(256))
    _MUL13 = bytes(_gf_mul(x, 13) for x in range(256))
    _MUL14 = bytes(_gf_mul(x, 14) for x in range(256))
    # Set last: a thread that sees it set sees every table.
    _BUILT = True


_BUILT = False
_TABLES = frozenset(("SBOX", "INV_SBOX", "_RCON", "_MUL2", "_MUL3", "_MUL9",
                     "_MUL11", "_MUL13", "_MUL14"))


def __getattr__(name: str):
    if name not in _TABLES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _build_tables()
    return globals()[name]


def expand_key(key: bytes) -> list[list[int]]:
    """Expand a 16/24/32-byte key into per-round 16-byte round keys.

    Returns a list of round keys, each a flat list of 16 ints in
    column-major (state) order, ready for AddRoundKey.
    """
    if len(key) not in (16, 24, 32):
        raise ValueError(f"AES key must be 16, 24, or 32 bytes, got {len(key)}")
    if not _BUILT:
        _build_tables()
    nk = len(key) // 4
    rounds = {4: 10, 6: 12, 8: 14}[nk]
    words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        temp = list(words[i - 1])
        if i % nk == 0:
            temp = temp[1:] + temp[:1]  # RotWord
            temp = [SBOX[b] for b in temp]  # SubWord
            temp[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            temp = [SBOX[b] for b in temp]
        words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
    round_keys = []
    for r in range(rounds + 1):
        rk = []
        for c in range(4):
            rk.extend(words[4 * r + c])
        round_keys.append(rk)
    return round_keys


def _add_round_key(state: list[int], rk: list[int]) -> None:
    for i in range(16):
        state[i] ^= rk[i]


def _sub_bytes(state: list[int]) -> None:
    for i in range(16):
        state[i] = SBOX[state[i]]


def _inv_sub_bytes(state: list[int]) -> None:
    for i in range(16):
        state[i] = INV_SBOX[state[i]]


# State layout: state[4*c + r] is row r, column c (FIPS column-major bytes).

_SHIFT_ROWS_MAP = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11]
_INV_SHIFT_ROWS_MAP = [0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3]


def _shift_rows(state: list[int]) -> list[int]:
    return [state[i] for i in _SHIFT_ROWS_MAP]


def _inv_shift_rows(state: list[int]) -> list[int]:
    return [state[i] for i in _INV_SHIFT_ROWS_MAP]


def _mix_columns(state: list[int]) -> None:
    for c in range(4):
        i = 4 * c
        a0, a1, a2, a3 = state[i : i + 4]
        state[i] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
        state[i + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
        state[i + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
        state[i + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]


def _inv_mix_columns(state: list[int]) -> None:
    for c in range(4):
        i = 4 * c
        a0, a1, a2, a3 = state[i : i + 4]
        state[i] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
        state[i + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
        state[i + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
        state[i + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]


class AES:
    """AES block cipher bound to a single key.

    >>> cipher = AES(bytes(range(16)))
    >>> pt = bytes(16)
    >>> cipher.decrypt_block(cipher.encrypt_block(pt)) == pt
    True
    """

    def __init__(self, key: bytes):
        self._round_keys = expand_key(bytes(key))
        self._rounds = len(self._round_keys) - 1
        self.key_size = len(key)

    def encrypt_block(self, plaintext: bytes) -> bytes:
        if len(plaintext) != BLOCK_SIZE:
            raise ValueError(f"AES block must be {BLOCK_SIZE} bytes, got {len(plaintext)}")
        state = list(plaintext)
        _add_round_key(state, self._round_keys[0])
        for r in range(1, self._rounds):
            _sub_bytes(state)
            state = _shift_rows(state)
            _mix_columns(state)
            _add_round_key(state, self._round_keys[r])
        _sub_bytes(state)
        state = _shift_rows(state)
        _add_round_key(state, self._round_keys[self._rounds])
        return bytes(state)

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) != BLOCK_SIZE:
            raise ValueError(f"AES block must be {BLOCK_SIZE} bytes, got {len(ciphertext)}")
        state = list(ciphertext)
        _add_round_key(state, self._round_keys[self._rounds])
        for r in range(self._rounds - 1, 0, -1):
            state = _inv_shift_rows(state)
            _inv_sub_bytes(state)
            _add_round_key(state, self._round_keys[r])
            _inv_mix_columns(state)
        state = _inv_shift_rows(state)
        _inv_sub_bytes(state)
        _add_round_key(state, self._round_keys[0])
        return bytes(state)
