"""MAC functions: sizes, truncation/expansion, verification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.mac import Blake2Mac, HmacSha1Mac, SUPPORTED_MAC_BITS, make_mac


@pytest.mark.parametrize("cls", [HmacSha1Mac, Blake2Mac])
class TestMacSizes:
    @pytest.mark.parametrize("bits", SUPPORTED_MAC_BITS)
    def test_output_length(self, cls, bits):
        mac = cls(b"key", bits)
        assert len(mac.compute(b"message")) == bits // 8

    def test_rejects_bad_size(self, cls):
        with pytest.raises(ValueError):
            cls(b"key", 33)
        with pytest.raises(ValueError):
            cls(b"key", 0)

    def test_deterministic(self, cls):
        a = cls(b"key", 128)
        b = cls(b"key", 128)
        assert a.compute(b"m") == b.compute(b"m")

    def test_key_matters(self, cls):
        assert cls(b"k1", 128).compute(b"m") != cls(b"k2", 128).compute(b"m")

    def test_message_matters(self, cls):
        mac = cls(b"key", 128)
        assert mac.compute(b"m1") != mac.compute(b"m2")

    def test_verify_accepts_and_rejects(self, cls):
        mac = cls(b"key", 64)
        tag = mac.compute(b"payload")
        assert mac.verify(b"payload", tag)
        assert not mac.verify(b"payload!", tag)
        assert not mac.verify(b"payload", tag[:-1] + bytes([tag[-1] ^ 1]))
        assert not mac.verify(b"payload", tag + b"\x00")  # wrong length


class TestBlake2KeyedState:
    @settings(max_examples=40, deadline=None)
    @given(key=st.binary(max_size=80), message=st.binary(max_size=200),
           bits=st.sampled_from(SUPPORTED_MAC_BITS + (512,)))
    def test_reused_keyed_state_equals_one_shot_hash(self, key, message, bits):
        """Copying one keyed state per message is byte-identical to
        keying a fresh BLAKE2 for every message."""
        import hashlib

        mac = Blake2Mac(key, bits)
        size = bits // 8
        if size <= 32:
            want = hashlib.blake2s(message, key=key[:32], digest_size=size).digest()
        else:
            want = hashlib.blake2b(message, key=key[:64], digest_size=size).digest()
        assert mac.compute(message) == want
        assert mac.compute(message) == want  # the keyed state is not consumed


class TestHmacExpansion:
    def test_256_bit_expands_past_sha1_digest(self):
        """SHA-1 yields 20 bytes; 256-bit MACs need counter expansion."""
        mac = HmacSha1Mac(b"key", 256)
        tag = mac.compute(b"m")
        assert len(tag) == 32
        # First 20 bytes come from counter 0; they must not simply repeat.
        assert tag[:12] != tag[20:32]

    def test_truncation_is_prefix(self):
        long = HmacSha1Mac(b"key", 128).compute(b"m")
        short = HmacSha1Mac(b"key", 64).compute(b"m")
        assert long[:8] == short


class TestFactory:
    def test_fast_flag_selects_implementation(self):
        assert isinstance(make_mac(b"k", fast=True), Blake2Mac)
        assert isinstance(make_mac(b"k", fast=False), HmacSha1Mac)

    def test_default_bits(self):
        assert make_mac(b"k").mac_bits == 128


@settings(max_examples=30, deadline=None)
@given(m1=st.binary(max_size=100), m2=st.binary(max_size=100))
def test_collision_resistance_property(m1, m2):
    mac = Blake2Mac(b"key", 128)
    if m1 != m2:
        assert mac.compute(m1) != mac.compute(m2)
