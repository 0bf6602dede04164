"""MachineConfig validation and derived properties."""

import pytest

from repro.core.config import (
    CacheConfig,
    MachineConfig,
)
from repro.core.errors import ConfigurationError


class TestDefaults:
    def test_paper_parameters(self):
        config = MachineConfig()
        assert config.l2.size_bytes == 1024 * 1024
        assert config.l2.assoc == 8
        assert config.counter_cache.size_bytes == 32 * 1024
        assert config.counter_cache.assoc == 16
        assert config.memory_latency == 200
        assert config.aes_latency == 80
        assert config.mac_bits == 128

    def test_default_protection_is_the_proposal(self):
        config = MachineConfig()
        assert config.encryption == "aise"
        assert config.integrity == "bonsai"

    def test_swap_defaults_to_physical(self):
        config = MachineConfig(physical_bytes=1 << 20)
        assert config.swap_bytes == 1 << 20


class TestValidation:
    def test_rejects_unknown_encryption(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(encryption="rot13")

    def test_rejects_unknown_integrity(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(integrity="hope")

    def test_rejects_bad_mac_bits(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(mac_bits=0)
        with pytest.raises(ConfigurationError):
            MachineConfig(mac_bits=12)

    def test_rejects_mac_not_dividing_block(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(mac_bits=192)  # 24B does not divide 64B

    @pytest.mark.parametrize("size", [32, 128, 0])
    def test_rejects_block_size_other_than_64(self, size):
        # The metadata layout and the engines' victim addresses are fixed
        # at 64B: any other size made results depend on the engine.
        with pytest.raises(ConfigurationError, match="block_size"):
            MachineConfig(block_size=size)

    def test_accepts_the_64_byte_block(self):
        assert MachineConfig(block_size=64).block_size == 64

    @pytest.mark.parametrize("name", ["base+bmt", "base+bmt_lazy",
                                      "direct+bmt", "direct+bmt_lazy"])
    def test_rejects_a_bonsai_tree_without_counters_at_construction(self, name):
        # A Bonsai tree covers counters; counter-free encryption has none.
        with pytest.raises(ConfigurationError, match="counter storage"):
            MachineConfig.preset(name)


class TestDerived:
    @pytest.mark.parametrize("bits,arity", [(32, 16), (64, 8), (128, 4), (256, 2)])
    def test_merkle_arity(self, bits, arity):
        assert MachineConfig(mac_bits=bits).merkle_arity == arity

    def test_data_mac_caching_policy(self):
        """MT caches leaf MACs; BMT does not (paper section 5.2)."""
        assert MachineConfig(integrity="merkle").caches_data_macs
        assert not MachineConfig(integrity="bonsai").caches_data_macs
        assert MachineConfig(integrity="bonsai", cache_data_macs=True).caches_data_macs

    def test_with_protection(self):
        base = MachineConfig.preset("base")
        derived = base.with_protection("aise", "bonsai", mac_bits=64)
        assert derived.encryption == "aise"
        assert derived.mac_bits == 64
        assert derived.l2 == base.l2


class TestNamedConfigs:
    def test_baseline(self):
        config = MachineConfig.preset("base")
        assert (config.encryption, config.integrity) == ("none", "none")

    def test_aise_bmt(self):
        config = MachineConfig.preset("aise+bmt")
        assert (config.encryption, config.integrity) == ("aise", "bonsai")

    def test_global64_mt(self):
        config = MachineConfig.preset("global64+mt")
        assert (config.encryption, config.integrity) == ("global64", "merkle")

    def test_overrides_flow_through(self):
        config = MachineConfig.preset("aise+bmt", mac_bits=256, physical_bytes=1 << 20)
        assert config.mac_bits == 256
        assert config.physical_bytes == 1 << 20

    def test_cache_config(self):
        cache = CacheConfig(32 * 1024, 2, 2)
        assert cache.size_bytes == 32768
