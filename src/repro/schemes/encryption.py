"""Descriptors for every encryption scheme the paper compares.

Each descriptor instantiates one row of Table 1. Registration happens at
import time (see ``repro.schemes``); the string keys are exactly the
``ENC_*`` constants in :mod:`repro.core.config`, so configurations,
caches, and CLI flags are unchanged by the descriptor layer.
"""

from __future__ import annotations

from ..core.config import (
    ENC_AISE,
    ENC_DIRECT,
    ENC_GLOBAL32,
    ENC_GLOBAL64,
    ENC_NONE,
    ENC_PHYS,
    ENC_SPLIT,
    ENC_VIRT,
)
from .base import EncryptionScheme, FlatCounterScheme, PagedCounterScheme


class NoEncryptionScheme(EncryptionScheme):
    """Unprotected baseline: plaintext in memory, no metadata at all."""

    key = ENC_NONE

    def build_engine(self, machine, seed_audit=None):
        from ..core.encryption import NullEncryption

        return NullEncryption()


class DirectEncryptionScheme(EncryptionScheme):
    """Direct (ECB-style) AES: no counters; decryption latency is exposed
    on every miss because the pad cannot be precomputed (section 2)."""

    key = ENC_DIRECT
    serialized_decrypt = True

    def build_engine(self, machine, seed_audit=None):
        from ..core.encryption import DirectEncryption

        return DirectEncryption(machine.encryption_key)


class AiseScheme(PagedCounterScheme):
    """AISE: LPID-seeded counter mode, one counter block per page."""

    key = ENC_AISE

    def build_engine(self, machine, seed_audit=None):
        from ..core.encryption import AiseEncryption

        return AiseEncryption(
            machine.encryption_key,
            memory=machine.memory,
            counter_base=machine.layout.counter_base,
            gpc=machine.gpc,
            fast_crypto=machine.fast_crypto,
            seed_audit=seed_audit,
        )

    def engine_stats(self, engine) -> dict:
        return {
            "pads_generated": lambda: engine.pads_generated,
            "page_reencryptions": lambda: engine.page_reencryptions,
            "pages_initialized": lambda: engine.pages_initialized,
        }


class SplitCounterScheme(AiseScheme):
    """Split-counter baseline [Yan et al. ISCA'06]: AISE's storage layout
    with address-based seeds — so frame moves force re-encryption."""

    key = ENC_SPLIT
    reencrypt_on_swap = True

    def build_engine(self, machine, seed_audit=None):
        from ..core.encryption import SplitCounterEncryption

        return SplitCounterEncryption(
            machine.encryption_key,
            memory=machine.memory,
            counter_base=machine.layout.counter_base,
            fast_crypto=machine.fast_crypto,
            seed_audit=seed_audit,
        )

    def engine_stats(self, engine) -> dict:
        return {
            "pads_generated": lambda: engine.pads_generated,
            "page_reencryptions": lambda: engine.page_reencryptions,
        }


class GlobalCounterScheme(FlatCounterScheme):
    """Global-counter baseline: a per-block stamp of the global write
    serial number (section 4.1). Seeds carry no address, so pages may
    move frames freely — the stamps just move with them."""

    key = ENC_GLOBAL64
    bits = 64

    @property
    def stamp_bytes(self) -> int:
        return self.bits // 8

    def build_engine(self, machine, seed_audit=None):
        from ..core.encryption import GlobalCounterEncryption

        return GlobalCounterEncryption(
            machine.encryption_key,
            memory=machine.memory,
            counter_base=machine.layout.counter_base,
            stamp_bytes=self.stamp_bytes,
            fast_crypto=machine.fast_crypto,
        )

    def engine_stats(self, engine) -> dict:
        return {
            "pads_generated": lambda: engine.pads_generated,
            "memory_reencryptions": lambda: engine.memory_reencryptions,
        }


class Global32Scheme(GlobalCounterScheme):
    key = ENC_GLOBAL32
    bits = 32


class AddressSeedScheme(FlatCounterScheme):
    """Shared base of the address-seeded baselines: 32-bit per-block
    counters packed in the counter region."""

    stamp_bytes = 4
    virtual = False

    def build_engine(self, machine, seed_audit=None):
        from ..core.encryption import AddressSeedEncryption

        return AddressSeedEncryption(
            machine.encryption_key,
            memory=machine.memory,
            counter_base=machine.layout.counter_base,
            stamp_bytes=self.stamp_bytes,
            virtual=self.virtual,
            fast_crypto=machine.fast_crypto,
            seed_audit=seed_audit,
        )

    def engine_stats(self, engine) -> dict:
        return {"pads_generated": lambda: engine.pads_generated}


class PhysAddrScheme(AddressSeedScheme):
    """Physical-address seeds: pages must re-encrypt to cross the
    memory/disk boundary (the swap cost of section 4.2)."""

    key = ENC_PHYS
    reencrypt_on_swap = True


class VirtAddrScheme(AddressSeedScheme):
    """Virtual-address seeds: swap-friendly but every L2 line must keep
    its 4-byte virtual tag (Table 1's capacity cost), and shared
    mappings at different addresses decrypt to garbage."""

    key = ENC_VIRT
    virtual = True
    l2_tag_overhead_bytes = 4


BUILTIN_ENCRYPTION_SCHEMES = (
    NoEncryptionScheme(),
    AiseScheme(),
    SplitCounterScheme(),
    GlobalCounterScheme(),
    Global32Scheme(),
    PhysAddrScheme(),
    VirtAddrScheme(),
    DirectEncryptionScheme(),
)
