"""Machine configuration mirroring the paper's simulated system (section 6).

    2GHz 3-issue out-of-order core; split 32KB 2-way L1s (2-cycle);
    unified 1MB 8-way L2 (10-cycle); 32KB 16-way counter cache at the L2
    level; 64B blocks, LRU; 1GB main memory at 200 cycles; 128-bit AES,
    16-stage pipeline, 80-cycle latency; HMAC SHA-1, 80-cycle; 64-bit
    LPID + 7-bit per-block counters; 128-bit MACs by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigurationError

# Encryption scheme identifiers.
ENC_NONE = "none"
ENC_AISE = "aise"
ENC_GLOBAL32 = "global32"
ENC_GLOBAL64 = "global64"
ENC_PHYS = "phys_addr"
ENC_VIRT = "virt_addr"
ENC_DIRECT = "direct"
ENC_SPLIT = "split_ctr"  # split-counter baseline [Yan et al. ISCA'06]
ENCRYPTION_SCHEMES = (
    ENC_NONE, ENC_AISE, ENC_GLOBAL32, ENC_GLOBAL64, ENC_PHYS, ENC_VIRT, ENC_DIRECT, ENC_SPLIT
)

# Integrity scheme identifiers.
INT_NONE = "none"
INT_MAC = "mac_only"
INT_MT = "merkle"
INT_BMT = "bonsai"
INT_BMT_LAZY = "bmt_lazy"  # BMT on the lazy, coalescing tree policies
INT_LOGHASH = "loghash"
INTEGRITY_SCHEMES = (INT_NONE, INT_MAC, INT_MT, INT_BMT, INT_BMT_LAZY, INT_LOGHASH)


@dataclass(frozen=True)
class CacheConfig:
    """Size/associativity/latency of one on-chip cache."""

    size_bytes: int
    assoc: int
    hit_latency: int  # round-trip, processor cycles


@dataclass(frozen=True)
class MachineConfig:
    """Full configuration of the simulated secure processor."""

    # Core.
    frequency_ghz: float = 2.0
    issue_width: int = 3

    # Hierarchy (paper defaults).
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, 2, 2))
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, 2, 2))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(1024 * 1024, 8, 10))
    counter_cache: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, 16, 10))
    block_size: int = 64
    memory_latency: int = 200
    bus_cycles_per_block: int = 28

    # Memory sizes.
    physical_bytes: int = 1 << 30
    swap_bytes: int | None = None  # defaults to physical_bytes

    # Crypto engines.
    aes_latency: int = 80
    aes_stages: int = 16
    mac_latency: int = 80

    # Protection configuration.
    encryption: str = ENC_AISE
    integrity: str = INT_BMT
    mac_bits: int = 128
    lpid_bits: int = 64
    minor_counter_bits: int = 7
    global_counter_bits: int = 64  # for the global-counter baselines

    # Integrity caching policy: standard MT caches every node incl. leaf
    # data MACs; BMT caches tree nodes but not per-block data MACs
    # (paper section 5.2). Overridable for ablation studies.
    cache_data_macs: bool | None = None

    # Optional dedicated on-chip cache for Merkle nodes. The paper's
    # design shares the L2 (None, default); a dedicated cache trades the
    # pollution of Figure 9 for a smaller reach — an ablation target.
    node_cache: CacheConfig | None = None

    # Verification timing (paper section 6): non-precise (default) lets
    # instructions retire before verification completes — integrity costs
    # bandwidth and cache space only. Precise verification puts the MAC
    # check (and any node fetches) on the critical path of every miss.
    precise_verification: bool = False

    def __post_init__(self):
        # Validate through the scheme registry (lazy import: the scheme
        # descriptors import this module's constants). Registered
        # third-party schemes validate too, not just the builtin tuples.
        from ..mem.layout import BLOCK_SIZE
        from ..schemes import encryption_scheme, integrity_scheme

        encryption_scheme(self.encryption)
        integrity_scheme(self.integrity)
        if self.block_size != BLOCK_SIZE:
            # The metadata layout, the functional memory and the timing
            # engines' victim addresses are all fixed at 64B blocks; any
            # other size would give answers that depend on the engine.
            raise ConfigurationError(
                f"block_size must be {BLOCK_SIZE} (the metadata layout is "
                f"fixed at {BLOCK_SIZE}B blocks), got {self.block_size}"
            )
        if self.mac_bits % 8 or self.mac_bits <= 0:
            raise ConfigurationError(f"mac_bits must be a positive multiple of 8, got {self.mac_bits}")
        if self.block_size % (self.mac_bits // 8):
            raise ConfigurationError(
                f"a {self.block_size}B block must hold a whole number of {self.mac_bits}-bit MACs"
            )
        if self.swap_bytes is None:
            object.__setattr__(self, "swap_bytes", self.physical_bytes)

    @property
    def mac_bytes(self) -> int:
        return self.mac_bits // 8

    @property
    def merkle_arity(self) -> int:
        """Child MACs per 64B tree node: 4 for 128-bit MACs, 2 for 256-bit."""
        return self.block_size // self.mac_bytes

    @property
    def caches_data_macs(self) -> bool:
        if self.cache_data_macs is not None:
            return self.cache_data_macs
        from ..schemes import integrity_scheme

        return integrity_scheme(self.integrity).caches_data_macs_default

    def with_protection(self, encryption: str, integrity: str, **overrides) -> "MachineConfig":
        """Derive a config differing only in protection scheme (and overrides)."""
        return replace(self, encryption=encryption, integrity=integrity, **overrides)

    @classmethod
    def preset(cls, name: str, **overrides) -> "MachineConfig":
        """Build a configuration from a ``encryption[+integrity]`` label.

        The one blessed constructor for named configurations: both halves
        resolve through the scheme registry (:mod:`repro.schemes`), so
        every registered scheme key — including third-party ones — is a
        valid preset component without this module enumerating them.
        Shorthands: ``base`` for the unprotected machine, ``mt`` for the
        standard Merkle tree, ``bmt`` for the Bonsai Merkle tree; an
        omitted integrity half means none. Keyword overrides are passed
        through (``MachineConfig.preset("aise+bmt", mac_bits=64)``).
        """
        encryption, _, integrity = name.partition("+")
        encryption = _PRESET_ENCRYPTION_ALIASES.get(encryption, encryption)
        integrity = _PRESET_INTEGRITY_ALIASES.get(integrity, integrity) or INT_NONE
        try:
            return cls(encryption=encryption, integrity=integrity, **overrides)
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"no preset named {name!r} ({exc}); presets are "
                "'<encryption>[+<integrity>]' over the registered scheme keys, "
                f"e.g. {', '.join(PRESET_NAMES)}"
            ) from None

    @classmethod
    def preset_names(cls) -> tuple[str, ...]:
        """The canonical evaluation labels (the Figure-6 configuration set).

        Any registry-valid ``encryption[+integrity]`` pair works with
        :meth:`preset`; these are the named points the paper's figures
        and the sweep CLI default to, in presentation order.
        """
        return PRESET_NAMES


# Label shorthands accepted by MachineConfig.preset on top of the raw
# scheme-registry keys.
_PRESET_ENCRYPTION_ALIASES = {"base": ENC_NONE}
_PRESET_INTEGRITY_ALIASES = {"mt": INT_MT, "bmt": INT_BMT}

# The evaluation's canonical configuration labels, in the presentation
# order of Figure 6 (the sweep CLI and golden outputs depend on order).
PRESET_NAMES = (
    "base",
    "aise",
    "global32",
    "global64",
    "aise+mt",
    "aise+bmt",
    "global64+mt",
)
