"""Runtime sanitizer: cheap invariant assertions at the security seams.

The static rules in :mod:`repro.analysis` claim the code *preserves* the
paper's invariants; this module gives those claims a dynamic counterpart.
When armed, hot paths run inexpensive checks at the existing seams:

* **counter monotonicity** (:mod:`repro.core.counters`) — minor counters
  stay in their 7-bit range and only step forward or wrap through the
  overflow APIs (paper sections 4.1/4.3: a rolled-back counter is a
  reused pad);
* **BMT root consistency** (:mod:`repro.integrity.bonsai`) — every Nth
  metadata update re-checks that the in-memory top tree node still
  matches the on-chip root register (the update-ordering bugs Freij et
  al. catalogue show exactly this drifting);
* **cache inclusion/bookkeeping** (:mod:`repro.mem.cache`) — sets never
  exceed their associativity and the per-class line tallies match a
  recount (Figure 9's occupancy numbers are only as good as these
  tallies);
* **frame/swap ownership** (:mod:`repro.osmodel.swap`) — kernel DMA only
  targets allocated swap slots (section 5.1's page-root protocol assumes
  slot identity is stable while a page is out).

Arming is ambient (module-level) so the functional machine, the kernel,
and the test-suite can all run "sanitized" without threading a flag
through every constructor: use the :func:`sanitized` context manager,
call :func:`arm` explicitly, or set ``REPRO_SANITIZE=1`` in the
environment before import (how CI runs the armed test suite).

Checks raise :class:`SanitizerError` for *internal* invariant breaks
(bugs in this codebase). Divergence that a real attacker could have
caused (the BMT spot check) raises the usual
:class:`~repro.core.errors.IntegrityError` so detection semantics stay
uniform.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace


class SanitizerError(AssertionError):
    """An armed invariant check failed — a codebase bug, not an attack."""


@dataclass(frozen=True)
class SanitizerConfig:
    """Which invariant checks are armed, and how often the periodic ones run."""

    counter_monotonicity: bool = True
    bmt_root_spot_check: bool = True
    cache_inclusion: bool = True
    swap_ownership: bool = True
    # Periodic checks (BMT root, full cache recount) run every Nth event;
    # per-event checks (counter steps, slot ownership) always run.
    spot_check_interval: int = 64


# The armed configuration. The hottest seam (``SetAssociativeCache.insert``)
# reads it as ``sanitizer._active`` — one load, no call — before calling
# :func:`enabled`; everyone else goes through the functions below.
_active: SanitizerConfig | None = None


def arm(config: SanitizerConfig | None = None) -> SanitizerConfig:
    """Turn the sanitizer on (idempotent); returns the active config."""
    global _active
    _active = config if config is not None else SanitizerConfig()
    return _active


def disarm() -> None:
    global _active
    _active = None


def active() -> SanitizerConfig | None:
    """The armed configuration, or None when the sanitizer is off."""
    return _active


def enabled(check: str) -> bool:
    """Fast hot-path predicate: is the named check armed?"""
    config = _active
    return config is not None and getattr(config, check)


def spot_interval() -> int:
    """The armed spot-check interval (0 when disarmed — callers skip)."""
    config = _active
    return config.spot_check_interval if config is not None else 0


@contextmanager
def sanitized(**overrides):
    """Arm the sanitizer for a ``with`` block, restoring the prior state.

    Keyword overrides are applied to a default :class:`SanitizerConfig`
    (or to the currently armed one), e.g.::

        with sanitized(spot_check_interval=1):
            machine.write_block(0, payload)
    """
    global _active
    previous = _active
    base = previous if previous is not None else SanitizerConfig()
    _active = replace(base, **overrides) if overrides else base
    try:
        yield _active
    finally:
        _active = previous


def check(condition: bool, message: str) -> None:
    """Raise :class:`SanitizerError` unless ``condition`` holds."""
    if not condition:
        raise SanitizerError(message)


# CI and benchmark runs arm the whole process by exporting REPRO_SANITIZE=1.
if os.environ.get("REPRO_SANITIZE", "").strip() not in ("", "0"):
    arm()
