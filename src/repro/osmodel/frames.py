"""Physical frame allocation and replacement.

Tracks, per frame, every (pid, vpage) mapping it backs — the reverse map
the kernel needs to fix up page tables when a frame is reclaimed, and to
know which frames are shared (and here, pinned).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass
class FrameInfo:
    """Per-frame bookkeeping: reverse mappings and the pinned flag."""

    index: int
    mappers: set = field(default_factory=set)  # {(pid, vpage)}
    pinned: bool = False

    @property
    def shared(self) -> bool:
        return len(self.mappers) > 1


class FrameAllocator:
    """Free-list allocator with FIFO replacement among evictable frames."""

    def __init__(self, total_frames: int, reserved: int = 0):
        if total_frames <= reserved:
            raise ValueError("no usable frames")
        self.total_frames = total_frames
        self._free = deque(range(reserved, total_frames))
        self._fifo: deque[int] = deque()  # allocation order of in-use frames
        self._info: dict[int, FrameInfo] = {}
        self.allocations = 0

    @property
    def free_frames(self) -> int:
        return len(self._free)

    @property
    def used_frames(self) -> int:
        return len(self._info)

    def allocate(self) -> int | None:
        """Grab a free frame, or None if a victim must be evicted first."""
        if not self._free:
            return None
        frame = self._free.popleft()
        self._info[frame] = FrameInfo(index=frame)
        self._fifo.append(frame)
        self.allocations += 1
        return frame

    def info(self, frame: int) -> FrameInfo:
        return self._info[frame]

    def attach(self, frame: int, pid: int, vpage: int) -> None:
        self._info[frame].mappers.add((pid, vpage))

    def detach(self, frame: int, pid: int, vpage: int) -> None:
        info = self._info[frame]
        info.mappers.discard((pid, vpage))

    def pin(self, frame: int) -> None:
        self._info[frame].pinned = True

    def unpin(self, frame: int) -> None:
        self._info[frame].pinned = False

    def release(self, frame: int) -> None:
        """Return a frame to the free list (all mappers must be gone)."""
        info = self._info.get(frame)
        if info is None:
            raise KeyError(f"frame {frame} not in use")
        if info.mappers:
            raise ValueError(f"frame {frame} still mapped by {info.mappers}")
        del self._info[frame]
        try:
            self._fifo.remove(frame)
        except ValueError:
            pass
        self._free.append(frame)

    def pick_victim(self) -> FrameInfo | None:
        """FIFO-oldest un-pinned, un-shared frame, or None."""
        for frame in self._fifo:
            info = self._info.get(frame)
            if info is not None and not info.pinned and not info.shared and info.mappers:
                return info
        return None

