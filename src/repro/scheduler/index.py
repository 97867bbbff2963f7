"""Order-statistic index of eligible servers, one tree per demand shape.

Random placement needs two answers per job: how many of the scheduler's
servers can take a ``(cores, memory_gb)`` demand right now, and which one
is the k-th of them in ascending scheduler order. A mask over the store
answers both in O(N). This index answers them in O(log N) with one
Fenwick (binary indexed) tree per demand shape: a bit per scheduler
position, set exactly where :meth:`OmegaScheduler.candidates` would
include the position, plus a running count of set bits.

The bits are the same booleans as the mask: a tree is built from one
``_mask`` call, and is kept current with the same comparisons against
the scheduler's cached fit limits. The store tells the index which slots
changed (:meth:`ClusterState.touch` adds them to the index's dirty set);
the index re-derives those bits before it answers a query. So
``count`` equals ``len(candidates())`` and ``kth(k)`` equals
``candidates()[k]`` at every query, and a policy drawing
``rng.integers(count)`` places exactly where it would through the mask.

Trees are built on the first query of their shape, never up front, and
at most ``max_shapes`` shapes are kept (all are dropped at the bound,
like the scheduler's fit limits). The index is runtime state: schedulers do
not pickle it, and a restored scheduler rebuilds it from the columns.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.scheduler.omega import OmegaScheduler

#: A list of ``[lo, hi)`` position ranges (an ``allowed_rows`` filter).
Ranges = Sequence[Tuple[int, int]]


def fenwick_nodes(mask: np.ndarray) -> List[int]:
    """1-based Fenwick nodes of a 0/1 mask: ``nodes[i]`` sums the mask
    over ``(i - lowbit(i), i]``, built from one prefix sum."""
    n = len(mask)
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(mask, out=prefix[1:])
    i = np.arange(1, n + 1)
    return [0] + (prefix[i] - prefix[i - (i & -i)]).tolist()


class EligibleSet:
    """Fenwick tree over the positions eligible for one demand shape."""

    __slots__ = ("bits", "nodes", "count", "core_limit", "memory_limit",
                 "per_position", "_top")

    def __init__(self, mask: np.ndarray, limits: Tuple) -> None:
        n = len(mask)
        self.nodes = fenwick_nodes(mask)
        self.bits = bytearray(mask.astype(np.uint8).tobytes())
        self.count = int(np.count_nonzero(mask))
        core_limit, memory_limit = limits
        self.per_position = isinstance(core_limit, np.ndarray)
        if self.per_position:
            core_limit, memory_limit = core_limit.tolist(), memory_limit.tolist()
        self.core_limit = core_limit
        self.memory_limit = memory_limit
        self._top = 1 << (n.bit_length() - 1) if n else 0

    def flip(self, position: int) -> None:
        """Toggle one position's bit and update the sums above it."""
        delta = -1 if self.bits[position] else 1
        self.bits[position] ^= 1
        self.count += delta
        nodes = self.nodes
        size = len(nodes)
        i = position + 1
        while i < size:
            nodes[i] += delta
            i += i & -i

    def prefix(self, end: int) -> int:
        """Eligible positions in ``[0, end)``."""
        nodes = self.nodes
        total = 0
        while end:
            total += nodes[end]
            end &= end - 1
        return total

    def _select(self, k: int) -> int:
        """Position of the k-th (0-based) set bit; ``k < count``."""
        nodes = self.nodes
        size = len(nodes)
        position = 0
        step = self._top
        while step:
            probe = position + step
            if probe < size and nodes[probe] <= k:
                position = probe
                k -= nodes[probe]
            step >>= 1
        return position

    def count_in(self, ranges: Optional[Ranges] = None) -> int:
        """Eligible positions inside ``ranges`` (everywhere when None)."""
        if ranges is None:
            return self.count
        return sum(self.prefix(hi) - self.prefix(lo) for lo, hi in ranges)

    def kth(self, k: int, ranges: Optional[Ranges] = None) -> int:
        """The k-th (0-based) eligible position in ascending order,
        counting only positions inside ``ranges`` when given."""
        if ranges is None:
            return self._select(k)
        for lo, hi in ranges:
            before = self.prefix(lo)
            inside = self.prefix(hi) - before
            if k < inside:
                return self._select(before + k)
            k -= inside
        raise IndexError("k is not below the eligible count")


class PlacementIndex:
    """The eligible sets of one scheduler, kept current by dirty slots."""

    def __init__(self, scheduler: "OmegaScheduler", max_shapes: int) -> None:
        self._scheduler = scheduler
        self._max_shapes = max_shapes
        slots = scheduler._slots
        # Slot -> position: an offset for a contiguous slot range (every
        # builder lays rows out that way), a map otherwise.
        self._offset = slots.start if isinstance(slots, slice) else 0
        self._position_of: Optional[Dict[int, int]] = (
            None
            if isinstance(slots, slice)
            else {slot: position for position, slot in enumerate(slots.tolist())}
        )
        self._dirty: set = set()
        #: built eligible sets by ``(cores, memory_gb)``
        self.shapes: Dict[Tuple[float, float], EligibleSet] = {}
        scheduler.state.watch(scheduler._slot_index.tolist(), self._dirty)

    def detach(self) -> None:
        """Stop receiving dirty slots (the scheduler rebound or dropped us)."""
        self._scheduler.state.unwatch(self._scheduler._slot_index.tolist(), self._dirty)

    def eligible(self, cores: float, memory_gb: float) -> EligibleSet:
        """The current eligible set for a demand shape."""
        if self._dirty:
            self.flush()
        key = (cores, memory_gb)
        shape = self.shapes.get(key)
        if shape is None:
            if len(self.shapes) >= self._max_shapes:
                self.shapes.clear()
            scheduler = self._scheduler
            shape = EligibleSet(
                scheduler._mask(cores, memory_gb),
                scheduler._limits(cores, memory_gb),
            )
            self.shapes[key] = shape
        return shape

    def flush(self) -> None:
        """Re-derive every built shape's bit at each dirty slot."""
        state = self._scheduler.state
        used_cores, used_memory = state.used_cores, state.used_memory_gb
        frozen, failed, powered_off = state.frozen, state.failed, state.powered_off
        offset, position_of = self._offset, self._position_of
        for slot in self._dirty:
            position = slot - offset if position_of is None else position_of[slot]
            # Python bools and floats, so ``fits`` is a Python bool:
            # comparing a numpy bool with the byte below costs
            # microseconds. A blocked slot fits no shape.
            if frozen.item(slot) or failed.item(slot) or powered_off.item(slot):
                cores = memory = math.inf
            else:
                cores, memory = used_cores.item(slot), used_memory.item(slot)
            for shape in self.shapes.values():
                if shape.per_position:
                    fits = (
                        cores <= shape.core_limit[position]
                        and memory <= shape.memory_limit[position]
                    )
                else:
                    fits = cores <= shape.core_limit and memory <= shape.memory_limit
                if fits != shape.bits[position]:
                    shape.flip(position)
        self._dirty.clear()


__all__ = ["EligibleSet", "PlacementIndex", "Ranges", "fenwick_nodes"]
