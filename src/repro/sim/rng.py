"""Named random streams for reproducible experiments.

Each subsystem (link loss, traffic generator, flow start times, ...) draws
from its own :class:`numpy.random.Generator`, derived deterministically from
the experiment seed and the stream name.  Adding a new consumer of randomness
therefore never perturbs the sequences seen by existing consumers, which is
essential when comparing runs across code revisions.

This module also owns the repo's block-buffered draw helpers.  numpy fills
array draws from the same underlying bit stream as repeated scalar calls,
so handing out ``rng.random(block)`` (or ``rng.uniform(0, high, block)``)
one element at a time yields the *exact same values in the same order* as
per-call scalar draws -- at a fraction of the per-draw cost.
:class:`BlockDraws` is the scalar form (RED's uniformization draws, the
dumbbell's access jitter) and :class:`DrawLanes` the vectorized N-lane form
used by the batched cell kernel.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence

import numpy as np


class BlockDraws:
    """Block-buffered scalar draws from one :class:`numpy.random.Generator`.

    With ``high=None`` (default) values come from ``rng.random`` (uniform on
    [0, 1)); with a float bound they come from ``rng.uniform(0.0, high)``.
    Either way the sequence handed out by :meth:`next` is bit-identical to
    the equivalent per-call scalar draws, independent of ``block`` size.

    Because draws are buffered ahead of consumption, the generator must not
    be shared with any other consumer while a buffer is outstanding.
    """

    __slots__ = ("_rng", "high", "_block", "_buf", "_i")

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        high: Optional[float] = None,
        block: int = 64,
    ) -> None:
        if block <= 0:
            raise ValueError("block size must be positive")
        self._rng = rng
        #: upper draw bound, or None for unit uniform draws.
        self.high = high
        self._block = block
        self._buf = rng.random(0)
        self._i = 0

    @classmethod
    def resume(
        cls,
        rng: np.random.Generator,
        buffered: np.ndarray,
        consumed: int,
        *,
        block: int = 64,
    ) -> "BlockDraws":
        """Rebuild a stream from an outstanding buffer and its cursor.

        Hands a partially-consumed block (e.g. one :class:`DrawLanes` lane)
        to a fresh scalar stream: the remaining buffered values are served
        first, then refills continue from ``rng`` exactly where the donor
        stream left off.
        """
        stream = cls(rng, block=block)
        stream._buf = np.asarray(buffered, dtype=np.float64)
        stream._i = int(consumed)
        return stream

    def _fill(self) -> np.ndarray:
        if self.high is None:
            return self._rng.random(self._block)
        return self._rng.uniform(0.0, self.high, self._block)

    def next(self) -> float:
        """The next draw, refilling the buffer by one block when empty."""
        i = self._i
        buf = self._buf
        if i >= len(buf):
            self._buf = buf = self._fill()
            i = 0
        self._i = i + 1
        return buf.item(i)


class DrawLanes:
    """N independent block-buffered draw lanes with a vectorized gather.

    One lane per cell, each backed by its own generator: lane ``k``'s
    consumed sequence is bit-identical to ``BlockDraws(rngs[k])`` (and hence
    to per-call scalar draws from the same generator), which is what lets a
    batched kernel replay N scalar cells' decision streams in lockstep.

    :meth:`take` consumes one draw from every lane selected by a boolean
    mask; unselected lanes neither advance nor refill, and their slots in
    the returned array are unspecified -- callers must mask comparisons
    against the result with the same selection mask.
    """

    def __init__(
        self, rngs: Sequence[np.random.Generator], *, block: int = 256
    ) -> None:
        if block <= 0:
            raise ValueError("block size must be positive")
        self._rngs: List[np.random.Generator] = list(rngs)
        self._block = block
        n = len(self._rngs)
        self._buf = np.empty((n, block), dtype=np.float64)
        # Flat view of the same storage: lane k's cursor c lives at
        # k*block + c, so one 1-D fancy gather serves a whole take.
        self._flat = self._buf.reshape(-1)
        # Start every cursor at ``block`` so first use refills the lane.
        self._idx = np.full(n, block, dtype=np.int64)
        # Returned when no lane is selected; callers treat the result as
        # read-only, so one shared array serves every empty take.
        self._no_draws = np.ones(n, dtype=np.float64)
        self._no_draws.setflags(write=False)

    def __len__(self) -> int:
        return len(self._rngs)

    def export_lane(self, lane: int) -> BlockDraws:
        """Detach lane ``lane`` as a scalar :class:`BlockDraws` stream.

        The returned stream serves the lane's un-consumed buffered draws,
        then refills from the lane's generator -- the combined sequence is
        exactly the lane's remaining draw stream.  The lane must not be
        selected in any later :meth:`take`.
        """
        return BlockDraws.resume(
            self._rngs[lane],
            self._buf[lane].copy(),
            int(self._idx[lane]),
            block=self._block,
        )

    def take(self, need: np.ndarray) -> np.ndarray:
        """Consume one draw per lane where ``need`` is True.

        Returns a read-only-or-fresh float64 array of shape (N,): fresh
        draws in selected slots, unspecified values elsewhere.
        """
        lanes = np.nonzero(need)[0]
        if not len(lanes):
            return self._no_draws
        idx = self._idx
        block = self._block
        sel = idx[lanes]
        if (sel >= block).any():
            for lane in lanes[sel >= block]:
                self._buf[lane] = self._rngs[lane].random(block)
                idx[lane] = 0
            sel = idx[lanes]
        out = np.empty(len(need), dtype=np.float64)
        out[lanes] = self._flat[lanes * block + sel]
        idx[lanes] = sel + 1
        return out


class RngRegistry:
    """Factory for named, independently seeded random generators."""

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always maps to the same generator instance within a
        registry, so repeated calls share state (as a traffic source expects).
        """
        if name not in self._streams:
            # Derive a child seed from (seed, name) stably across runs and
            # platforms.  crc32 is stable, fast, and good enough for seeding
            # a PCG64 SeedSequence (which does its own avalanche mixing).
            name_digest = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(name_digest,))
            self._streams[name] = np.random.Generator(np.random.PCG64(seq))
        return self._streams[name]

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RngRegistry seed={self.seed} streams={sorted(self._streams)}>"
