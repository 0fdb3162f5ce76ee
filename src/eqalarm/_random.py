"""Reproducible random-stream keys shared by generators and test engines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Rng:
    """Seed plus stream id naming one reproducible random stream.

    The same (seed, stream_id) always yields the same stream within this
    package; distinct stream ids give independent streams. The Monte-Carlo
    engines split a key's replicates into blocks, block b drawing from
    substream(seed, stream_id, b), so replicate r depends only on the key
    and r, not on execution order.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return substream(self.seed, self.stream_id)

    def replicate(self, r: int) -> "Rng":
        return Rng(self.seed, r)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator keyed by (seed, *path), each part masked to 64 bits; the
    one place a key becomes a stream."""
    return np.random.default_rng(tuple(x & _MASK64 for x in (seed, *path)))


def as_generator(rng) -> np.random.Generator:
    """Accept an Rng key, a plain int seed or a numpy Generator (used as is)."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, Rng):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return Rng(int(rng)).generator()
    raise TypeError(f"cannot interpret {type(rng).__name__} as a random stream")
