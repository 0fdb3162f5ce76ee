"""Reproducible random-stream keys shared by generators and test engines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Rng:
    """Seed plus stream id naming one reproducible random stream.

    The same (seed, stream_id) always yields the same stream within this
    package; distinct stream ids give independent streams. Parallel
    experiments give replicate r the key (seed, r), so results do not
    depend on execution order.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng((self.seed & _MASK64, self.stream_id & _MASK64))

    def replicate(self, r: int) -> "Rng":
        return Rng(self.seed, r)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator keyed by (seed, *path); used for per-block replicate streams."""
    return np.random.default_rng(tuple(x & _MASK64 for x in (seed, *path)))


def as_generator(rng) -> np.random.Generator:
    """Accept an Rng key, a numpy Generator, a plain int seed, or a stub.

    Any object exposing the Generator method surface passes through, which
    lets tests inject recorded draws.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, Rng):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return Rng(int(rng)).generator()
    if hasattr(rng, "integers") and hasattr(rng, "random"):
        return rng
    raise TypeError(f"cannot interpret {type(rng).__name__} as a random stream")
