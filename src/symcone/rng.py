"""Deterministic random streams built on the counter-based Philox generator.

Every consumer of randomness in this package derives its generator from a
64-bit user seed plus a purpose/stream/chunk triple packed into the second
Philox key word.  Streams are therefore independent, reproducible bit for
bit, and safe to draw from in parallel: output never depends on worker
scheduling, only on the (seed, purpose, stream, chunk) key.
"""

from __future__ import annotations

import numpy as np

# purpose namespaces; keep disjoint so no two consumers share a key
PURPOSE_SAMPLE = 0
PURPOSE_PERMUTE = 1
PURPOSE_RESAMPLE = 2
PURPOSE_PAIRS = 3

CHUNK_SIZE = 4096

_STREAM_BITS = 22
_CHUNK_BITS = 22
SEED_LIMIT = 2**64
STREAM_LIMIT = 2**_STREAM_BITS


def philox_key(seed: int, purpose: int, stream: int = 0, chunk: int = 0) -> np.ndarray:
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if not 0 <= stream < STREAM_LIMIT:
        raise ValueError(f"stream must lie in [0, 2^{_STREAM_BITS})")
    if not 0 <= chunk < 2**_CHUNK_BITS:
        raise ValueError(f"chunk index must lie in [0, 2^{_CHUNK_BITS})")
    word = (purpose << (_STREAM_BITS + _CHUNK_BITS)) | (stream << _CHUNK_BITS) | chunk
    return np.array([seed, word], dtype=np.uint64)


def make_generator(seed: int, purpose: int, stream: int = 0, chunk: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=philox_key(seed, purpose, stream, chunk)))


def chunk_layout(count: int) -> list[tuple[int, int, int]]:
    """Split ``count`` draws into fixed chunks: (chunk_index, start, size)."""
    if count < 1:
        raise ValueError("count must be positive")
    out = []
    start = 0
    k = 0
    while start < count:
        size = min(CHUNK_SIZE, count - start)
        out.append((k, start, size))
        start += size
        k += 1
    return out
