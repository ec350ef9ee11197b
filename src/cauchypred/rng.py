"""Deterministic multi-stream random numbers.

Every Monte Carlo replication owns one stream, named by a 64-bit master
seed plus a 64-bit stream index; a batch of replications is one seed and
an array of indices.  Streams are backed by the counter-based Philox
generator, keyed in :func:`generators` only, so stream ``r`` is built from
its key without generating streams ``0..r-1`` first, and its variates are
identical on every platform and under any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError

_UINT64_MAX = 2**64 - 1


def check_key(name: str, value) -> None:
    """Raise unless ``value`` is an unsigned 64-bit integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not 0 <= value <= _UINT64_MAX:
        raise DomainError(f"{name} must be an unsigned 64-bit integer, got {value!r}")


@dataclass(frozen=True)
class RngStream:
    """Key of one reproducible random stream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        check_key("master_seed", self.master_seed)
        check_key("stream_index", self.stream_index)

    def generator(self) -> np.random.Generator:
        return next(generators(self.master_seed, [self.stream_index]))


def generators(master_seed: int, stream_indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """The generator of each stream ``(master_seed, index)`` in turn (keys
    checked by the caller), each in the state of a freshly keyed Philox.

    One Philox generator is re-keyed for every index, from Python ints
    rather than new arrays, which costs far less than building a new one.
    A generator yielded is valid only until the next one is requested.
    """
    bit_generator = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bit_generator)
    state = {"counter": (0, 0, 0, 0), "key": None}
    fresh = {"bit_generator": "Philox", "state": state, "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for index in stream_indices:
        state["key"] = (master_seed, index)
        bit_generator.state = fresh  # copied in: the dict is not kept
        yield gen


def substream_index(*labels: object) -> int:
    """Stable 64-bit stream index derived from arbitrary labels.

    Uses SHA-256 of the rendered labels, so indices do not depend on the
    process, platform, or insertion order of unrelated streams.
    """
    import hashlib  # here, not at the top: a single test keys no stream

    text = "|".join(repr(x) for x in labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def substream_indices(label: object, reps: Iterable[int]) -> Iterator[int]:
    """``substream_index(label, rep)`` for each rep in turn, bit for bit,
    hashing the text of ``label`` once rather than once per rep."""
    import hashlib

    head = hashlib.sha256((repr(label) + "|").encode("utf-8"))
    for rep in reps:
        digest = head.copy()
        digest.update(repr(rep).encode("utf-8"))
        yield int.from_bytes(digest.digest()[:8], "big")


def correlated_normal_arrays(
    gen: np.random.Generator, rho: float, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Two arrays of standard normals with pairwise correlation ``rho``.

    The second array equals ``rho * first + sqrt(1 - rho^2) * fresh``, the
    one-factor Cholesky construction.  Draw order is fixed: the first array
    is drawn in full, then the fresh innovations.
    """
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"correlation must lie in [-1, 1], got {rho}")
    first = gen.standard_normal(size)
    fresh = gen.standard_normal(size)
    second = rho * first + np.sqrt(1.0 - rho * rho) * fresh
    return first, second


def draw_correlated_normals(gen: np.random.Generator, rho: float) -> tuple[float, float]:
    """One pair of standard normals with correlation ``rho``."""
    a, b = correlated_normal_arrays(gen, rho, 1)
    return float(a[0]), float(b[0])
