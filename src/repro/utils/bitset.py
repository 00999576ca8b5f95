"""Bitmask helpers for sets of paths and links.

The paper's coverage function ``ψ(A)`` maps link sets to path sets.  We
represent a set of paths (or links) as a Python ``int`` used as a bitmask:
bit ``i`` is set when element ``i`` belongs to the set.  Python integers are
arbitrary precision, so this representation works unchanged for the
paper-scale instances (1500 paths) and is dramatically faster than
``frozenset`` for the union/equality operations that dominate the
identifiability checks and the theorem algorithm.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

__all__ = [
    "mask_of",
    "bits_of",
    "iter_bits",
    "bit_count",
    "subset_of",
    "bools_of",
]


def mask_of(indices: Iterable[int]) -> int:
    """Build a bitmask with the given bit positions set.

    >>> mask_of([0, 2])
    5
    >>> mask_of([])
    0
    """
    mask = 0
    for index in indices:
        if index < 0:
            raise ValueError(f"bit index must be non-negative, got {index}")
        mask |= 1 << index
    return mask


def bits_of(mask: int) -> list[int]:
    """Return the sorted list of bit positions set in ``mask``.

    >>> bits_of(5)
    [0, 2]
    """
    return list(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of set bits in increasing order.

    Uses the classic lowest-set-bit trick, so the cost is proportional to the
    number of set bits rather than the width of the mask.
    """
    if mask < 0:
        raise ValueError(f"bitmask must be non-negative, got {mask}")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_count(mask: int) -> int:
    """Number of set bits (``|ψ(A)|`` when ``mask`` encodes a path set)."""
    if mask < 0:
        raise ValueError(f"bitmask must be non-negative, got {mask}")
    return mask.bit_count()


def subset_of(inner: int, outer: int) -> bool:
    """True when every bit of ``inner`` is also set in ``outer``.

    >>> subset_of(0b0101, 0b1101)
    True
    >>> subset_of(0b0011, 0b0101)
    False
    """
    return inner & ~outer == 0


def bools_of(mask: int, size: int) -> np.ndarray:
    """The first ``size`` bits of ``mask`` as a boolean vector (entry
    ``i`` is bit ``i``).

    >>> bools_of(5, 4).tolist()
    [True, False, True, False]
    """
    if mask < 0:
        raise ValueError(f"bitmask must be non-negative, got {mask}")
    data = mask.to_bytes((max(mask.bit_length(), size) + 7) // 8, "little")
    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8), count=size, bitorder="little"
    )
    return bits.view(bool)
