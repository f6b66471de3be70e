"""Bitmask helpers for subsets of {0, ..., n-1}.

A subset is an int with bit i set iff element i is a member, so set algebra
is plain integer bit-twiddling and the empty set is 0.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def full_mask(n: int) -> int:
    """Mask of the whole ground set."""
    return (1 << n) - 1


def _check_mask(mask: int, n: int, what: str = "subset") -> None:
    """Refuse a mask outside 0..2^n-1: only those shift to 0, a negative one to -1."""
    if mask >> n:
        raise ValueError(f"{what} mask {mask} out of range for n={n}")


def mask_of(items: Iterable[int]) -> int:
    mask = 0
    for e in items:
        mask |= 1 << e
    return mask


def elements(mask: int) -> list[int]:
    """Members of the subset in ascending order."""
    if mask < 0:
        raise ValueError(f"subset mask {mask} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, descending from mask itself down to 0."""
    if mask < 0:
        raise ValueError(f"subset mask {mask} is negative")
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask

