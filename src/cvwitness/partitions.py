"""Set partitions of mode indices: parsing, enumeration, the finer-than
lattice relation, and each partition's block labels and cross-block mask.

Modes are labeled 1..n.  A partition is stored canonically: indices ascending
within each block, blocks ordered by their smallest element.  The textual
form follows the compact convention "2|134" for n <= 9 and comma-separated
labels ("1,10|2,3") for n > 9, where a group without a comma is one label.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .linalg import _frozen

_DIGIT_RUNS = 9  # up to nine modes a label is one digit; a block is a digit run


class PartitionError(ValueError):
    """Raised for malformed partition text or invalid block structure."""


def _block_text(block, n: int) -> str:
    """One block's labels: "134" for n <= 9, "1,10" above."""
    return ("" if n <= _DIGIT_RUNS else ",").join(str(i) for i in block)


@dataclass(frozen=True)
class Partition:
    """A set partition of {1..n} in canonical form."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(blocks, n: int) -> "Partition":
        """Canonicalize and validate a collection of index blocks."""
        listed = [tuple(sorted(int(i) for i in b)) for b in blocks]
        if any(not b for b in listed):
            raise PartitionError("empty block")
        canon = tuple(sorted(listed, key=lambda b: b[0]))
        seen: set[int] = set()
        for block in canon:
            for i in block:
                if not 1 <= i <= n:
                    raise PartitionError(f"index {i} out of range 1..{n}")
                if i in seen:
                    raise PartitionError(f"duplicate index {i}")
                seen.add(i)
        if len(seen) != n:
            missing = sorted(set(range(1, n + 1)) - seen)
            raise PartitionError(f"missing index {missing[0]}")
        return Partition(n, canon)

    @staticmethod
    def trivial(n: int) -> "Partition":
        """The one-block partition (no freed entries)."""
        return Partition.of([range(1, n + 1)], n)

    @staticmethod
    def singletons(n: int) -> "Partition":
        """The finest partition {1}|{2}|...|{n} (full separability)."""
        return Partition.of([[i] for i in range(1, n + 1)], n)

    @property
    def k(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

    @property
    def text(self) -> str:
        """Compact form, smaller blocks first: "2|134", "1,10|2,3,4"."""
        shown = sorted(self.blocks, key=lambda b: (len(b), b))
        return "|".join(_block_text(b, self.n) for b in shown)

    @cached_property
    def indices(self) -> tuple[np.ndarray, ...]:
        """Read-only, computed once: the 0-based modes of each block, in order."""
        return tuple(_frozen(np.array(b, dtype=int) - 1) for b in self.blocks)

    @cached_property
    def labels(self) -> np.ndarray:
        """Read-only, computed once: labels[i - 1] is the 0-based block of mode i."""
        owner = {i: k for k, block in enumerate(self.blocks) for i in block}
        return _frozen(np.array([owner[i] for i in range(1, self.n + 1)], dtype=int))

    def block_of(self, i: int) -> int:
        """Index of the block containing mode i."""
        if not 1 <= i <= self.n:
            raise PartitionError(f"index {i} out of range 1..{self.n}")
        return int(self.labels[i - 1])

    def __str__(self) -> str:
        return self.text


def _partition_list(p, n: int, what: str = "state") -> list[Partition]:
    """p, one partition or a sequence, as a list; each must be over n modes."""
    parts = [p] if isinstance(p, Partition) else list(p)
    for q in parts:
        if q.n != n:
            raise ValueError(f"{what} is {n}-mode but partition is over {q.n}")
    return parts


def _parse_group(group: str, n: int) -> list[int]:
    if not group:
        raise PartitionError("empty group between '|' separators")
    if "," in group:
        labels = [lab.strip() for lab in group.split(",")]
    else:  # a group without a comma is one label per digit, or one label above n = 9
        labels = list(group) if n <= _DIGIT_RUNS else [group]
    out = []
    for lab in labels:
        if not lab.isdecimal():
            raise PartitionError(f"invalid mode label {lab!r}")
        out.append(int(lab))
    return out


def parse_partition(text: str, n: int) -> Partition:
    """Parse bar-separated partition text such as "2|134" or "1,10|2,3".

    Every mode 1..n must appear exactly once; errors name the offending label.
    """
    if not isinstance(text, str) or not text.strip():
        raise PartitionError("empty partition text")
    groups = [_parse_group(g.strip(), n) for g in text.split("|")]
    return Partition.of(groups, n)


def all_partitions(n: int) -> list[Partition]:
    """All set partitions of {1..n}, ordered by block count then lexicographic.

    The count is the Bell number; n is capped at 12 to keep the list tractable.
    """
    if not 1 <= n <= 12:
        raise PartitionError(f"n must be in 1..12, got {n}")
    out: list[tuple[tuple[int, ...], ...]] = []

    def extend(i: int, blocks: list[list[int]]) -> None:
        if i > n:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            extend(i + 1, blocks)
            b.pop()
        blocks.append([i])
        extend(i + 1, blocks)
        blocks.pop()

    extend(1, [])
    out.sort(key=lambda blocks: (len(blocks), blocks))
    return [Partition(n, blocks) for blocks in out]


def bipartitions(n: int) -> list[Partition]:
    """The 2^(n-1) - 1 two-block partitions, smaller blocks enumerated first.

    Order matches the conventional listing 1|234, 2|134, ..., 12|34, 13|24,
    14|23: ascending size of the smaller block, then lexicographic. n is
    capped at 12, as in all_partitions, to keep the list tractable.
    """
    if n < 2:
        raise PartitionError(f"bipartitions need n >= 2, got {n}")
    if n > 12:
        raise PartitionError(f"bipartitions need n <= 12, got {n}")
    modes = range(1, n + 1)
    out = []
    for size in range(1, n // 2 + 1):
        for sub in combinations(modes, size):
            rest = tuple(i for i in modes if i not in sub)
            if len(sub) == len(rest) and 1 not in sub:
                continue  # complement pairs coincide at size n/2
            out.append(Partition.of([sub, rest], n))
    return out


def symmetric_bipartition_representatives(n: int) -> list[Partition]:
    """Bipartitions 1..k | k+1..n for k = 1..floor(n/2).

    Sufficient when the witness is fully symmetric under mode permutations.
    """
    if n < 2:
        raise PartitionError(f"representatives need n >= 2, got {n}")
    return [
        Partition.of([range(1, k + 1), range(k + 1, n + 1)], n)
        for k in range(1, n // 2 + 1)
    ]


def is_finer(a: Partition, b: Partition) -> bool:
    """True iff every block of a is contained in some block of b."""
    if a.n != b.n:
        raise PartitionError(f"mode counts differ: {a.n} vs {b.n}")
    # a's blocks each lie in one block of b iff a's label fixes b's label
    return len(set(zip(a.labels.tolist(), b.labels.tolist()))) == a.k


def free_mask(p: Partition) -> np.ndarray:
    """Read-only (n, n) mask: True where modes i+1 and j+1 lie in different blocks."""
    return _frozen(p.labels[:, None] != p.labels[None, :])
