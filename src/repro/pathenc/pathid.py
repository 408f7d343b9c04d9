"""Bit-vector operations on path ids.

A path id is a plain Python ``int`` interpreted as a bit vector of a known
``width`` (the number of distinct root-to-leaf paths).  Following the paper,
the *i*-th bit **from the left** corresponds to path encoding ``i``
(encodings start at 1), so encoding ``e`` maps to the integer bit position
``width - e``.
"""

from __future__ import annotations

from typing import Iterator, List


def bit_for_encoding(encoding: int, width: int) -> int:
    """The path id with exactly the bit of ``encoding`` set.

    >>> bin(bit_for_encoding(1, 4))
    '0b1000'
    """
    if not 1 <= encoding <= width:
        raise ValueError("encoding %d out of range 1..%d" % (encoding, width))
    return 1 << (width - encoding)


def encodings_of(pathid: int, width: int) -> List[int]:
    """Decompose a path id into its path encodings, ascending.

    >>> encodings_of(0b1100, 4)
    [1, 2]
    """
    pathid &= (1 << width) - 1
    found: List[int] = []
    while pathid:  # low bit first == highest encoding first
        low = pathid & -pathid
        found.append(width + 1 - low.bit_length())
        pathid ^= low
    found.reverse()
    return found


def bits_of(pathid: int) -> Iterator[int]:
    """Yield the raw set-bit masks of ``pathid`` (low to high)."""
    while pathid:
        low = pathid & -pathid
        yield low
        pathid ^= low


def popcount(pathid: int) -> int:
    """Number of root-to-leaf paths covered by the path id."""
    return bin(pathid).count("1")


def contains(pid_a: int, pid_b: int) -> bool:
    """Strict path-id containment: ``pid_a`` ⊋ ``pid_b`` (Section 2, Case 2).

    ``pid_a`` contains ``pid_b`` iff they differ and ``pid_a & pid_b ==
    pid_b``.
    """
    return pid_a != pid_b and (pid_a & pid_b) == pid_b


def covers(pid_a: int, pid_b: int) -> bool:
    """Non-strict containment: equal or containing."""
    return (pid_a & pid_b) == pid_b


def format_pathid(pathid: int, width: int) -> str:
    """Render as the fixed-width bit string used in the paper's figures.

    >>> format_pathid(0b0011, 4)
    '0011'
    """
    return format(pathid, "0%db" % width)


def parse_pathid(bits: str) -> int:
    """Inverse of :func:`format_pathid` (width implied by the string)."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError("bit string must be non-empty over {0,1}: %r" % bits)
    return int(bits, 2)


def pathid_byte_size(width: int) -> int:
    """Bytes needed to store one path id (Table 3's "Pid Size")."""
    return (width + 7) // 8
