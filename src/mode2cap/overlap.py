"""Frequency overlap of two random contiguous subchannel allocations.

Both packets occupy M contiguous subchannels out of B, with the start index
drawn uniformly.  The distribution of the overlap width m in [0, M] has a
closed form; the tests check it against a brute-force pair enumeration.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OverlapDistribution:
    """Probabilities of overlap width m = 0..M for two M-wide allocations."""

    probs: tuple[float, ...]


def overlap_distribution(b: int, m_width: int) -> OverlapDistribution:
    """Closed-form overlap distribution.

    Counted exactly in integers over the (b - m_width + 1)**2 equally likely
    start pairs, converted to float at the end.  The zero-overlap case applies
    for 2*m_width <= b; at 2*m_width == b it is the correct continuation of
    the same expression (checked against a brute-force enumeration).
    """
    if not (1 <= m_width <= b):
        raise ValueError(f"need 1 <= m_width <= b, got m_width={m_width}, b={b}")
    m_w = m_width
    denom = (b + 1 - m_w) ** 2
    counts = []
    for m in range(m_w + 1):
        if m == m_w:
            num = b + 1 - m_w
        elif m < 2 * m_w - b:
            num = 0
        elif m == 0:
            num = (b + 2 - 2 * m_w) * (b + 1 - 2 * m_w)
        else:
            num = 2 * (b + m + 1 - 2 * m_w)
        counts.append(num)
    return OverlapDistribution(tuple(c / denom for c in counts))

