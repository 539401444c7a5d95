"""Dense F2 linear algebra on bitmask-encoded vectors.

A vector over F2 is a Python int whose set bits are the coordinates.  This is
exact, fast for the complex sizes that appear here, and keeps floating point
out of the artifact entirely.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["Echelon"]


class Echelon:
    """Row-style echelon basis keyed by pivot = highest set bit."""

    def __init__(self) -> None:
        self.rows: Dict[int, int] = {}

    def reduce(self, v: int) -> int:
        """Reduce ``v`` against the basis; returns the residual."""
        while v:
            p = v.bit_length() - 1
            row = self.rows.get(p)
            if row is None:
                return v
            v ^= row
        return 0

    def insert(self, v: int) -> bool:
        """Insert ``v`` if independent; returns True when the rank grew."""
        v = self.reduce(v)
        if v == 0:
            return False
        self.rows[v.bit_length() - 1] = v
        return True

    def __len__(self) -> int:
        return len(self.rows)
