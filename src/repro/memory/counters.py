"""Statistics counters that live in one shared int64 buffer.

The native walk (:mod:`repro.memory.native`) updates cache and device
statistics in place, so Python and C must write the same memory.  A stats
dataclass declares each field as a :class:`SharedCounter`; the values live
in the instance's ``counts`` buffer, an ``array('q')`` created by the
class's ``__init__`` and never rebound (``reset`` zeroes it in place).
``dataclasses.fields``/``asdict``, equality and ``repr`` see the fields as
plain ints.
"""

from __future__ import annotations

from array import array


class SharedCounter:
    """Dataclass field descriptor: slot *index* of ``obj.counts``."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __get__(self, obj, owner=None) -> int:
        # On the class (dataclass default lookup) a counter starts at 0.
        return 0 if obj is None else obj.counts[self.index]

    def __set__(self, obj, value: int) -> None:
        obj.counts[self.index] = value


def zero(buffer: array) -> None:
    """Zero *buffer* in place (its address stays valid for native code)."""
    buffer[:] = array("q", bytes(8 * len(buffer)))
