"""Memory-persistence mechanisms: Prosper and every baseline it is compared to.

All mechanisms implement the :class:`~repro.persistence.base.PersistenceMechanism`
interface, which the execution engine drives with per-access and per-interval
hooks.  This uniformity is what lets the benchmarks sweep mechanisms and what
lets the engine run one mechanism for the heap and another for the stack
(Figure 9).
"""

from repro.persistence.base import (
    Capabilities,
    IntervalContext,
    MechanismStats,
    PersistenceMechanism,
)
from repro.persistence.none import NoPersistence
from repro.persistence.dirtybit import DirtyBitPersistence
from repro.persistence.writeprotect import WriteProtectPersistence
from repro.persistence.logging import (
    FlushPersistence,
    RedoLogPersistence,
    UndoLogPersistence,
)
from repro.persistence.romulus import RomulusPersistence
from repro.persistence.ssp import SspPersistence
from repro.persistence.prosper import ProsperPersistence
from repro.persistence.adaptive import AdaptiveProsperPersistence

__all__ = [
    "Capabilities",
    "IntervalContext",
    "MechanismStats",
    "PersistenceMechanism",
    "NoPersistence",
    "DirtyBitPersistence",
    "WriteProtectPersistence",
    "FlushPersistence",
    "UndoLogPersistence",
    "RedoLogPersistence",
    "RomulusPersistence",
    "SspPersistence",
    "ProsperPersistence",
    "AdaptiveProsperPersistence",
]
