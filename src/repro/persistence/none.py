"""The vanilla baseline: no persistence at all.

Stack lives in DRAM, no tracking, no checkpoints.  Every result in the
paper's Figures 3, 8, and 9 is normalized to the execution time of this
configuration.
"""

from __future__ import annotations

from repro.persistence.base import Capabilities, PersistenceMechanism


class NoPersistence(PersistenceMechanism):
    """Defines no hook: the engine only counts its accesses."""

    name = "vanilla"
    capabilities = Capabilities(
        achieves_process_persistence=False,
        works_without_compiler_support=True,
        stack_pointer_aware=False,
        allows_stack_in_dram=True,
    )
    region_in_nvm = False
