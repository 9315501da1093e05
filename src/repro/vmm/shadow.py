"""Shadow (virtual) machine state kept by the lightweight VMM.

The guest believes it owns the hardware; in reality the monitor keeps a
virtual copy of everything it refuses to hand over:

* virtual IDTR / GDTR / TSS — the values the guest loaded with
  LIDT/LGDT/LTSS, which trapped;
* the virtual interrupt flag (the guest's CLI/STI trap into here);
* a complete virtual 8259 pair — guest-owned device interrupts are
  latched here and the guest's mask/EOI programming lands here, while
  the monitor keeps the *real* PIC for itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hw.pic import PicPair


@dataclass
class TableRegister:
    base: int = 0
    limit: int = 0


@dataclass
class ShadowState:
    """Everything the monitor virtualises for one guest."""

    #: The guest's virtual interrupt flag (its CLI/STI state).
    vif: bool = False
    #: vif value saved when an interrupt was reflected; restored on the
    #: guest's virtual-PIC EOI (monitors without VT approximate the
    #: IRET-time restore this way; see DESIGN.md).
    vif_before_reflect: Optional[bool] = None
    #: Guest-loaded descriptor-table registers.
    idtr: TableRegister = field(default_factory=TableRegister)
    gdtr: TableRegister = field(default_factory=TableRegister)
    tss_base: int = 0
    #: Guest view of the control registers (CR0 paging bit, CR3).
    cr0: int = 0
    cr3: int = 0
    #: The guest's virtual interrupt controller.
    virtual_pic: PicPair = field(default_factory=PicPair)
    #: Guest executed HLT (wake on next virtual interrupt).
    halted: bool = False

    def pending_virtual_vector(self) -> Optional[int]:
        """Vector of the highest-priority deliverable virtual interrupt."""
        if not self.vif:
            return None
        return self.virtual_pic.pending_vector()
