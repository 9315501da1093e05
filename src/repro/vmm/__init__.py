"""The lightweight virtual machine monitor (the paper's contribution)."""

from repro.vmm.intercept import LVMM_INTERCEPTED_PORTS, LvmmIntercept
from repro.vmm.monitor import (
    GuestImageRejected,
    GuestImageWarning,
    LightweightVmm,
    LvmmTargetAdapter,
    MONITOR_MAGIC,
    Monitor,
    MonitorStats,
    VMCALL_MAGIC,
    VMCALL_PANIC,
    VMCALL_PUTC,
)
from repro.vmm.protect import (
    ShadowGdt,
    compress_descriptor,
    compress_selector,
    guest_can_reach,
)
from repro.vmm.shadow import ShadowState, TableRegister

__all__ = [
    "LightweightVmm",
    "Monitor",
    "GuestImageRejected",
    "GuestImageWarning",
    "LvmmTargetAdapter",
    "LvmmIntercept",
    "LVMM_INTERCEPTED_PORTS",
    "MonitorStats",
    "ShadowState",
    "TableRegister",
    "ShadowGdt",
    "compress_descriptor",
    "compress_selector",
    "guest_can_reach",
    "MONITOR_MAGIC",
    "VMCALL_PUTC",
    "VMCALL_MAGIC",
    "VMCALL_PANIC",
]
