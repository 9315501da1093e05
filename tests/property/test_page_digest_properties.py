"""Property-based tests: the incremental page-hash memory digest.

``PhysicalMemory.page_root`` caches one sha256 per 4 KiB page against
the page's write generation and rehashes only pages written since its
last call.  Whatever mix of CPU-width stores, bulk writes, fills, device
DMA and snapshot restores runs in between, the cached root must equal
one computed from scratch, and it must change exactly when some byte of
guest memory changed.
"""

from hashlib import sha256

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.mem import GEN_PAGE_SIZE, PhysicalMemory

#: Store widths of the scalar accessors.
SCALARS = {"write_u8": 1, "write_u16": 2, "write_u32": 4}
#: Few distinct byte values, so many stores rewrite what is there.
BYTES = st.sampled_from([0x00, 0x01, 0xFF])
#: SCSI DMAs whole 512-byte blocks; NIC receive DMAs up to a full frame.
SCSI_BLOCK = 512
NIC_FRAME = 1518


def _scratch_root(image: bytes) -> bytes:
    pages = [sha256(image[start:start + GEN_PAGE_SIZE]).digest()
             for start in range(0, len(image), GEN_PAGE_SIZE)]
    return sha256(b"".join(pages)).digest()


def _span(data, size: int, most: int):
    """Draw an (address, length) span of 1..``most`` bytes in RAM."""
    length = data.draw(st.integers(1, min(most, size)))
    return data.draw(st.integers(0, size - length)), length


def _step(data, memory: PhysicalMemory, saved: bytes) -> bytes:
    """Apply one drawn operation; returns the latest snapshot image."""
    size = memory.size
    ops = ["write", "fill", "nic-rx", "scsi-read", "snapshot", "restore"]
    ops += [name for name, width in SCALARS.items() if width <= size]
    op = data.draw(st.sampled_from(ops))
    if op in SCALARS:
        addr = data.draw(st.integers(0, size - SCALARS[op]))
        value = data.draw(st.sampled_from([0, 1, 0xFFFFFFFF]))
        getattr(memory, op)(addr, value)
    elif op == "write":
        addr, length = _span(data, size, 3 * GEN_PAGE_SIZE)
        memory.write(addr, bytes([data.draw(BYTES)]) * length)
    elif op == "fill":
        addr, length = _span(data, size, 3 * GEN_PAGE_SIZE)
        memory.fill(addr, length, data.draw(BYTES))
    elif op in ("nic-rx", "scsi-read"):
        # A device completion: the payload DMA, then a status word.
        most = NIC_FRAME if op == "nic-rx" else 4 * SCSI_BLOCK
        addr, length = _span(data, size, most)
        memory.write(addr, bytes(data.draw(st.lists(
            BYTES, min_size=length, max_size=length))))
        if size >= 4:
            memory.write_u32(data.draw(st.integers(0, size - 4)),
                             data.draw(st.sampled_from([0, 1])))
    elif op == "snapshot":
        return bytes(memory.view())
    else:
        # core.snapshot.restore rewrites the whole image this way.
        memory.write(0, saved)
    return saved


class TestPageRoot:
    @given(size=st.integers(min_value=1, max_value=5 * GEN_PAGE_SIZE + 99),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_cached_root_tracks_every_byte(self, size, data):
        memory = PhysicalMemory(size)
        image = bytes(size)
        root = memory.page_root()
        assert root == _scratch_root(image)
        saved = image
        for _ in range(data.draw(st.integers(1, 12))):
            saved = _step(data, memory, saved)
            now = bytes(memory.view())
            fresh = PhysicalMemory(size)
            fresh.write(0, now)
            assert memory.page_root() == _scratch_root(now) \
                == fresh.page_root()
            assert (memory.page_root() != root) == (now != image)
            image, root = now, memory.page_root()
