"""Unit tests for the 8259A PIC pair."""

import pytest

from repro.hw.pic import PicPair, standard_setup


@pytest.fixture
def pic():
    pair = PicPair()
    standard_setup(pair)
    return pair


class TestInitSequence:
    def test_vector_bases_programmed(self, pic):
        assert pic.master.vector_base == 32
        assert pic.slave.vector_base == 40

    def test_init_unmasks(self, pic):
        assert pic.master.imr == 0
        assert pic.slave.imr == 0

    def test_reset_state_masked(self):
        assert PicPair().master.imr == 0xFF


class TestPriorityAndDelivery:
    def test_single_irq_delivers_its_vector(self, pic):
        pic.raise_irq(4)
        assert pic.has_pending()
        assert pic.pending_vector() == 36
        assert pic.acknowledge() == 36

    def test_lower_numbered_irq_wins(self, pic):
        pic.raise_irq(5)
        pic.raise_irq(1)
        assert pic.acknowledge() == 33
        pic.master.port_write(0, 0x20, 1)  # EOI for IRQ1
        assert pic.acknowledge() == 37

    def test_in_service_blocks_lower_priority(self, pic):
        pic.raise_irq(3)
        assert pic.acknowledge() == 35
        pic.raise_irq(5)
        assert not pic.has_pending()  # IRQ3 still in service
        pic.master.port_write(0, 0x20, 1)  # non-specific EOI
        assert pic.pending_vector() == 37

    def test_higher_priority_preempts_in_service(self, pic):
        pic.raise_irq(5)
        assert pic.acknowledge() == 37
        pic.raise_irq(1)
        # IRQ1 outranks in-service IRQ5.
        assert pic.pending_vector() == 33

    def test_masked_irq_not_delivered(self, pic):
        pic.master.port_write(1, 1 << 4, 1)  # mask IRQ4
        pic.raise_irq(4)
        assert not pic.has_pending()
        pic.master.port_write(1, 0, 1)  # unmask
        assert pic.pending_vector() == 36

    def test_acknowledge_without_pending_raises(self, pic):
        with pytest.raises(RuntimeError):
            pic.acknowledge()


class TestCascade:
    def test_slave_irq_routes_through_cascade(self, pic):
        pic.raise_irq(11)
        assert pic.pending_vector() == 40 + 3
        assert pic.acknowledge() == 43
        assert pic.slave.isr == 1 << 3
        assert pic.master.isr & (1 << 2)  # cascade line in service

    def test_slave_eoi_sequence(self, pic):
        pic.raise_irq(11)
        pic.acknowledge()
        # OS sends EOI to both chips, slave first.
        pic.slave.port_write(0, 0x20, 1)
        pic.master.port_write(0, 0x20, 1)
        assert pic.slave.isr == 0
        assert pic.master.isr == 0
        pic.raise_irq(11)
        assert pic.pending_vector() == 43

    def test_masked_slave_request_does_not_starve_master(self, pic):
        # The UART's IRQ4 must get through while a masked slave line
        # (here the NIC's IRQ10) is requesting.
        pic.slave.imr = 1 << 2
        pic.raise_irq(10)
        pic.raise_irq(4)
        assert pic.has_pending()
        assert pic.pending_vector() == 36
        assert pic.acknowledge() == 36
        assert pic.slave.isr == 0
        assert pic.master.isr == 1 << 4
        # Unmasked, the latched slave request outranks in-service IRQ4.
        pic.slave.imr = 0
        assert pic.acknowledge() == 42

    def test_blocked_slave_request_does_not_starve_master(self, pic):
        pic.raise_irq(10)
        assert pic.acknowledge() == 42
        pic.master.port_write(0, 0x20, 1)  # master EOI only
        pic.raise_irq(11)   # blocked behind in-service IRQ10 on the slave
        pic.raise_irq(5)
        assert pic.acknowledge() == 37

    def test_second_slave_request_survives_acknowledge(self, pic):
        # NIC (IRQ10) and SCSI (IRQ11) both request before the INTA
        # cycle: IRQ11 must still be delivered after both EOIs.
        pic.raise_irq(10)
        pic.raise_irq(11)
        assert pic.acknowledge() == 42
        assert pic.master.irr & (1 << 2)  # cascade still requesting
        pic.slave.port_write(0, 0x20, 1)
        pic.master.port_write(0, 0x20, 1)
        assert pic.has_pending()
        assert pic.acknowledge() == 43
        assert pic.master.irr == 0

    def test_lower_irq_clears_cascade_when_slave_idle(self, pic):
        pic.raise_irq(10)
        pic.lower_irq(10)
        assert not pic.has_pending()


class TestEoiModes:
    def test_specific_eoi(self, pic):
        pic.raise_irq(2 + 4)  # IRQ6
        pic.acknowledge()
        pic.master.port_write(0, 0x60 | 6, 1)
        assert pic.master.isr == 0

    def test_nonspecific_eoi_clears_highest(self, pic):
        pic.raise_irq(1)
        pic.acknowledge()
        pic.master.isr |= 1 << 6   # pretend IRQ6 also in service
        pic.master.port_write(0, 0x20, 1)
        assert pic.master.isr == 1 << 6  # highest priority (1) cleared


class TestReadback:
    def test_read_irr_default(self, pic):
        pic.raise_irq(3)
        assert pic.master.port_read(0, 1) == 1 << 3

    def test_read_isr_after_ocw3(self, pic):
        pic.raise_irq(3)
        pic.acknowledge()
        pic.master.port_write(0, 0x0B, 1)  # OCW3: read ISR
        assert pic.master.port_read(0, 1) == 1 << 3

    def test_read_imr_from_data_port(self, pic):
        pic.master.port_write(1, 0xA5, 1)
        assert pic.master.port_read(1, 1) == 0xA5

    def test_state_snapshot(self, pic):
        pic.raise_irq(3)
        state = pic.state()
        assert state["master"]["irr"] == 1 << 3
        assert state["master"]["base"] == 32
