"""MC146818-style real-time clock (the PC/AT CMOS RTC).

Port interface: 0x70 selects a register, 0x71 reads/writes it.  The
model keeps simulated wall time (derived from the event queue's cycle
clock against a settable epoch), BCD or binary per status-B, a periodic
interrupt with the standard rate-select encoding, and an alarm.  IRQ 8
on the slave PIC, acknowledged by reading status C — the detail every
RTC driver author forgets once.

Under the lightweight VMM the RTC is guest-owned (like the SCSI HBA):
the monitor keeps its own time from the PIT and does not claim these
ports.
"""

from __future__ import annotations

import datetime
from typing import Callable, Optional

from repro.errors import DeviceError
from repro.hw.bus import PortDevice
from repro.obs.taps import TapPoint
from repro.sim.events import Event, EventQueue

PORT_INDEX = 0x70
PORT_DATA = 0x71
PORT_BASE_RTC = PORT_INDEX
IRQ_RTC = 8

REG_SECONDS = 0x00
REG_SECONDS_ALARM = 0x01
REG_MINUTES = 0x02
REG_MINUTES_ALARM = 0x03
REG_HOURS = 0x04
REG_HOURS_ALARM = 0x05
REG_WEEKDAY = 0x06
REG_DAY = 0x07
REG_MONTH = 0x08
REG_YEAR = 0x09
REG_STATUS_A = 0x0A
REG_STATUS_B = 0x0B
REG_STATUS_C = 0x0C

STATUS_B_24H = 1 << 1
STATUS_B_BINARY = 1 << 2
STATUS_B_PERIODIC_IRQ = 1 << 6
STATUS_B_ALARM_IRQ = 1 << 5

STATUS_C_PERIODIC = 1 << 6
STATUS_C_ALARM = 1 << 5
STATUS_C_IRQF = 1 << 7

#: Alarm registers matching any value (MC146818 "don't care").
ALARM_ANY = 0xC0

#: Periodic rates: rate-select value -> frequency (32.768 kHz chain).
def _rate_hz(rate_select: int) -> float:
    if rate_select == 0:
        return 0.0
    if rate_select in (1, 2):
        rate_select += 7
    # Datasheet: frequency = 32768 >> (rate_select - 1).
    return 32768.0 / (1 << (rate_select - 1))


def _to_bcd(value: int) -> int:
    return ((value // 10) << 4) | (value % 10)


def _from_bcd(value: int) -> int:
    return (value >> 4) * 10 + (value & 0x0F)


class Rtc(PortDevice):
    """The clock, tied to the machine's cycle clock."""

    def __init__(self, queue: EventQueue, cpu_hz: float,
                 raise_irq: Callable[[], None],
                 epoch: Optional[datetime.datetime] = None) -> None:
        self._queue = queue
        self._cpu_hz = cpu_hz
        self._raise_irq = raise_irq
        # The sort of date a 2005 testbed would show.
        self.epoch = epoch or datetime.datetime(2005, 3, 7, 9, 30, 0)
        self._index = 0
        self.status_b = STATUS_B_24H  # BCD, 24h, interrupts off
        self._status_c = 0
        self._alarm = [ALARM_ANY, ALARM_ANY, ALARM_ANY]  # sec, min, hour
        self._periodic_event: Optional[Event] = None
        self._rate_select = 6  # 1024 Hz, the power-on default
        self.periodic_fired = 0
        self.alarms_fired = 0
        self._alarm_event: Optional[Event] = None
        #: Multicast observation point notified as ``taps(register,
        #: value)`` on every data-port read.  RTC reads are a
        #: nondeterminism boundary in general (wall time); here they
        #: derive from the cycle clock, so the flight recorder journals
        #: them as cross-check evidence rather than replayable input;
        #: the tracer subscribes alongside.  Observers must only observe.
        self.read_taps = TapPoint()

    # -- time ------------------------------------------------------------

    def now(self) -> datetime.datetime:
        elapsed = self._queue.now / self._cpu_hz
        return self.epoch + datetime.timedelta(seconds=int(elapsed))

    def _encode(self, value: int) -> int:
        if self.status_b & STATUS_B_BINARY:
            return value & 0xFF
        return _to_bcd(value)

    def _decode(self, value: int) -> int:
        if self.status_b & STATUS_B_BINARY:
            return value & 0xFF
        return _from_bcd(value)

    # -- port interface ------------------------------------------------------

    def port_write(self, offset: int, value: int, size: int) -> None:
        if offset == 0:  # index register
            self._index = value & 0x7F
            return
        register = self._index
        if register == REG_STATUS_B:
            self.status_b = value & 0xFF
            self._reprogram_periodic()
            self._arm_alarm()
            return
        if register == REG_STATUS_A:
            self._rate_select = value & 0x0F
            self._reprogram_periodic()
            return
        if register == REG_SECONDS_ALARM:
            self._alarm[0] = value & 0xFF
        elif register == REG_MINUTES_ALARM:
            self._alarm[1] = value & 0xFF
        elif register == REG_HOURS_ALARM:
            self._alarm[2] = value & 0xFF
        elif register in (REG_SECONDS, REG_MINUTES, REG_HOURS,
                          REG_DAY, REG_MONTH, REG_YEAR, REG_WEEKDAY):
            raise DeviceError(
                "setting the clock is not modelled; set .epoch instead")
        if register in (REG_SECONDS_ALARM, REG_MINUTES_ALARM,
                        REG_HOURS_ALARM):
            self._arm_alarm()

    def port_read(self, offset: int, size: int) -> int:
        if offset == 0:
            return self._index
        register = self._index
        value = self._read_register(register)
        if self.read_taps:
            self.read_taps(register, value)
        return value

    def _read_register(self, register: int) -> int:
        current = self.now()
        if register == REG_SECONDS:
            return self._encode(current.second)
        if register == REG_MINUTES:
            return self._encode(current.minute)
        if register == REG_HOURS:
            return self._encode(current.hour)
        if register == REG_WEEKDAY:
            return self._encode(current.isoweekday() % 7 + 1)
        if register == REG_DAY:
            return self._encode(current.day)
        if register == REG_MONTH:
            return self._encode(current.month)
        if register == REG_YEAR:
            return self._encode(current.year % 100)
        if register == REG_STATUS_A:
            return self._rate_select
        if register == REG_STATUS_B:
            return self.status_b
        if register == REG_STATUS_C:
            # Reading C returns and clears the pending causes.
            value = self._status_c
            self._status_c = 0
            return value
        if register in (REG_SECONDS_ALARM, REG_MINUTES_ALARM,
                        REG_HOURS_ALARM):
            return self._alarm[
                (register - REG_SECONDS_ALARM) // 2]
        return 0

    # -- periodic interrupt ------------------------------------------------------

    def _reprogram_periodic(self) -> None:
        if self._periodic_event is not None:
            self._periodic_event.cancel()
            self._periodic_event = None
        if not self.status_b & STATUS_B_PERIODIC_IRQ:
            return
        hz = _rate_hz(self._rate_select)
        if hz <= 0:
            return
        period = max(1, int(self._cpu_hz / hz))
        self._periodic_event = self._queue.schedule_in(
            period, self._periodic_tick, name="rtc-periodic")

    def _periodic_tick(self) -> None:
        self.periodic_fired += 1
        self._status_c |= STATUS_C_PERIODIC | STATUS_C_IRQF
        self._raise_irq()
        hz = _rate_hz(self._rate_select)
        period = max(1, int(self._cpu_hz / hz))
        self._periodic_event = self._queue.schedule_in(
            period, self._periodic_tick, name="rtc-periodic")

    # -- alarm ------------------------------------------------------------

    def _alarm_matches(self, moment: datetime.datetime) -> bool:
        fields = (moment.second, moment.minute, moment.hour)
        for target, actual in zip(self._alarm, fields):
            if target & ALARM_ANY == ALARM_ANY:
                continue
            if self._decode(target) != actual:
                return False
        return True

    def _arm_alarm(self) -> None:
        if self._alarm_event is not None:
            self._alarm_event.cancel()
            self._alarm_event = None
        if not self.status_b & STATUS_B_ALARM_IRQ:
            return
        # Scan forward second by second for the next match (bounded to
        # one day, the MC146818's alarm horizon).
        current = self.now()
        for offset in range(1, 24 * 3600 + 1):
            candidate = current + datetime.timedelta(seconds=offset)
            if self._alarm_matches(candidate):
                delay = int(offset * self._cpu_hz) \
                    - (self._queue.now % int(self._cpu_hz))
                self._alarm_event = self._queue.schedule_in(
                    max(1, delay), self._alarm_fire, name="rtc-alarm")
                return

    def _alarm_fire(self) -> None:
        self.alarms_fired += 1
        self._status_c |= STATUS_C_ALARM | STATUS_C_IRQF
        self._raise_irq()
        self._arm_alarm()  # MC146818 alarms repeat daily/period-ly

    # -- snapshot support ----------------------------------------------------

    @staticmethod
    def _remaining(event: Optional[Event], now: int) -> Optional[int]:
        if event is None or event.cancelled or event.fired:
            return None
        return max(0, event.time - now)

    def state(self) -> dict:
        """Register state plus remaining delays of the armed timers.

        Delays are stored relative to the queue clock because restore
        never rewinds simulated time; :meth:`load_state` re-arms the
        events that distance into the new future.
        """
        now = self._queue.now
        return {
            "index": self._index,
            "status_b": self.status_b,
            "status_c": self._status_c,
            "alarm": list(self._alarm),
            "rate_select": self._rate_select,
            "periodic_fired": self.periodic_fired,
            "alarms_fired": self.alarms_fired,
            "periodic_in": self._remaining(self._periodic_event, now),
            "alarm_in": self._remaining(self._alarm_event, now),
        }

    def load_state(self, state: dict) -> None:
        self._index = state["index"]
        self.status_b = state["status_b"]
        self._status_c = state["status_c"]
        self._alarm = list(state["alarm"])
        self._rate_select = state["rate_select"]
        self.periodic_fired = state["periodic_fired"]
        self.alarms_fired = state["alarms_fired"]
        if self._periodic_event is not None:
            self._periodic_event.cancel()
            self._periodic_event = None
        if state["periodic_in"] is not None:
            self._periodic_event = self._queue.schedule_in(
                state["periodic_in"], self._periodic_tick,
                name="rtc-periodic")
        if self._alarm_event is not None:
            self._alarm_event.cancel()
            self._alarm_event = None
        if state["alarm_in"] is not None:
            self._alarm_event = self._queue.schedule_in(
                state["alarm_in"], self._alarm_fire, name="rtc-alarm")
