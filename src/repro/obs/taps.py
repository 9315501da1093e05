"""Multicast observation points.

Every observation hook in the tree is a :class:`TapPoint`: a list of
subscribers, so the flight recorder, the replayer, the tracer and the
profiler all watch the same boundaries through one API.

Call-site contract: the owner holds a ``TapPoint`` and notifies it with
``if taps: taps(args...)`` — one truthiness check when nobody is
listening, which is what keeps observation zero-cost when disabled.
Observers must only observe; mutating device or RNG state from a tap
breaks the determinism contract the flight recorder depends on.

Notification order is subscription order.  Because observers only
observe, no observer's output depends on it: a flight-recorder journal
is byte-identical whether a tracer subscribed before or after the
recorder.
"""

from __future__ import annotations

from typing import Callable


class TapPoint(list):
    """One observation point: an ordered list of subscribers.

    A ``list`` subclass, so the call sites' ``if taps:`` is the
    built-in list truthiness check rather than a Python-level
    ``__bool__`` call.  Equality and hashing stay by identity: two
    empty tap points are two different observation points.
    """

    __slots__ = ()
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    @property
    def subscribers(self) -> "TapPoint":
        """The subscribers, in notification order (the tap itself)."""
        return self

    def subscribe(self, callback: Callable) -> Callable:
        """Add an observer; returns it so callers can keep the handle."""
        self.append(callback)
        return callback

    def unsubscribe(self, callback: Callable) -> None:
        """Remove an observer (a no-op if it is not subscribed).

        Matching is by equality, so a bound method unsubscribes with a
        fresh ``obj.method`` reference — no stored handle needed.
        """
        try:
            self.remove(callback)
        except ValueError:
            pass

    def __call__(self, *args) -> None:
        for callback in tuple(self):
            callback(*args)
