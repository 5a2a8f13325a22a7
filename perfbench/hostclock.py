"""A clock that reads seconds at a fixed reference speed of the host.

The benchmark runs on shared virtual machines whose speed changes with
the load of their neighbours: on the 2-vCPU machine it was written on,
the same pure-Python loop runs in a fast and a slow state about 1.5 times
apart, and one state can last a minute.  A 30-second run can fall wholly
in either, so wall times of the same code spread past any useful bound.

``HostClock`` times a fixed probe loop (dict, tuple and int work, the kind
of work the package does) every ``INTERVAL_S`` of wall time from a
``SIGALRM`` handler.  Each probe gives the host's speed at that moment,
``REFERENCE_PROBE_S / probe time``.  ``now()`` adds up the wall time
between probes, each stretch scaled by the speed of the probe before it,
and leaves out the time spent in the probes, so it reads the seconds the
same work would take on the host at the reference speed: on a quiet host
in its fast state it reads about the wall time.  The probe does not touch
the package under test, so a change to the package moves the reading and
a change of host speed does not.
"""

from __future__ import annotations

import signal
import time

# wall time between probes, and the probe's size
INTERVAL_S = 0.02
PROBE_N = 2400
# the probe's time on the reference host (the machine described in
# README.md, in its fast state): readings are in its seconds
REFERENCE_PROBE_S = 0.00055


def _probe() -> int:
    acc: dict = {}
    for i in range(PROBE_N):
        key = (i & 31, i % 7)
        acc[key] = acc.get(key, 0) + i * i
    return len(acc)


class HostClock:
    """Seconds at the reference speed since ``origin`` (a
    ``time.monotonic()`` reading, possibly taken by the parent process)."""

    def __init__(self, origin: float):
        self._last = origin  # wall time up to which _base is counted
        self._base = 0.0     # reference seconds up to _last
        self._speed = None
        self._gen = 0
        self._busy = False
        self.speeds: list = []
        self.probe_s = 0.0   # wall time spent in probes
        self._previous = None

    def start(self) -> None:
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _on_alarm(self, _signum, _frame) -> None:
        if not self._busy:
            self._tick()

    def _tick(self) -> None:
        self._busy = True
        t0 = time.monotonic()
        _probe()
        t1 = time.monotonic()
        speed = REFERENCE_PROBE_S / (t1 - t0)
        self._base += (t0 - self._last) * (self._speed or speed)
        self._last = t1
        self._speed = speed
        self._gen += 1
        self.speeds.append(speed)
        self.probe_s += t1 - t0
        self._busy = False

    def now(self) -> float:
        # a probe may run between any two bytecodes; read again if it did
        while True:
            gen = self._gen
            base, last, speed = self._base, self._last, self._speed
            t = time.monotonic()
            if gen == self._gen:
                return base + (t - last) * speed

    def mean_speed(self) -> float:
        return sum(self.speeds) / len(self.speeds)

