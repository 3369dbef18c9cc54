"""Host-speed reference for the timed runs.

On a shared machine the speed of plain Python code drifts by up to 2x over
seconds to minutes, with CPU time equal to wall time, so neither a longer run
nor a best-of-N removes it.  The timed run therefore measures a fixed piece of
reference work next to every unit and reports each unit's wall time scaled by
`nominal / reference`: the time the unit would have taken on a host where the
reference takes its nominal time.  The reference uses only the standard
library, so a change to hyperalg cannot move it.

* `loop_s()`: one in-process loop of small-object arithmetic, dict updates and
  sorting, with the garbage collector off (so the program's heap cannot slow
  it).  Nominal `NOMINAL_LOOP_S`.  Used for units that run in this process.
* `child_s(env)`: spawn to exit of an interpreter that imports a few standard
  modules.  Nominal `NOMINAL_CHILD_S`.  Used for units and set-up probes that
  start an interpreter, whose cost the in-process loop does not track.  It
  keeps `site`: with `-S` it is three times cheaper but tracked the CLI
  children less well (tail spread 12% against 6% over five runs).
"""
from __future__ import annotations

import functools
import gc
import math
import subprocess
import sys
import time

NOMINAL_LOOP_S = 1.0e-3
NOMINAL_CHILD_S = 70.0e-3
CHILD_CODE = "import argparse, csv, decimal, fractions, json, random, statistics"
LOOP_N = 400


class _Polar:
    __slots__ = ("r", "t")

    def __init__(self, r: float, t: float):
        self.r = r
        self.t = t

    def add(self, o: "_Polar") -> "_Polar":
        x = self.r * math.cos(self.t) + o.r * math.cos(o.t)
        y = self.r * math.sin(self.t) + o.r * math.sin(o.t)
        return _Polar(math.hypot(x, y), math.atan2(y, x) % (2 * math.pi))


def _loop(n: int) -> int:
    counts: dict = {}
    acc = _Polar(1.0, 0.0)
    window: list = []
    for i in range(n):
        acc = acc.add(_Polar(1.0 + (i % 7) * 0.25, (i * 0.37) % 6.283))
        key = (i % 13, round(acc.r, 3))
        counts[key] = counts.get(key, 0) + 1
        window.append((acc.t, i))
        if len(window) > 16:
            window.sort()
            window = window[4:]
    return len(counts) + len(frozenset(k for k in counts if k[0] < 3))


def loop_s() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop(LOOP_N)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def child_s(env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", CHILD_CODE], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0


class Scaler:
    """Scales a wall time measured between two reference probes to the
    nominal host: `wall * nominal / mean(probe before, probe after)`."""

    def __init__(self, probe, nominal: float):
        self.probe = probe
        self.nominal = nominal
        self.last = probe()
        self.probes = [self.last]

    def scale(self, wall_s: float) -> float:
        now = self.probe()
        self.probes.append(now)
        ref = (self.last + now) / 2
        self.last = now
        return wall_s * self.nominal / ref


def loop_scaler() -> Scaler:
    return Scaler(loop_s, NOMINAL_LOOP_S)


def child_scaler(env: dict) -> Scaler:
    return Scaler(functools.partial(child_s, env), NOMINAL_CHILD_S)
