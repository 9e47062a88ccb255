"""The full-scan cover-chain battery, the test reference of
``verify._battery_cover_chain``: it visits every binary word up to the
length, where the battery visits only those with a proper cover."""

import itertools
import time

from fibquasi import engine, words
from fibquasi.verify import BatteryResult, _battery


def full_scan_cover_chain(max_len: int) -> BatteryResult:
    """For every binary word y and proper cover u of y: a factor z of y
    no longer than u covers y iff it covers u."""
    t0 = time.perf_counter()
    failures = []
    for length in range(1, max_len + 1):
        # product() varies the last letter fastest; reversing each word
        # gives the order of counting up in binary with y[i] as bit i.
        for letters in itertools.product("ab", repeat=length):
            y = "".join(letters)[::-1]
            cov_y = engine.covers_of(y)
            for u in cov_y:
                if u == y:
                    continue
                # z breaks the law iff it is in one cover set only
                differ = set(cov_y) ^ set(engine.covers_of(u))
                for z in words.canonical(differ):
                    if len(z) <= len(u) and z != u and z in y:
                        failures.append(f"y={y} u={u} z={z}")
    return _battery("cover_chain",
                    f"all binary words up to length {max_len}",
                    failures, t0)
