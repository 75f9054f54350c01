"""Fixed reference work that measures how fast this machine runs right now.

The benchmark runs this script as a child process between operations and
reads its CPU time.  Its work depends on nothing in the repository:
interpreter start, importing a fixed set of standard-library modules, then a
fixed loop of integer arithmetic and dictionary updates, the kinds of work
the package's CLI start-up and number theory do.  On a shared host the CPU
time of the same work drifts by a third or more between runs minutes apart;
timings divided by this script's CPU time from the same run drift much less.
"""

import argparse  # noqa: F401
import dataclasses  # noqa: F401
import decimal  # noqa: F401
import email.parser  # noqa: F401
import fractions  # noqa: F401
import json  # noqa: F401
import logging  # noqa: F401
import typing  # noqa: F401
import unittest  # noqa: F401
import xml.dom.minidom  # noqa: F401

LOOP = 40000


def loop(n: int) -> int:
    acc, seen, m = 0, {}, (1 << 61) - 1
    for i in range(2, n):
        r = (i * i + 12345678901) % 1000003
        acc ^= pow(i, 257, m)
        seen[r & 1023] = seen.get(r & 1023, 0) + 1
        if 987654321987 % i == 0:
            acc += i
    return acc + len(seen)


if __name__ == "__main__":
    print(loop(LOOP))
