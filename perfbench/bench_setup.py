"""One set-up sample: what a CLI call pays before it does any work.

    python3 -I -S perfbench/bench_setup.py

Reads the clock before anything but the interpreter's core has been
imported (-S skips the site module), then imports congsub.cli from src/
of the checkout that holds this directory and builds the self-verifying
Aut(F2) presentation.  Nothing is imported before the clock is read, so
the sample includes every standard-library module congsub loads.  Then
it times the reference loop of bench_speed.py twice, so that the caller
can scale the sample to the machine at rest.  Prints the seconds, the
mean reference time and the file congsub was imported from, as one JSON
object.
"""
from time import perf_counter

started = perf_counter()

import os  # noqa: E402  (argparse, which congsub.cli needs, imports it too)
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import congsub.autpres  # noqa: E402
import congsub.cli  # noqa: E402,F401

congsub.autpres.presentation()
setup_s = perf_counter() - started

import json  # noqa: E402

sys.path.insert(0, HERE)
import bench_speed  # noqa: E402

reference_s = (bench_speed.reference_s() + bench_speed.reference_s()) / 2
print(json.dumps({"setup_s": setup_s, "reference_s": reference_s, "congsub": congsub.__file__}))
