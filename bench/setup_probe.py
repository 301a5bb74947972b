"""Set-up time of a fresh CLI process: import decoshield, parse the configs.

Usage: python3 bench/setup_probe.py SRC_DIR CONFIG [CONFIG ...]
Prints the seconds from before the first import to after the last parse,
then the mean loop tick (see pace.py) over windows just before and after.
"""

import sys
import time

import pace

WINDOW = 100

ticks = [pace.loop_tick() for _ in range(WINDOW)]
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import decoshield.cli  # noqa: E402,F401  (what `decoshield VERB` imports)
from decoshield.experiments import ExperimentConfig  # noqa: E402

for path in sys.argv[2:]:
    ExperimentConfig.from_file(path)
elapsed = time.perf_counter() - start
ticks += [pace.loop_tick() for _ in range(WINDOW)]
print(repr(elapsed), repr(sum(ticks) / len(ticks)))
