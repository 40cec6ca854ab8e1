"""Time one set-up in a fresh interpreter: import soplan, then one
``load_source`` of every input file.  Prints the seconds taken.

Usage: python3 setup_probe.py SRC_DIR INPUT_DIR
"""

import sys
from pathlib import Path
from time import perf_counter

start = perf_counter()
sys.path.insert(0, sys.argv[1])
import soplan.cli  # noqa: E402

for path in sorted(Path(sys.argv[2]).glob("*.json")):
    soplan.cli.load_source(path)
print(perf_counter() - start)
