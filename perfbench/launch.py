"""Run the figure CLI the way its console script does, with time stamps.

    python3 perfbench/launch.py STAMP_PATH ARGV...

Imports ``repro.experiments.runner``, calls ``main(ARGV)`` and exits
with its code, exactly like the ``repro-experiments`` entry point.  It
also writes to STAMP_PATH the ``time.perf_counter()`` readings taken
when the import finished and when ``main`` returned; on Linux that
clock is shared by all processes, so the parent can subtract its own
launch reading to get set-up time.
"""

import json
import sys
import time


def _main() -> None:
    stamp_path, argv = sys.argv[1], sys.argv[2:]
    from repro.experiments.runner import main

    imported = time.perf_counter()
    try:
        code = main(argv)
    finally:
        with open(stamp_path, "w") as handle:
            json.dump({"imported": imported, "done": time.perf_counter()}, handle)
    sys.exit(code)


if __name__ == "__main__":
    _main()
