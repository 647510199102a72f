"""Set-up probe: import ``claw`` and parse config files in a fresh interpreter.

    python3 benchmarks/bench_setup.py CFG...

prints the seconds from before the import to after the last parse.  This is
the start-up cost every ``claw run`` from the command line pays.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import claw.cli  # noqa: F401  (what the command line imports)
    from claw.config import parse_config

    for path in sys.argv[1:]:
        with open(path, encoding="utf-8") as fh:
            parse_config(fh.read())
    print(repr(time.perf_counter() - t0))
