"""Run the spcalab CLI in a fresh interpreter and note when it was ready.

Usage: python3 perfbench/launch.py READY_FILE [spcalab arguments...]

Once ``spcalab.cli`` is imported this writes ``time.monotonic()`` and the
imported module's path to READY_FILE, then runs the CLI with the remaining
arguments, appends the peak resident set in KiB, and exits with the CLI's
code, as the ``spcalab`` console script does.  With no CLI arguments it exits
right after the import, which measures set-up alone.  CLOCK_MONOTONIC is
shared by every process on Linux, so the parent can subtract its own launch
time from the value written here.

The peak is taken here, not from the parent's ``wait4``: Linux carries the
high-water mark of the memory image an ``exec`` replaces into the new
program's ``ru_maxrss``, so a large parent would inflate it.  VmHWM covers
this process alone, and RUSAGE_CHILDREN the pool workers it has reaped.
"""

import sys
import time

import spcalab.cli

ready = time.monotonic()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write(f"{ready!r}\n{spcalab.cli.__file__}\n")
if len(sys.argv) > 2:
    code = spcalab.cli.main(sys.argv[2:])

    import resource

    with open("/proc/self/status", encoding="utf-8") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(sys.argv[1], "a", encoding="utf-8") as fh:
        fh.write(f"{max(own, workers)}\n")
    sys.exit(code)
