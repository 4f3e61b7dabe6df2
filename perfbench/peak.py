"""Run one leveldiv command line in this fresh interpreter and write to a file
how much resident memory, in KiB, the command added at its peak:

    python3 perfbench/peak.py RECORD_FILE CLI_ARGS...

That is VmHWM when the command has returned minus VmRSS once leveldiv.cli is
imported, both from /proc/self/status. The difference leaves out the
interpreter and the imports, which are the same for every command, and it is
steady to a few KiB from run to run. A child's ru_maxrss would not do: on
Linux, exec carries the spawning process's peak into it.
"""

import re
import sys
from pathlib import Path

import leveldiv.cli


def status_kib(field: str) -> int:
    status = Path("/proc/self/status").read_text(encoding="ascii")
    return int(re.search(rf"^{field}:\s+(\d+) kB$", status, re.M).group(1))


loaded = status_kib("VmRSS")
code = leveldiv.cli.dispatch(sys.argv[2:])
Path(sys.argv[1]).write_text(str(status_kib("VmHWM") - loaded), encoding="ascii")
sys.exit(code)
