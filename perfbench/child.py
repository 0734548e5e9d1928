"""Run the ``dgq`` command line as ``python -m dgq.cli`` does, then write this
process's peak resident set size, in kB, to the file named by the
``PERFBENCH_HWM_FILE`` environment variable.

The peak is ``VmHWM`` of ``/proc/self/status``, which belongs to the memory
of this process alone.  A child's ``ru_maxrss`` as its parent sees it does
not: on Linux it starts from the parent's own peak, which the exec carries
over.
"""

import atexit
import os

from dgq import cli


def _write_hwm():
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(os.environ["PERFBENCH_HWM_FILE"], "w", encoding="ascii") as fh:
        fh.write(kb)


atexit.register(_write_hwm)
cli.main()
