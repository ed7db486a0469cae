"""Set-up probe: in a fresh interpreter, import tschirn (and tschirn.cli for
`classify`), run the workload's warm-up ops, then print "ready".

run.py starts this several times and times each start until "ready".
Usage: python3 perfbench/probe.py <workload>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the path above)

workloads.warm_up(workloads.WORKLOADS[sys.argv[1]]())
print("ready", flush=True)
