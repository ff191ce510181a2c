"""Child process for the set-up time: imports ftagg, runs one workload's
one-time set-up, prints "ready" and exits. Usage: setup_probe.py WORKLOAD"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (needs the path above)

WORKLOADS[sys.argv[1]].prepare()
print("ready", flush=True)
