"""One timed set-up of a workload, in a fresh process.

    python3 perfbench/probe.py <workload> <work directory>

Reads the workload's plan from plan.json in the work directory, then times
importing latmodal and writing the workload's input files there, and
prints the seconds taken.
"""

import json
import sys
import time
from pathlib import Path

from workloads import SRC, WORKLOADS


def main() -> None:
    name, work = sys.argv[1], Path(sys.argv[2])
    plan = json.loads((work / "plan.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    build = WORKLOADS[name][1]
    t0 = time.perf_counter()
    build(plan, work)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
