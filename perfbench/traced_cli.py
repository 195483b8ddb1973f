"""`latmodal` with the tracer installed, for the traced run of the
command-line workload.

Takes the arguments of the `latmodal` command.  The environment gives
PERFBENCH_TRACE_OUT, the file the spans are written to when the command
ends, and PERFBENCH_SPAWN_TIME, the wall-clock time at which the parent
started this process; the time from then until the command line has been
parsed is written along as `startup_s`.
"""

import argparse
import json
import os
import sys
import time

from tracing import Tracer


def main() -> int:
    spawned = float(os.environ["PERFBENCH_SPAWN_TIME"])
    parsed = []
    parse_args = argparse.ArgumentParser.parse_args

    def timed_parse(self, *args, **kwargs):
        result = parse_args(self, *args, **kwargs)
        parsed.append(time.time())
        return result

    argparse.ArgumentParser.parse_args = timed_parse
    import latmodal.cli

    tracer = Tracer()
    tracer.install()
    try:
        return latmodal.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        trace = tracer.to_dict()
        trace["startup_s"] = parsed[0] - spawned if parsed else 0.0
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(trace, fh)


if __name__ == "__main__":
    sys.exit(main())
