#!/usr/bin/env python3
"""Merge Chrome trace_event files into one, for viewing side by side.

Usage:

    python3 perfbench/merge_traces.py OUT.json IN.json [IN.json ...]

The library's simulated-cycle export (`tigr run --trace`, `tigr trace`)
draws on process 1; perfbench's host spans draw on process 2 ("host").
The merged file shows both tracks in one view of chrome://tracing or
https://ui.perfetto.dev. The two clocks differ: the simulated track's
time is modelled GPU time, the host track's time is wall time since the
benchmark started, so compare shapes and proportions, not positions.
"""

import json
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    events = []
    for path in argv[2:]:
        with open(path) as f:
            trace = json.load(f)
        events.extend(trace["traceEvents"] if isinstance(trace, dict) else trace)
    with open(argv[1], "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
