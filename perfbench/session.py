"""One trig_queries library session, run as its own process by run.py.

    python3 perfbench/session.py CONFIG SEED SECONDS AT_LEAST

It imports fiberspec and runs `querymix.session`: load the config,
decompose once, then the seeded query mix for SECONDS of query time and at
least AT_LEAST queries.  The last stdout line is that function's result as
JSON.
"""

import json
import sys

import fiberspec as fs
import querymix

if __name__ == "__main__":
    config, seed, seconds, at_least = sys.argv[1:5]
    print(json.dumps(querymix.session(fs, config, int(seed), float(seconds), int(at_least))))
