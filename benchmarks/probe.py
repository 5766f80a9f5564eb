"""Set-up time in a fresh interpreter: import fnhol, then parse each
document named in the JSON list at argv[1] and build its cell complex.
Prints {"import_s": ..., "setup_s": ...} measured from the first
statement after the clock import."""

import time

t0 = time.perf_counter()
import fnhol  # noqa: E402
import fnhol.cli  # noqa: E402
t1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

with open(sys.argv[1], encoding="utf-8") as f:
    for text in json.load(f):
        fnhol.build_complex(fnhol.cli.parse_document(text).spec)
print(json.dumps({"import_s": t1 - t0, "setup_s": time.perf_counter() - t0}))
