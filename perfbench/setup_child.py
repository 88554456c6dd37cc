"""Fresh-process set-up timing.

Usage: python3 setup_child.py SRC_DIR < request.json

Reads a set-up request (workload kind, parameters, warm-up text) from
standard input, then times `import gradmorph` plus building the workload's
initial state, and prints the seconds taken. Nothing from gradmorph is
imported before the clock starts.
"""

import json
import sys
import time


def main() -> None:
    request = json.loads(sys.stdin.read())
    sys.path.insert(0, sys.argv[1])
    start = time.perf_counter()
    import gradmorph  # noqa: F401  (the import is part of set-up)
    import bench_state
    bench_state.setup(request)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
