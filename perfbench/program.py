"""Child entry point: one workload's program side in a fresh interpreter.

Usage: ``python3 perfbench/program.py SPEC.json``.  The harness writes
the spec (workload module and entry, seeded inputs or where to find
them) and reads the result back from ``spec["result_path"]``.  Only the
stdlib is imported before the workload function runs, so the program's
own import time lands inside the set-up clock.
"""

import importlib
import json
import sys


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    workload = importlib.import_module(spec["module"])
    result = getattr(workload, spec["entry"])(spec)
    with open(spec["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
