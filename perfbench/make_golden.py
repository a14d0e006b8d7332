"""Regenerate golden/catalog.json from the program in this checkout.

    python3 perfbench/make_golden.py

Run only when a change to the documents is intended; the benchmark then
compares the fixed catalog documents with the new file byte for byte.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.import_program(run.locate_checkout())
    golden = {}
    for label, argv, check in workloads.golden_requests():
        code, out = workloads.run_cli(argv)
        reason = f"exit code {code}" if code != 0 else check(out)
        if reason:
            print(f"error: {label}: {reason}", file=sys.stderr)
            return 1
        golden[label] = out
    workloads.GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden)} documents to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
