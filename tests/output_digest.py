"""One sha256 per benchmark workload over the outputs of its calls.

Runs every call of the three workloads of ``perfbench/workloads.py`` at
seeds 1-3, in one process, and prints one line per workload: its name and
the sha256 of each call's label and the repr of its output, in call
order.  Two checkouts whose lines are equal give the same outputs on
every such call.  The script reads the workload definitions and changes
nothing under ``perfbench/``.

This includes the enumerate anchors (N=48, 96 and 120, the calls built
with ``repeat=False``), which print the largest ``enumerate`` documents
of the workloads.

Run from anywhere, with the checkout's sources on the path it sets::

    python tests/output_digest.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def digests() -> dict:
    """Workload name -> hex sha256 of the outputs of all its calls, the
    enumerate anchors included."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    out = {}
    for name in workloads.WORKLOADS:
        digest = hashlib.sha256()
        for seed in SEEDS:
            for call in workloads.build(name, seed):
                digest.update(f"{call.label}\n{call.run()!r}\n".encode())
        out[name] = digest.hexdigest()
    return out


if __name__ == "__main__":
    for name, value in digests().items():
        print(name, value)
