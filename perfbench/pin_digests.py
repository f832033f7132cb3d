#!/usr/bin/env python3
"""Record the output digest of every workload for a range of seeds.

    python3 perfbench/pin_digests.py

writes ``perfbench/digests.json`` for seeds 0 .. SEEDS-1, which
:mod:`run` compares every pass against.  The library's outputs are
fixed by its golden files, so the digests change only when a
workload's inputs change; pin them again then, from a commit whose
outputs are known to be right.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS, OpLog  # noqa: E402

SEEDS = 64


def main():
    lib, _ = run.load_library()
    pinned = {name: {} for name in WORKLOADS}
    for seed in range(SEEDS):
        for name, cls in WORKLOADS.items():
            ops = OpLog()
            digest = cls(lib, seed).run_pass(ops)
            if ops.failed:
                sys.exit("seed %d: %s failed %d ops; nothing written"
                         % (seed, name, len(ops.failed)))
            pinned[name][str(seed)] = digest
        print("seed %d pinned" % seed, flush=True)
    with open(os.path.join(HERE, "digests.json"), "w",
              encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
