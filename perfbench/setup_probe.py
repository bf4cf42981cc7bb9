"""One fresh-interpreter set-up: import gtmarl, build a workload's command
batch, print "ready" and exit. `run.py` times it from spawn to that line.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.env import import_gtmarl  # noqa: E402


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    import_gtmarl()
    import gtmarl.cli  # noqa: F401  (the import a command pays for)

    from perfbench.workloads import generate

    generate(workload, seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
