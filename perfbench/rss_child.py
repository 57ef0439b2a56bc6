"""Memory probe: run in a fresh interpreter, it makes one pass of a workload
through ``ringtrap.cli.main`` and prints the process's peak resident memory
in MB. The benchmark's own work (calibration arrays, hashing) never runs in
this process, so the peak is the workload's. Exit codes are not checked
here; the benchmark's own passes check every invocation.

Usage: python3 perfbench/rss_child.py <workload> <seed> <scratch dir>
"""

import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import ringtrap.cli  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    name, seed, scratch = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    for inv in workloads.build(name, seed, scratch / "configs"):
        ringtrap.cli.main(inv.argv(scratch / inv.label))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
