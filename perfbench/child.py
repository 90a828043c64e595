"""Fresh-process probe for set-up time and peak memory.

    python3 perfbench/child.py CONFIG [WORKLOAD DURATION OUT_DIR]

Run from the repository root.  Times ``import liftquad`` plus parsing
and building CONFIG in a new interpreter, then the host-speed probe
(see ``calibrate.py``); with WORKLOAD it then runs one
invocation of that workload (its commands at DURATION seconds) and
reports the process's peak resident memory.  Prints one JSON object.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv):
    sys.path.insert(0, str(Path.cwd() / "src"))
    start = time.perf_counter()
    import liftquad.cli
    from liftquad.config import load_config
    load_config(argv[0])
    result = {"setup_s": time.perf_counter() - start}
    from calibrate import probe
    result["probe_s"] = probe()     # host speed, in this process, right after
    if len(argv) == 4:
        from dataclasses import replace
        from invoke import invoke
        from workloads import WORKLOADS
        workload = replace(WORKLOADS[argv[1]], duration=float(argv[2]))
        _, codes, _, _ = invoke(liftquad.cli, workload, argv[0], argv[3])
        result["codes"] = codes
        result["peak_rss_mb"] = _peak_rss_kb() / 1024.0
    print(json.dumps(result))


def _peak_rss_kb():
    # VmHWM belongs to this program image; ru_maxrss would also count the
    # parent's pages, because Linux carries it across fork and exec
    try:
        with open("/proc/self/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


if __name__ == "__main__":
    main(sys.argv[1:])
