"""Re-pin the default-seed result digests in ``digests.json``.

    python3 -m hopbench.pin        # from the repository root

Runs one set of every pinned workload, at both sizes, at the default seed
and records each point's digest under the current Python minor and numpy
version.  Only re-pin after a deliberate change to simulated results.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    """Run the pinned workloads and rewrite ``digests.json``."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(HERE.parent / "src"))
    from hopbench import checks
    from hopbench.child import env_info
    from hopbench.workloads import WORKLOADS, Context

    env_key = checks.pin_key(env_info())
    pins = checks.load_pins()
    with tempfile.TemporaryDirectory(dir=HERE.parent) as workdir:
        for name, workload in WORKLOADS.items():
            if not workload.pinned:
                continue
            for size in ("full", "small"):
                res = workload.run_set(workload.points(checks.DEFAULT_SEED, size),
                                       Context(workdir=workdir))
                if any(s is None or s["violations"] for s in res["summaries"]):
                    print(f"{name}/{size}: a point failed; nothing pinned", file=sys.stderr)
                    return 1
                digests = [s["digest"] for s in res["summaries"]]
                pins.setdefault(name, {}).setdefault(size, {})[env_key] = digests
                print(f"{name}/{size}: {digests}")
    checks.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
