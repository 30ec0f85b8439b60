"""Worker process for one in-process or traced benchmark run.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the keyword arguments of ``workloads.run_in_process``; the result
is written to RESULT as JSON.  Running the work in its own process lets the
orchestrator read the worker's peak RSS from wait4.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import harness

harness.use_checkout_sources()

import workloads  # noqa: E402  (needs the checkout's src/ on the path)


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    result = workloads.run_in_process(**spec)
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
