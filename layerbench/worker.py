"""A dispatch worker that counts its queue filesystem operations.

The traced dispatch pass of ``sweep-workers`` spawns this instead of
``python -m repro.cli bench --worker`` (through the public
``DispatchCoordinator(spawn_command=...)`` hook).  It runs the same
``run_worker`` with the same retry budget, then writes its FsOps call
count as JSON for the repetition to add to the coordinator's own::

    python3 layerbench/worker.py QUEUE_DIR WORKER_ID COUNTS_JSON
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    queue_dir, worker_id, counts_path = argv
    from repro.runner import run_worker

    from probes import FsOpsCounter

    counter = FsOpsCounter()
    code = run_worker(queue_dir, worker_id, max_retries=2)
    counter.uninstall()
    Path(counts_path).write_text(json.dumps({"fs_ops": counter.value}),
                                 encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
