"""Run ``repro serve`` for the serve_zipf workload.

Usage (same arguments as ``python -m repro serve``)::

    PYTHONPATH=src python3 perfbench/serve_host.py serve --socket S ...

Every process of the server tree -- the server, and each pool worker,
which the ``spawn`` start method starts by re-importing this file as
``__mp_main__`` -- writes its peak RSS at exit to
``$PERFBENCH_OUT/rss-<pid>.json``.  With ``PERFBENCH_TRACE_DIR`` set,
each also installs the benchmark tracer and writes its spans to that
directory at exit.
"""

from __future__ import annotations

import atexit
import json
import os
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as perfbench_tracer  # noqa: E402


def _instrument(role: str) -> None:
    out_dir = Path(os.environ.get("PERFBENCH_OUT", "."))
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    tr = perfbench_tracer.Tracer(role).install() if trace_dir else None

    def at_exit() -> None:
        pid = os.getpid()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        (out_dir / f"rss-{pid}.json").write_text(
            json.dumps({"role": role, "maxrss_kb": rss}))
        if tr is not None:
            tr.dump(Path(trace_dir) / f"spans-{role}-{pid}.json")
    atexit.register(at_exit)


if __name__ == "__main__":
    _instrument("server")
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
elif __name__ == "__mp_main__":
    _instrument("worker")
