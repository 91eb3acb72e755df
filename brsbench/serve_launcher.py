"""Start ``repro-brs serve`` for the serve-explore workload.

Usage::

    python3 brsbench/serve_launcher.py [--trace-out PATH --warmup-routes N] -- SERVE_ARGS...

Without ``--trace-out`` this is exactly ``repro-brs serve SERVE_ARGS``.
With it, the tracing wrappers are installed first, the first ``N`` query
requests are counted as the harness's warm-up, and the recorder is written
to ``PATH`` when the server shuts down (SIGTERM).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import threading
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from brsbench import common  # noqa: E402


def _exit_with_parent() -> None:
    """Stop this server if the benchmark process that started it dies
    without stopping it (for example when killed by a timeout)."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, name="brsbench-parent-watch", daemon=True).start()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description="benchmark server launcher")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--warmup-routes", type=int, default=0)
    args = parser.parse_args(argv[:split])
    serve_args = argv[split + 1:]
    common.ensure_src_on_path()
    _exit_with_parent()

    from repro import cli

    if args.trace_out is None:
        return cli.main(["serve", *serve_args])

    from brsbench import tracing

    tracing.import_program()
    rec = tracing.Recorder()
    rec.warmup_routes = args.warmup_routes
    installed = tracing.install(rec)
    try:
        return cli.main(["serve", *serve_args])
    finally:
        installed.undo()
        tracing.dump(rec, args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
