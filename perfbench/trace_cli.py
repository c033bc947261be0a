"""Run one `altrings` CLI command under the tracer (traced cli-cold jobs).

Usage: trace_cli.py SNAPSHOT ARGS...  Behaves like `python -m altrings
ARGS...` and also writes the spans, counters and import time to SNAPSHOT.
"""

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]


def main() -> int:
    snapshot, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    from altrings import cli
    import_s = perf_counter() - start

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.job = "cli"
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        tracer.counts["cli.import_time"] += import_s
        tracer.dump(snapshot)


if __name__ == "__main__":
    sys.exit(main())
