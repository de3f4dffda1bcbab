"""One ``qmb`` command-line invocation under the tracer.

Usage: ``cli_shim.py PREFIX CALL_ID ARGV...``.  Imports ``qmb.cli`` (timing
the import), installs the tracer, calls ``qmb.cli.main(ARGV)`` and writes the
trace record to ``PREFIX.json`` and the spans to ``PREFIX.spans.json.gz``.
The exit code is that of ``main``.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    prefix, call_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    from qmb import cli

    import_ms = (time.perf_counter() - t0) * 1e3
    import tracer as tr

    tracer = tr.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        return tracer.call(call_id, cli.main, argv)
    finally:
        main_ms = (time.perf_counter() - t0) * 1e3
        tracer.uninstall()
        sys.stdout.flush()
        rec = tracer.record()
        rec.update(caches=tr.cache_state(), import_ms=import_ms, main_ms=main_ms)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(rec, fh)
        tracer.dump(prefix + ".spans.json.gz")


if __name__ == "__main__":
    sys.exit(main())
