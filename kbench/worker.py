"""One cdlab sweep in a fresh interpreter.

    python3 worker.py SRC setup
    python3 worker.py SRC {plain|trace|memory} WORKLOAD REPORT

SRC is the directory that holds the cdlab package.  The first thing the
worker does is import cdlab, and the monotonic clock reading right after
that import is the end of set-up.  `setup` stops there.  The sweep modes
call `cdlab.cli.main` on the workload's command line: `plain` times it
untouched, `trace` records spans (see spans.py), `memory` records peak
allocations and no timing.  The last line of standard output is one JSON
object; the exit code is cdlab's.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import cdlab  # noqa: E402

READY = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _sweep(mode, workload, report):
    from cdlab import cli

    import spans
    from workloads import WORKLOADS

    argv = WORKLOADS[workload].argv(report)
    out = {}
    recorder = None
    if mode == "trace":
        recorder = spans.Tracer()
    elif mode == "memory":
        recorder = spans.PeakRecorder()
    restore = spans.install(recorder) if recorder is not None else None
    t0 = time.perf_counter()
    try:
        if mode == "trace":
            rc = recorder.call(spans.MAIN, cli.main, argv)
        else:
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        rc = 1
    finally:
        out["sweep_s"] = time.perf_counter() - t0
        if restore is not None:
            restore()
    if mode == "trace":
        out["spans"] = recorder.spans
        out["values"] = recorder.values
    elif mode == "memory":
        out["peaks"] = recorder.peaks
    return rc, out


def main():
    mode = sys.argv[2]
    src = os.path.realpath(sys.argv[1])
    result = {"ready": READY, "backend": cdlab.backend_name(),
              "cdlab": os.path.realpath(cdlab.__file__)}
    if not result["cdlab"].startswith(src + os.sep):
        print(f"cdlab imported from {result['cdlab']}, not from {src}", file=sys.stderr)
        return 2
    rc = 0
    if mode != "setup":
        rc, sweep = _sweep(mode, sys.argv[3], sys.argv[4])
        result.update(sweep)
    result["rc"] = rc
    result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
