"""Traced cold start of one torusiso command, run by the cli-cold traced run.

Usage: python -X importtime perfbench/coldchild.py SUMMARY_JSON COMMAND ARG...

Times the import of ``torusiso.cli`` (found through PYTHONPATH), then runs
the command under the span tracer and writes the tracer's summary, with the
import and script times, to SUMMARY_JSON. The exit code is the command's.
"""

import time

SCRIPT_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import torusiso.cli

    import_s = time.perf_counter() - start
    import tracing  # after the timed import: the tracer is not part of the program

    tracer = tracing.Tracer().install()
    with tracer.section():
        code = torusiso.cli.main(argv)
    sys.stdout.flush()
    summary = tracer.summary()
    summary["import_s"] = import_s
    summary["script_s"] = time.perf_counter() - SCRIPT_START
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
