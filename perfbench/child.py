"""One timed CLI invocation, run in a fresh interpreter by ``run.py``.

    python3 perfbench/child.py RESULT_JSON TRACE(0|1) SUBCOMMAND CONFIG --out DIR --threads N

The subcommand function is wrapped where ``spindyn.cli.main`` looks it up,
so its entry and exit times bracket exactly the subcommand: everything
before entry (interpreter start, imports, argument parsing, config loading)
is set-up.  Times are ``time.perf_counter`` readings, which on Linux come
from the system-wide monotonic clock and so compare with the parent's.
With TRACE=1 the public functions of each layer are wrapped as well (see
``tracing.py``).  RESULT_JSON receives the times, the exit code, the peak
resident memory and, when traced, the spans.
"""

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv) -> int:
    result_path, trace, cli_argv = argv[0], argv[1] == "1", argv[2:]
    sys.path.insert(0, str(_SRC))
    from spindyn import cli

    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    sub = cli_argv[0]
    command = cli._COMMANDS[sub]
    stamps = {}

    def timed(*args, **kwargs):
        stamps["entry"] = time.perf_counter()
        try:
            with tracer.span("cli.cmd") if tracer else contextlib.nullcontext():
                return command(*args, **kwargs)
        finally:
            stamps["exit"] = time.perf_counter()

    cli._COMMANDS[sub] = timed
    code = cli.main(cli_argv)
    record = {"code": code,
              "entry": stamps.get("entry"),
              "exit": stamps.get("exit"),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        record["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
