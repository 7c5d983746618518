"""Run `-m MODULE ARGS...` or `-c CODE` under a speed Sampler.

    python3 bench/timed.py -m sievelab.cli typeii 0.52
    python3 bench/timed.py -c "import sievelab.cli"

The module is imported and its main(ARGS) is called, as a console script
would call it.  At exit one line
`bench-speed <stolen seconds> <reference seconds per wall second>` is
appended to standard error for the parent to parse.

With BENCH_TRACE_FILE, BENCH_TRACE_OP and BENCH_TRACE_PARENT set (traced
cli-session runs), the import runs under an "import" span, the tracing
wrappers are installed before main is called, and the spans are appended to
that file at exit.  Traced and untraced runs take the same code path.
"""

import atexit
import importlib
import os
import sys

import speed
import tracing


def main() -> None:
    mode, target, *rest = sys.argv[1:]
    sampler = speed.Sampler()
    trace_file = os.environ.get("BENCH_TRACE_FILE")
    tracer = None
    if trace_file:
        tracer = tracing.Tracer(op_id=int(os.environ["BENCH_TRACE_OP"]),
                                parent=int(os.environ["BENCH_TRACE_PARENT"]))

    def report() -> None:
        sampler.stop()
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(trace_file)
        sys.stderr.write(f"\n{speed.REPORT} {sampler.stolen!r} {sampler.speed()!r}\n")

    atexit.register(report)
    sampler.start()
    sys.path[0] = os.getcwd()
    if mode == "-c":
        sys.argv = ["-c", *rest]
        exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
        return
    sys.argv = [target, *rest]
    if tracer is not None:
        tracer.open("import", f"import {target}")
    module = importlib.import_module(target)
    if tracer is not None:
        tracer.close()
        tracer.install()
    sys.exit(module.main(rest))


if __name__ == "__main__":
    main()
