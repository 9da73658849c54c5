"""Traced child process of the command-line sweep.

    python3 bench/cli_child.py TRACE_FILE NVAW_ARGS...

Times `import nvaw.cli`, wraps nvaw's public functions (tracer.py), runs
`nvaw.cli.main(NVAW_ARGS)` and writes the span aggregates, the import time
and its own elapsed time to TRACE_FILE.  Exits with main's status.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import nvaw.cli
    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        code = nvaw.cli.main(argv)
    tracer.dump(trace_path, {"import_s": import_s,
                             "elapsed_s": time.perf_counter() - START})
    return code


if __name__ == "__main__":
    sys.exit(main())
