"""Run one hdyson CLI command with the span tracer installed.

usage: python3 perfbench/clitrace.py SPAN_FILE LABEL CLI_ARGS...

The whole command runs inside a `cli.main` span tagged with LABEL; the
spans are written to SPAN_FILE as JSON when the command returns.  The exit
code is the CLI's own.
"""

import sys

import tracer as tracing


def main() -> int:
    span_file, label, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from hdyson import cli

    tracer = tracing.Tracer(label)
    tracing.install(tracer)
    index = tracer.begin("cli.main", {"command": label})
    try:
        return cli.main(argv)
    finally:
        tracer.end(index)
        tracer.write(span_file)


if __name__ == "__main__":
    sys.exit(main())
