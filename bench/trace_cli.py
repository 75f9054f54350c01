"""Run one ``cyclokit`` CLI command with tracing and write its spans.

Usage: python bench/trace_cli.py SPANS_JSON OP_ID COMMAND [ARGS...]

Behaves like ``python -m cyclokit.cli COMMAND [ARGS...]``: same stdout,
stderr and exit code.  The whole command runs inside a ``cli.<command>``
span, so that span's self time is click parsing, JSON rendering and any
CLI code outside the traced library functions.
"""

import sys
import time


def main() -> None:
    spans_path, op_id, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    import cyclokit.cli as cli
    import_s = time.perf_counter() - start

    from tracer import Tracer, install

    tracer = Tracer()
    tracer.op = op_id
    install(tracer)
    command = tracer.wrap(f"cli.{args[0] if args else 'none'}", cli.main)
    code = 0
    try:
        command(args=args, prog_name="cyclokit")
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.dump(spans_path, import_s=import_s)
    sys.exit(code)


if __name__ == "__main__":
    main()
