"""Run ``ckrig.cli`` with the benchmark's tracer installed.

Usage: ``python bench/traced_cli.py SPANS_FILE <ckrig arguments>``.  The
output and exit code are those of ``python -m ckrig.cli``; the spans of the
call are written to SPANS_FILE.
"""

import sys

import ckrig.cli
from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    code = tracer.span("cli.main", ckrig.cli.main, sys.argv[2:])
    tracer.dump(sys.argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
