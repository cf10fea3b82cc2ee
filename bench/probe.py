"""One cold set-up: a fresh process imports hyperbulk and runs CLI commands.

Usage: python3 probe.py SRC_DIR THREADS ARGV_JSON
ARGV_JSON is a JSON list of CLI argument lists, run in order.  The exit
code is the first non-zero CLI exit code, or 0.
"""

import json
import sys

from environment import pin_threads


def main() -> int:
    src, threads, argvs = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
    pin_threads(threads)
    sys.path.insert(0, src)
    from hyperbulk import cli, geometry, junction, operators, quotient, spectral  # noqa: F401

    for argv in argvs:
        code = cli.main(argv)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
