"""Runs one gaussmarkov CLI command with every layer traced.

    python3 perfbench/traced_cli.py --spans FILE --task ID -- <cli arguments>

Times ``import gaussmarkov.cli``, installs the tracer, runs the command and
writes its spans and counters to FILE.  Exits with the command's exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("--task", type=int, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    t0 = time.perf_counter()
    import gaussmarkov.cli as cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer

    tracer = Tracer()
    tracer.task = args.task
    tracer.install()
    code = cli.main(argv)
    tracer.count("cli.import.s", import_s)
    with open(args.spans, "w") as fh:
        json.dump({"spans": tracer.spans, "counters": dict(tracer.counters)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
