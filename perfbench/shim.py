"""Traced melgauge CLI: python3 perfbench/shim.py TRACE_JSON ARG...

Wraps melgauge's public functions (see tracer.WRAPPED), runs
melgauge.cli.main(ARG...) under a "cli.main" root span, writes the spans
to TRACE_JSON and exits with main's return code.
"""

import sys

from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import melgauge.cli

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.run_root("cli.main", melgauge.cli.main, argv)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    raise SystemExit(main())
