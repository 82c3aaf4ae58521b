"""Run the troptoric CLI with span tracing and write the spans to a file.

    python3 bench/traced_cli.py SPANS_JSON sweep FAN --range=-4..4   (PYTHONPATH=src)
"""

import sys

from tracing import Tracer, install


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    import troptoric.cli as cli

    code = cli.main(argv)
    sys.stdout.flush()
    tracer.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
