"""Run one hypc CLI command with spans recorded; used by traced cli-chain rounds.

Usage: python cli_child.py SPANS_JSON -- <hypc arguments>
Needs hypc importable (src on PYTHONPATH). Writes the spans to SPANS_JSON
and exits with the command's status.
"""

import sys

from spans import Tracer

if __name__ == "__main__":
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: cli_child.py SPANS_JSON -- <hypc arguments>")
    import hypc.cli

    tracer = Tracer()
    tracer.install()
    with tracer.span("cli.main", argv[0]):
        status = hypc.cli.main(argv)
    tracer.dump(spans_path)
    sys.exit(status)
