"""One spinsense CLI invocation, traced; stands in for ``python -m spinsense``.

The traced cli_pipeline run starts this script instead of the module, with
the same arguments and stdin, so stdout and the exit code are the CLI's own.
It records spans around ``import spinsense``, around ``cli.main`` and around
every public library call the CLI makes, and writes them as JSON lines to
the file named by ``PERFBENCH_SPANS``.

    PERFBENCH_SPANS=spans.jsonl PYTHONPATH=src python perfbench/clichild.py qfi --state noon --twice-j 10
"""

import os
import sys

import spans


def main() -> int:
    rec = spans.Recorder(op="child")
    with rec.span("import spinsense", "import"):
        from spinsense import cli
    with spans.instrument(rec):
        rc = cli.main(sys.argv[1:])
    sys.stdout.flush()
    spans.write_jsonl(rec.spans, os.environ["PERFBENCH_SPANS"])
    return rc


if __name__ == "__main__":
    sys.exit(main())
