"""Run ``momentgate`` with the benchmark's tracer installed.

    python3 perfbench/trace_cli.py SPANS_OUT estimate --input FILE

Times the import of ``momentgate.cli`` as the span ``cli.import``, patches
the traced names, calls ``momentgate.cli.main`` with the remaining arguments
and writes the spans and counts to SPANS_OUT as JSON.  Exits with the CLI's
exit code.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.enabled = True
    token = tracer.begin("cli.import")
    import momentgate.cli
    tracer.end(token)
    tracer.install()
    try:
        code = momentgate.cli.main(argv)
    finally:
        tracer.uninstall()
        Path(spans_out).write_text(json.dumps(
            {"spans": tracer.spans, "counts": dict(tracer.counts())}))
    return code


if __name__ == "__main__":
    sys.exit(main())
