"""Traced CLI process: ``python3 perfbench/cli_child.py <spans.json> <qmkit args...>``.

Runs ``qmkit.cli.main`` with the layer wrappers of tracing.py installed and
writes the spans and counts to ``<spans.json>`` for the parent to merge.
Exits with the command's own exit code.
"""

import sys
from pathlib import Path

import env

env.use_checkout_sources()
import qmkit.cli  # noqa: E402  (needs the checkout's sources on the path)
from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.begin_job(0)
try:
    code = qmkit.cli.main(sys.argv[2:])
finally:
    tracer.end_job()
    tracer.dump(Path(sys.argv[1]))
sys.exit(code)
