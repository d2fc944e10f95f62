"""Run one caslab command with the layer tracer installed.

    python traced_child.py SPANS_OUT COMMAND [caslab flags...]

Writes the recorded spans as JSON to SPANS_OUT and exits with the
command's exit status.
"""

import sys

from caslab import harness
from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = harness.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1])
    sys.exit(code)
