"""Run one `capstar` command with spans around its layers.

    python3 perfbench/cli_shim.py SPANS_OUT.json <capstar arguments...>

Behaves as `python -m capstar <arguments>` (same output, same exit
code) and writes the self time of each traced layer to SPANS_OUT.json.
The traced runs of the cli workload start their commands through it.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import capstar.cli  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer:
        code = capstar.cli.main(argv)
    sys.stdout.flush()
    with open(out, "w") as fh:
        json.dump(dict(tracer.self_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
