"""Run the hermlat CLI with span tracing and write the spans as JSON.

usage: python3 bench/traced_cli.py SPANS_OUT HERMLAT_ARGS...

The library layers are wrapped by `spans.Tracer.install`.  Each
`verify-paper` claim runner also becomes a span `cli.claim.<claim_id>`, so
claim times have full clock precision and library spans nest under their
claim.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys

import hermlat.cli as cli
from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    claim_list = cli._claim_list

    def traced_claim_list(*args, **kwargs):
        return [
            (cid, where, expected, None if run is None else tracer.wrap(f"cli.claim.{cid}", run))
            for cid, where, expected, run in claim_list(*args, **kwargs)
        ]

    cli._claim_list = traced_claim_list
    try:
        return cli.main(argv)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
