"""Start ``repro serve`` with the benchmark's spans around its layers.

Usage (from the root of a checkout)::

    python3 perfbench/serve_launcher.py [--trace-out FILE] [--fault wrong-scorer] \\
        -- serve ARTIFACT --port 0

Wraps the serving layer's public functions — ``repro.serve.load_model``,
the ``json`` calls of ``repro.serve.service``, ``MicroBatchScoringService
.submit`` and ``BernoulliRBM.score_samples`` — then hands the remaining
arguments to ``repro.api.cli.main``.  When the server stops (SIGINT), the
spans are written to ``--trace-out``.  ``--fault wrong-scorer`` shifts every
score by 1e-6, so the benchmark's output check must fail.
"""

from __future__ import annotations

import argparse
import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))


def install(tracer, fault: str, record: bool) -> None:
    from spans import rows_of_first_arg

    import repro.serve as serve_pkg
    from repro.rbm.rbm import BernoulliRBM
    from repro.serve import service

    if fault == "wrong-scorer":
        score = BernoulliRBM.score_samples
        tracer.patch(BernoulliRBM, "score_samples", lambda self, v: score(self, v) + 1e-6)
    if record:
        tracer.wrap(serve_pkg, "load_model", "serve.load_model")
        codec = types.SimpleNamespace(loads=json.loads, dumps=json.dumps)
        tracer.patch(service, "json", codec)
        tracer.wrap(codec, "loads", "serve.parse")
        tracer.wrap(codec, "dumps", "serve.serialize")
        tracer.wrap(service.MicroBatchScoringService, "submit", "serve.submit")
        tracer.wrap(BernoulliRBM, "score_samples", "serve.score", rows_of_first_arg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro serve with benchmark spans")
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--fault", choices=("none", "wrong-scorer"), default="none")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from spans import Tracer

    from repro.api.cli import main as cli_main

    tracer = Tracer()
    install(tracer, args.fault, record=args.trace_out is not None)
    try:
        return cli_main(cli_args)
    finally:
        tracer.unwrap_all()
        if args.trace_out is not None:
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
