"""Layer-separated benchmark of the RBM / Ising-machine reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bgf-stream --seed 1 --seconds 20 --trace 0

Workloads (see README.md for the metric map):

* ``bgf-stream`` — :class:`BGFTrainer` at the ci shape (49x32) and the
  paper shape (784x200), then held-out reconstruction.
* ``gs-ais`` — PCD-64 :class:`GibbsSamplerTrainer` at 784x500, then
  AIS at 64 chains x 500 betas, then held-out reconstruction.
* ``serve-open`` — ``python -m repro serve`` under an open-loop Poisson
  load at 100 and 600 requests/s.

Every workload has two legs, ``a`` and ``b`` (the two shapes, GS training
and AIS, the two request rates), and prints the same end-to-end metrics
(the ``end_to_end`` list of ``BENCHMARK.json``).  ``--trace 0`` prints
them; ``--trace 1`` wraps the program's public functions, prints every
``per_layer`` metric (0 for a layer the workload does not run) and writes
the spans to ``.perfbench_out/``.  Whatever else a run measures goes to
``meta.diagnostics``.  The last line of standard output is the result
object; the line before it holds the run's metadata.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

WORKLOADS = ("bgf-stream", "gs-ais", "serve-open")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: seconds-long smoke sizes for the benchmark's own tests",
    )
    parser.add_argument(
        "--fault", choices=("none", "wrong-scorer"), default="none",
        help="serve-open only: perturb the server's scores (the check must fail)",
    )
    return parser.parse_args(argv)


def layer_self_times(tracer) -> dict:
    """Self time per layer (span-name prefix); the ``bench`` root's self
    time is ``unaccounted_ms``, and the layers plus it sum to ``wall_ms``."""
    per_layer: dict = {}
    for name, ns in tracer.self_ns().items():
        layer = "unaccounted" if name == "bench" else name.split(".")[0]
        per_layer[layer] = per_layer.get(layer, 0) + ns
    roots = [end - start for name, start, end, _ in tracer.spans if name == "bench"]
    metrics = {
        f"self_ms.{layer}": (ns / 1e6, "ms")
        for layer, ns in sorted(per_layer.items())
        if layer != "unaccounted"
    }
    metrics["unaccounted_ms"] = (per_layer.get("unaccounted", 0) / 1e6, "ms")
    metrics["wall_ms"] = (sum(roots) / 1e6, "ms")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    # Import the program before anything is printed: without it the run
    # fails here, with no result line.
    import common
    from spans import Tracer, overhead_ns_per_span

    tracer = Tracer() if args.trace else None
    if args.workload == "serve-open":
        import serving

        metrics, layer, checks, info, meta = serving.run_serve_open(
            args.seed, args.seconds, args.size, tracer, fault=args.fault
        )
    else:
        import training

        if args.workload == "bgf-stream":
            run, why = training.run_bgf_stream, training.BGF_WHY
        else:
            run, why = training.run_gs_ais, training.GS_WHY
        metrics, layer, checks, info = run(args.seed, args.seconds, args.size, tracer)
        meta = common.host_meta(args.workload, why, training.COMPUTE)
    meta.update(info, seed=args.seed, seconds=args.seconds, size=args.size)
    metrics["ok_frac"] = (1.0 - checks.failed / max(checks.attempted, 1), "ratio")

    declared = common.declared_metrics()
    end_to_end = {name: metrics.pop(name) for name in declared["end_to_end"]}
    if tracer is not None:
        layer.update(layer_self_times(tracer))
        per_span = overhead_ns_per_span()
        layer["trace.spans"] = (len(tracer.spans), "count")
        layer["trace.overhead_ms_est"] = (len(tracer.spans) * per_span / 1e6, "ms")
        layer.update(metrics)
        # A layer the workload does not run did no work: 0.
        printed = {
            name: layer.pop(name, (0.0, unit)) for name, unit in declared["per_layer"].items()
        }
        path = common.OUT_DIR / f"trace-{args.workload}-seed{args.seed}-{time.time_ns()}.json.gz"
        # The traced run's own end-to-end figures go to the trace file: set
        # against an untraced run of the same seed they give the overhead.
        tracer.dump(
            path,
            meta=meta,
            layer={k: v[0] for k, v in printed.items()},
            end_to_end={k: v[0] for k, v in end_to_end.items()},
        )
        meta["trace_file"] = str(path.relative_to(common.ROOT))
    else:
        printed = end_to_end
        layer.update(metrics)
    meta["diagnostics"] = {name: value for name, (value, _) in layer.items()}
    common.emit(meta, checks, printed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
