"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Builds the workload's inputs from ``--seed``, measures for ``--seconds``
seconds, checks the outputs, and prints one line per metric, a descriptor
line, and as its last line a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs a fixed amount of work with spans
recorded at every layer boundary, reports the per-layer metrics and writes
the spans to ``.perfbench_out/``.  Exits 1 when a check fails and 2 when
the library sources are missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import sys

# A run must leave the checkout as it found it, tracked bytecode included.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("serve", "serve-faults", "churn", "precompute")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "ops_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "recall_at_10": "fraction",
    "ok_frac": "fraction",
    "fresh_frac": "fraction",
    "write_us_p90": "us",
    "diffuse_s": "s",
    "overlap_at_100": "fraction",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("ns_per_candidate"):
        return "ns"
    if name.endswith("bytes") or name.endswith("bytes_per_sweep"):
        return "bytes"
    return "count"


PER_LAYER = (
    "forward.select_s", "forward.calls", "forward.candidates",
    "forward.ns_per_candidate",
    "walk.batch_s", "walk.batch_calls", "walk.scalar_s", "walk.scalar_calls",
    "walk.hops", "walk.self_s",
    "retrieval.top_k_s", "retrieval.top_k_calls", "retrieval.docs_scored",
    "serving.self_s", "serving.batches", "serving.batch_size_mean",
    "serving.rejected", "serving.degraded",
    "faults.retries", "faults.reroutes", "faults.walkers_lost",
    "breaker.observe_s", "breaker.open_peers",
    "facade.write_s", "facade.writes", "facade.dirty_nodes_per_refresh",
    "facade.diffuse_self_s",
    "refresh.incremental_count", "refresh.incremental_s", "refresh.full_count",
    "refresh.full_s", "refresh.deferred", "refresh.edge_ops", "refresh.sweeps",
    "churn.decisions.defer", "churn.decisions.incremental",
    "churn.decisions.full", "churn.decide_s", "churn.slo_violations",
    "diffusion.personalization_s", "diffusion.operator_s", "diffusion.apply_s",
    "diffusion.sweeps", "diffusion.cache_nnz", "diffusion.cache_bytes",
    "diffusion.bytes_per_sweep", "diffusion.alt.power_s",
    "diffusion.alt.sharded_s",
    "trace.overhead_frac", "trace.spans",
)
PER_LAYER_UNITS = {name: _layer_unit(name) for name in PER_LAYER}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--size", default="full", choices=("full", "toy"),
        help="input size; 'toy' is for the benchmark's self-test",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    """Run the workload; returns (final result object, descriptors)."""
    import numpy
    import scipy

    import spans
    import workloads
    from repro.kernels import kernel_info

    shape = workloads.SHAPES[args.size][args.workload]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.trace:
            tracer = spans.Tracer()
            if args.workload == "precompute":
                result = workloads.trace_precompute(shape, args.seed, tracer)
                # No walks run: the query-path layers read 0.
                result.metrics = {
                    **{name: 0.0 for name in PER_LAYER
                       if not name.startswith(("diffusion.", "trace."))},
                    **result.metrics,
                }
            else:
                result = workloads.trace_query_workload(
                    args.workload, shape, args.seed, tracer
                )
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans_path)
            result.descriptors["spans_file"] = str(spans_path.relative_to(ROOT))
            units = PER_LAYER_UNITS
        else:
            if args.workload == "precompute":
                result = workloads.run_precompute(shape, args.seed, args.seconds)
            else:
                result = workloads.run_query_workload(
                    args.workload, shape, args.seed, args.seconds
                )
            units = END_TO_END_UNITS
    if not args.trace:
        result.metrics["ok_frac"] = (
            (result.attempted - result.failed) / max(result.attempted, 1)
        )
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        result.metrics["peak_mem_mb"] = peak * 1024 / 1e6
    warned: dict[str, int] = {}
    for item in caught:
        warned[item.category.__name__] = warned.get(item.category.__name__, 0) + 1
    descriptors = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        **result.descriptors,
        "warnings": warned,
        "problems": result.problems,
        "kernel_info": kernel_info(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    missing = sorted(set(units) - set(result.metrics))
    extra = sorted(set(result.metrics) - set(units))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, extra {extra}")
    final = {
        "correct": not result.problems,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": float(result.metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    return final, descriptors


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    final, descriptors = run(args)
    for name, entry in final["metrics"].items():
        print(f"{name:<32} {entry['value']:>16.6g} {entry['unit']}")
    for problem in descriptors["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"descriptors": descriptors}, default=float))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
