"""CLI entry point: ``python -m benchmarks.perf.run``.

Examples::

    PYTHONPATH=src python -m benchmarks.perf.run --suite all --label candidate
    PYTHONPATH=src python -m benchmarks.perf.run --suite ops --suite csq \
        --scale tiny --output /tmp/tiny.json
"""

from __future__ import annotations

import argparse

from benchmarks.perf.harness import run_suites, write_results, SUITES


def main(argv=None) -> int:
    # Touch the registry so --help lists real suite names.
    from benchmarks.perf import (  # noqa: F401
        ops_bench,
        runtime_bench,
        serve_bench,
        telemetry_bench,
        train_bench,
    )

    parser = argparse.ArgumentParser(description="Run the performance benchmark suites")
    parser.add_argument(
        "--suite", action="append", default=None,
        help=f"Suite to run (repeatable); one of {sorted(SUITES)} or 'all' (default)",
    )
    parser.add_argument("--label", default="local", help="Run label recorded in the output")
    parser.add_argument("--scale", default="quick", choices=("quick", "tiny"))
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument("--iters", type=int, default=5)
    parser.add_argument("--output", default="BENCH_perf.json")
    args = parser.parse_args(argv)

    suites = args.suite or ["all"]
    print(f"Running perf suites {suites} at scale={args.scale} (label={args.label})")
    try:
        document = run_suites(
            suites, label=args.label, scale=args.scale, warmup=args.warmup, iters=args.iters
        )
    except KeyError as error:
        parser.error(str(error.args[0]) if error.args else str(error))
    write_results(document, args.output)
    print(f"Wrote {len(document['results'])} results to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
