"""CLI: ``python -m repro.bench [experiment-id ...] [options]``.

Runs the named experiments (default: all) through the parallel runner
(:mod:`repro.bench.runner`) and prints their rendered tables/plots plus a
paper-vs-measured summary.

Options:

* ``--jobs N`` — fan out over N worker processes (default 1);
* ``--no-cache`` — ignore and do not update the on-disk result cache;
* ``--json PATH`` — also write the JSON results artifact to PATH;
* ``--bench-json PATH`` — write the kernel-benchmark artifact
  (``BENCH_kernel.json``) from the ``selftest`` experiment's data
  (implies ``--no-cache`` so the numbers are freshly measured);
* ``--scale-json PATH`` — write the large-torus scaling artifact
  (``BENCH_scale.json``) from the ``scale`` experiment's data
  (implies ``--no-cache``);
* ``--trace PATH`` — record every experiment under :mod:`repro.obs` and
  write one merged Chrome ``trace_event`` file (implies ``--no-cache``);
* ``--full`` / ``--quick`` — paper's exact parameters vs trimmed sweeps.
"""

from __future__ import annotations

import argparse
import sys

from .harness import all_ids, get
from .runner import (
    default_cache_dir,
    run_experiments,
    write_json,
    write_kernel_bench,
    write_scale_bench,
)
from .tables import fmt_ratio, render_table


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    parser.add_argument(
        "--all", action="store_true",
        help="run every registered experiment (the default when no ids are given)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="run the paper's full parameters (slower; default is quick mode)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="trimmed sweeps that finish in minutes (the default)",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes to fan experiments out over (default: 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not update the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=f"result cache location (default: {default_cache_dir()})",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the JSON results artifact to PATH",
    )
    parser.add_argument(
        "--bench-json", default=None, metavar="PATH",
        help="write the kernel benchmark artifact (BENCH_kernel.json) from "
        "the selftest experiment's data (implies --no-cache)",
    )
    parser.add_argument(
        "--scale-json", default=None, metavar="PATH",
        help="write the large-torus scaling artifact (BENCH_scale.json) from "
        "the scale experiment's data (implies --no-cache)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome trace_event JSON of the sweep to PATH "
        "(open in Perfetto; implies --no-cache)",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    args = parser.parse_args(argv)

    if args.list:
        for i in all_ids():
            print(i)
        return 0
    if args.full and args.quick:
        parser.error("--full and --quick are mutually exclusive")
    if args.all and args.ids:
        parser.error("--all cannot be combined with explicit experiment ids")

    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    ids = args.ids or all_ids()
    if args.bench_json is not None and "selftest" not in ids:
        parser.error("--bench-json needs the 'selftest' experiment in the sweep")
    if args.scale_json is not None and "scale" not in ids:
        parser.error("--scale-json needs the 'scale' experiment in the sweep")
    try:
        for exp_id in ids:
            get(exp_id)
    except KeyError as exc:
        parser.error(exc.args[0])
    quick = not args.full

    def progress(record):
        tag = "cached" if record.cached else f"{record.wall_s:.1f}s"
        status = "" if record.status != "error" else "  FAILED"
        print(f"[{record.experiment_id}] {tag}, {record.events} events{status}",
              file=sys.stderr)

    records = run_experiments(
        ids,
        quick=quick,
        jobs=args.jobs,
        use_cache=not (
            args.no_cache
            or args.bench_json is not None
            or args.scale_json is not None
        ),
        cache_dir=args.cache_dir,
        progress=progress,
        trace=args.trace is not None,
    )

    summary = []
    failed = []
    for record in records:
        if record.status == "error":
            failed.append(record)
            print(f"\n{'#' * 72}\n# {record.experiment_id}: FAILED\n{'#' * 72}")
            print(record.error)
            continue
        origin = "cached" if record.cached else f"{record.wall_s:.1f}s"
        print(
            f"\n{'#' * 72}\n# {record.experiment_id}: {record.title}"
            f"  ({origin}, {record.events} events)\n{'#' * 72}"
        )
        print(record.rendered)
        for name, measured, paper, unit in record.comparisons:
            summary.append(
                (record.experiment_id, name, measured, paper, fmt_ratio(measured, paper))
            )
    if summary:
        print("\n" + render_table(
            ["experiment", "quantity", "measured", "paper", "dev"],
            summary, title="Paper-vs-measured summary",
        ))

    if args.json:
        path = write_json(records, args.json, quick=quick, jobs=args.jobs)
        print(f"\nwrote {path}", file=sys.stderr)

    if args.bench_json:
        try:
            path = write_kernel_bench(records, args.bench_json, quick=quick)
        except ValueError as exc:
            print(f"bench-json: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {path}", file=sys.stderr)

    if args.scale_json:
        try:
            path = write_scale_bench(records, args.scale_json, quick=quick)
        except ValueError as exc:
            print(f"scale-json: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {path}", file=sys.stderr)

    if args.trace:
        from ..obs import write_chrome_trace

        traces = {r.experiment_id: r.trace for r in records if r.trace is not None}
        path = write_chrome_trace(args.trace, traces)
        n_records = sum(len(p["events"]) for p in traces.values())
        print(
            f"wrote {path} ({len(traces)} experiment(s), {n_records} trace records)",
            file=sys.stderr,
        )

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
