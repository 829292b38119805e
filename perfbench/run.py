"""The repository benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): ``batch``
(offline fit, distributed fit, bulk predict) and ``stream`` (streaming
inserts and deletes beside reads of the served model).  ``serve``
(open-loop HTTP traffic against ``mudbscan serve --workers 2``) runs
too, but is not in BENCHMARK.json; see ``serve.py`` for why.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured with tracing off; with ``--trace 1`` it carries the per-layer
metrics of a traced run, and the spans go to
``perfbench/out/spans-<workload>-<seed>.jsonl``.  Lines before it
(prefixed ``#``) record provenance, details and failures.  Every
operation's output is checked against the program's oracles after the
clock stops; wrong answers count in ``failed``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.  Before it exits, on
every path, it stops every process the run started (servers, their
workers, distributed ranks, the multiprocessing resource tracker) and
waits until each has ended.
"""

from __future__ import annotations

import argparse
import importlib
import sys

import common
from spans import Spans

WORKLOADS = ("batch", "serve", "stream")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the self-test's knobs: shrink every input, corrupt one answer
    ap.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    ap.add_argument("--inject-wrong-label", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = common.ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    common.become_subreaper()
    try:
        return _run(args)
    finally:
        common.reap_children()


def _run(args) -> int:
    workload = importlib.import_module(args.workload)
    tally = common.Tally(inject_wrong=args.inject_wrong_label)
    meta = common.provenance(args.workload, args.seed, bool(args.trace))
    if args.trace:
        spans = Spans()
        values, details = workload.run_traced(
            args.seed, args.seconds, args.scale, tally, spans)
        values["bench.failed_frac"] = tally.failed_frac
        spans.dump(common.OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = common.with_units(values, common.PER_LAYER, default_zero=True)
    else:
        values, details = workload.run(args.seed, args.seconds, args.scale, tally)
        metrics = common.with_units(values, common.END_TO_END, default_zero=False)
    common.emit(meta, details, tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
