#!/usr/bin/env python3
"""fdrelay benchmark: cold tables, analytic sweep and Monte Carlo compare.

Run from the root of a checkout:

    python3 bench/run.py --workload tables_cold --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``. See bench/README.md for the workloads, the
metrics and how they relate.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse
import json
import logging
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"
WORKLOAD_NAMES = ("tables_cold", "analytic_sweep", "mc_compare")

#: Extra set-ups, each in a fresh process, for the median of ``setup_s``.
SETUP_REPEATS = 8


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed seconds to fill with whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it as JSON and exit")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RedrawCounter(logging.Handler):
    """Counts degenerate-trial redraws from mcsim's warning, per round."""

    def __init__(self, tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer
        self.by_round: dict[int, int] = {}

    def emit(self, record):
        if record.getMessage().startswith("redrew") and record.args:
            rnd = self.tracer.round
            self.by_round[rnd] = self.by_round.get(rnd, 0) + int(record.args[0])


def install_tracing(tracer):
    from fdrelay import cli, exppoly, mcsim, outage, wishart

    def dims_note(args, kwargs, result):
        dims = args[0] if args else kwargs["dims"]
        return [dims.a, dims.b]

    def gains_note(args, kwargs, result):
        config = args[0] if args else kwargs["config"]
        trials = args[1] if len(args) > 1 else kwargs["trials"]
        label = "".join(map(str, config.antennas())) + "_" + config.mode.value
        return [label, trials, sum(a.nbytes for a in result) if result else 0]

    tracer.install(exppoly, "determinant", "exppoly.determinant")
    tracer.install(wishart, "extract_coefficients", "wishart.extract", dims_note)
    tracer.install(wishart, "save_table", "wishart.save")
    tracer.install(wishart, "load_table", "wishart.load")
    tracer.install(outage, "link_outage", "outage.link_outage")
    tracer.install(mcsim, "link_gain_samples", "mcsim.link_gain_samples", gains_note)
    tracer.install(cli, "build_curve", "cli.build_curve")
    tracer.install(cli, "write_csv", "cli.write_csv")
    counter = RedrawCounter(tracer)
    logging.getLogger(mcsim.__name__).addHandler(counter)
    return counter


def layer_metrics(tracer, redraws, workload, rounds, import_s, tables_s):
    """Per-layer metrics: medians over rounds of per-round sums and counts.

    A span that no timed round made is read from the set-up instead, so the
    table cache fill of the warm workloads shows as extraction and save.
    """
    from fdrelay import mcsim
    from spans import SETUP_ROUND
    import workloads

    agg = tracer.aggregate

    def phase(name):
        timed = range(rounds)
        return timed if any(agg(r, name)["count"] for r in timed) else [SETUP_ROUND]

    def med(name, key):
        return statistics.median(agg(r, name)[key] for r in phase(name))

    link = [agg(r, "outage.link_outage") for r in phase("outage.link_outage")]
    link_calls = sum(a["count"] for a in link)
    link_total = sum(a["total_s"] for a in link)
    extracts = [agg(r, "wishart.extract")["notes"] for r in phase("wishart.extract")]
    largest = max((dims for notes in extracts for dims, _ in notes), default=None)
    largest_s = statistics.median(
        sum(t for dims, t in notes if dims == largest) for notes in extracts)

    def gains_rate(label):
        def rate(r):
            pairs = [(n[1], t) for n, t in agg(r, "mcsim.link_gain_samples")["notes"]
                     if n[0] == label]
            seconds = sum(t for _, t in pairs)
            return sum(n for n, _ in pairs) / seconds if seconds else 0.0
        return statistics.median(rate(r) for r in range(rounds))

    metrics = {
        "setup.import_s": (import_s, "s"),
        "setup.tables_s": (tables_s, "s"),
        "exppoly.determinant_s": (med("exppoly.determinant", "total_s"), "s"),
        "exppoly.determinant_calls": (med("exppoly.determinant", "count"), "count"),
        "wishart.extract_s": (med("wishart.extract", "self_s"), "s"),
        "wishart.extract_largest_s": (largest_s, "s"),
        "wishart.save_s": (med("wishart.save", "total_s"), "s"),
        "wishart.load_s": (med("wishart.load", "total_s"), "s"),
        "wishart.cache_bytes": (workload.cache_bytes, "bytes"),
        "outage.link_outage_calls": (med("outage.link_outage", "count"), "count"),
        "outage.link_outage_us": (1e6 * link_total / link_calls if link_calls else 0.0, "us"),
        "cli.build_curve_self_s": (med("cli.build_curve", "self_s"), "s"),
        "cli.write_csv_s": (med("cli.write_csv", "total_s"), "s"),
        "mcsim.link_gain_samples_s": (med("mcsim.link_gain_samples", "total_s"), "s"),
    }
    for antennas, mode in workloads.MC_CONFIGS:
        label = workloads.config_label(antennas, mode)
        metrics[f"mcsim.gains_per_s.{label}"] = (gains_rate(label), "1/s")
    metrics["mcsim.blocks"] = (statistics.median(sum(
        math.ceil(n[1] / mcsim.BLOCK_SIZE) for n, _ in agg(r, "mcsim.link_gain_samples")["notes"])
        for r in range(rounds)), "count")
    metrics["mcsim.redraws"] = (statistics.median(
        redraws.by_round.get(r, 0) for r in range(rounds)), "count")
    metrics["mcsim.gain_bytes"] = (
        max((n[2] for r in range(rounds) for n, _ in agg(r, "mcsim.link_gain_samples")["notes"]),
            default=0), "bytes_computed")
    return metrics


def extra_setups(args) -> list[float]:
    """Set-up times of SETUP_REPEATS fresh processes, run one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fdrelay" / "__init__.py").is_file():
        print(f"bench: no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))

    import workloads  # imports the program
    from spans import Tracer

    import_s = time.perf_counter() - T0
    workdir = OUT_DIR / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        # Traced runs trace the set-up too, so the cache fill shows per layer.
        tracer = Tracer()
        redraws = install_tracing(tracer) if args.trace else None
        start = time.perf_counter()
        workload.setup()
        tables_s = time.perf_counter() - start
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        # Outputs that repeat across rounds are stored once and rounds keep
        # only their indices, so memory does not grow with the round count.
        rates, round_outputs, index, distinct, problems = [], [], {}, [], []
        timed = 0.0
        while not rates or timed < args.seconds:
            tracer.round = len(rates)
            seconds, units, outputs = workload.run_round()
            timed += seconds
            rates.append(units / seconds)
            problems += workload.round_problems(outputs)
            for key, item in outputs:
                if key not in index:
                    index[key] = len(distinct)
                    distinct.append((key, item))
            round_outputs.append([index[key] for key, _ in outputs])
            del outputs
        rss = peak_rss_mb()
        tracer.uninstall()

        failures = [workload.failures(key, item) for key, item in distinct]
        failed = sum(failures[i] for indices in round_outputs for i in indices)
        result = {
            "correct": not problems,
            "attempted": len(rates) * workload.ops_per_round,
            "failed": failed,
        }
        print(f"bench: {len(rates)} rounds, work per second {[round(r, 6) for r in rates]}",
              file=sys.stderr)
        for problem in problems[:20]:
            print(f"bench: {problem}", file=sys.stderr)
        work_per_s = statistics.median(rates)
        if args.trace:
            metrics = layer_metrics(tracer, redraws, workload, len(rates), import_s, tables_s)
            trace_path = OUT_DIR / f"trace-{args.workload}-s{args.seed}-{os.getpid()}.jsonl.gz"
            tracer.write(trace_path)
            print(f"bench: traced work_per_s = {work_per_s:.6g}; spans in {trace_path}",
                  file=sys.stderr)
        else:
            setups = [setup_s] + extra_setups(args)
            print(f"bench: set-up seconds {[round(t, 4) for t in setups]}", file=sys.stderr)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "work_per_s": (work_per_s, "1/s"),
                "peak_rss_mb": (rss, "MB"),
            }
        result["metrics"] = {name: {"value": value, "unit": unit}
                             for name, (value, unit) in metrics.items()}
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
