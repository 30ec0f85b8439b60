"""Run one pdcbell benchmark workload, check its outputs and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload theory --seed 1 --seconds 20 --trace 0

Workloads: theory, lhv-sweep, counting-csv, counting-lossy (see
``workloads.py``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it list every metric with its unit, sample
count and tail percentile, the failed operations and the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import harness

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms", "op_tail_ms": "ms"}


def setup_times(calibration: harness.Calibration) -> list[list[tuple[float, float]]]:
    """Fresh interpreters importing pdcbell.cli, after one warm-up, as op parts."""
    argv = [sys.executable, "-c", "import pdcbell.cli"]
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        calibration.measure()
        child = harness.run_child(argv)
        if child.exit_code != 0:
            raise RuntimeError(f"cannot import pdcbell.cli: {child.stderr.strip()}")
        if attempt:
            times.append([(time.perf_counter() - child.wall_s, child.wall_s)])
    calibration.measure()
    return times


def parse_importtime(text: str) -> tuple[float, float]:
    """(pdcbell.cli, scipy.optimize) cumulative import times in ms from -X importtime."""
    entries = []
    for line in text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        entries.append((name.strip(), len(name) - len(name.lstrip()), int(fields[1])))
    ours = [(indent, us) for module, indent, us in entries if module in ("pdcbell", "pdcbell.cli")]
    top = min((indent for indent, _ in ours), default=0)
    pdcbell_us = sum(us for indent, us in ours if indent == top)
    scipy_us = sum(us for module, _, us in entries if module == "scipy.optimize")
    return pdcbell_us / 1e3, scipy_us / 1e3


def import_breakdown() -> dict[str, float]:
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        child = harness.run_child([sys.executable, "-X", "importtime", "-c", "import pdcbell.cli"])
        if child.exit_code != 0:
            raise RuntimeError(f"cannot import pdcbell.cli: {child.stderr.strip()}")
        samples.append(parse_importtime(child.stderr))
    return {
        "import.pdcbell_cli_ms": statistics.median(s[0] for s in samples),
        "import.scipy_optimize_ms": statistics.median(s[1] for s in samples),
    }


def normalised(ops: list, calibration: harness.Calibration, unit: str, scale: float = 1.0) -> dict:
    """Summary of speed-normalised operation times, with the raw median and tail."""
    raw = harness.summary([sum(d for _, d in parts) * scale for parts in ops], unit)
    result = harness.summary([calibration.normalise(parts) * scale for parts in ops], unit)
    result.update(raw=raw["value"], raw_tail=raw["tail"], speed_factor=calibration.factor)
    return result


def run_worker(spec: dict):
    spec_path = harness.WORK / "worker-spec.json"
    result_path = harness.WORK / "worker-result.json"
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps(spec))
    child = harness.run_child([sys.executable, str(harness.BENCH_DIR / "worker.py"), str(spec_path), str(result_path)])
    if child.exit_code != 0:
        tail = child.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise RuntimeError(f"worker exited with {child.exit_code}: {tail[0]}")
    return json.loads(result_path.read_text()), child


def measure(workload: str, seed: int, seconds: float, trace: bool, n_bins: int | None = None) -> dict:
    """Run one workload and return its full report (see ``result_line``)."""
    import workloads

    harness.WORK.mkdir(parents=True, exist_ok=True)
    n_bins = workloads.FULL_BINS if n_bins is None else n_bins
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "n_bins": n_bins}
    if trace:
        result, _ = run_worker(spec)
        layers = {**import_breakdown(), **result["layers"]}
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, (unit, _) in workloads.PER_LAYER.items()
        }
    else:
        setup_calibration = harness.Calibration()
        setup = normalised(setup_times(setup_calibration), setup_calibration, "s")
        if workload in workloads.FRESH_PROCESS:
            rss: list[float] = []
            calibration = harness.Calibration()
            result = workloads.timed_run(
                workload, seed, seconds, n_bins, workloads.fresh_cli(rss, calibration), calibration
            )
            peak = {"value": max(rss), "unit": "MB", "n": len(rss)}
        else:
            result, child = run_worker(spec)
            peak = {"value": child.maxrss_mb, "unit": "MB", "n": 1}
        samples = result["samples"]
        if workload in workloads.SPEED_NORMALISED:
            op = normalised(samples["op"], harness.Calibration(result["calibration"]), "ms", 1e3)
        else:
            op = harness.summary([sum(d for _, d in parts) * 1e3 for parts in samples["op"]], "ms")
        metrics = {
            "setup_s": setup,
            "peak_rss_mb": peak,
            "op_p50_ms": op,
            "op_tail_ms": dict(op, value=op["tail"], raw=op.get("raw_tail")),
        }
        for name, values in samples.items():
            if name != "op":
                unit = workloads.NAMED_UNITS[name]
                metrics[name] = harness.summary(values, unit, higher_is_better=unit.endswith("/s"))
    tally = result["tally"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        **tally,
        "failed_ratio": tally["failed"] / max(tally["attempted"], 1),
        "metrics": metrics,
        "provenance": harness.provenance(workload, seed, result["inputs"]),
    }


def result_line(report: dict) -> dict:
    if report["trace"]:
        names = list(report["metrics"])
    else:
        names = list(END_TO_END_UNITS)
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": report["metrics"][name]["value"], "unit": report["metrics"][name]["unit"]}
            for name in names
        },
    }


def print_report(report: dict) -> None:
    print(
        f"pdcbell benchmark: workload={report['workload']} seed={report['seed']} "
        f"trace={report['trace']} seconds={report['seconds']}"
    )
    for name, m in report["metrics"].items():
        line = f"  {name:<42} {m['value']:<14.6g} {m['unit']:<10}"
        if "tail" in m:
            line += f" n={m['n']:<6} tail={m['tail']:.6g} (p{m['tail_pct']:g})"
        elif "n" in m:
            line += f" n={m['n']}"
        if "speed_factor" in m:
            line += f" raw={m['raw']:.6g} speed_factor={m['speed_factor']:.3f}"
        print(line)
    print(
        f"  {'failed_ratio':<42} {report['failed_ratio']:<14.6g} {'ratio':<10} "
        f"({report['failed']} of {report['attempted']} operations, "
        f"{report['known_failures']} known)"
    )
    for problem, count in report["problems"].items():
        print(f"  failed {count}x: {problem}")
    print("provenance " + json.dumps(report["provenance"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not harness.checkout_has_sources():
        print(f"error: no pdcbell sources under {harness.SRC}", file=sys.stderr)
        return 2
    harness.use_checkout_sources()
    harness.pin_to_one_cpu()
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (harness.WORK / f"report-{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print_report(report)
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
