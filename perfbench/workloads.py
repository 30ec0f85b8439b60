"""The four pdcbell workloads: inputs, closed-loop cycles, oracles, layer metrics.

One client runs one operation at a time (closed loop):

* ``theory`` - fresh ``python -m pdcbell`` processes: ``optimize`` at
  p_pair 1 and 0.01, ``chsh`` at the returned settings, ``lhv-check`` on the
  optimal-setting tables.  Interpreter start-up and the Fock algebra inside
  ``optimize_angles`` dominate.  Its inputs are the paper's fixed points, so
  the seed only labels the run.
* ``lhv-sweep`` - in-process ``lhv_feasible`` on the vacuum-dilution sweep
  at the optimal settings (never local) and on seeded random strategy
  mixtures at seeded settings (always local), so both verdict branches run.
* ``counting-csv`` - fresh-process ``simulate`` of the README run (4 M bins,
  ideal detectors), then ``analyze`` of the CSV it wrote.  Event-log I/O
  dominates.
* ``counting-lossy`` - in-process ``run_experiment`` + ``estimate_correlators``
  at detector efficiency 0.8 and p_pair 0.1, 4 M bins, no file I/O: the
  7-wide random stream and the loss-thinning path.

Every output is checked.  A wrong value or verdict, an unexpected exit code
or an exception counts as a failed operation instead of ending the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from pdcbell import bell, cli, lhv, measurement
from pdcbell.bell import OPTIMAL_SETTINGS, ChshSettings
from pdcbell.lhv import (
    BOUND_TOL,
    N_STRATEGIES,
    RECONSTRUCTION_TOL,
    LhvModel,
    lhv_feasible,
    local_bound_by_enumeration,
    synthesize_tables,
    tables_to_json_dict,
)
from pdcbell.measurement import joint_distribution
from pdcbell.montecarlo import EventLog, RunConfig, estimate_correlators, run_experiment
from pdcbell.optics import PairAmplitude, attach_vacuum, build_experiment_state

from harness import WORK, WORKLOADS, Calibration, NoTracer, Tracer, pdcbell_argv, run_child, should_continue

#: Workloads timed as fresh CLI processes; the others run in a worker process.
FRESH_PROCESS = ("theory", "counting-csv")
#: Workloads whose operation times are speed-normalised (see harness.Calibration).
#: counting-lossy is left out: it is memory-bound and barely slows when the CPU
#: does, so dividing by the kernel's slowdown added noise (run-to-run spread
#: 0.12-0.18 normalised against 0.04-0.11 raw on the reference machine).
SPEED_NORMALISED = ("theory", "lhv-sweep", "counting-csv")

QUANTUM_CHSH = 1.0 + math.sqrt(2.0)
VALUE_TOL = 1e-9
Z_LIMIT = 5.0

THEORY_P_PAIRS = (1.0, 0.01)
SWEEP_P_PAIRS = tuple(10.0**-k for k in range(9))
#: At and below this pair probability lhv_feasible returns Feasible for the
#: diluted optimal tables: its absolute per-cell reconstruction tolerance
#: swallows a violation that shrinks linearly with p_pair.  Those verdicts
#: count as failed operations; being known, they do not make a run incorrect.
KNOWN_FEASIBLE_MAX_P = 1e-6
#: Strategy counts of the random local mixtures.  Fixed, so that the seed
#: changes strategies, weights and settings but not the LP sizes.
LOCAL_SUPPORTS = (2, 4, 8, 12, 16, 24, 32, 48, 64)

FULL_BINS = 4_000_000
#: The README run configuration: 4 M bins of 10 ns, ideal detectors.
README_CONFIG = {
    "T": 0.04,
    "tau": 1e-8,
    "p_pair": 0.01,
    "settings_rad": [0.0, 0.7853981633974483, 1.9634954084936207, 1.1780972450961724],
    "seed": 20240817,
    "L": 10.0,
    "detector_efficiency": 1.0,
}
#: SHA-256 of the CSV event log that ``simulate`` writes for README_CONFIG.
README_LOG_SHA256 = "a1f779b58c5e05c5602551d18c781945a883c0b3ac8fda25f2e350b6350be84e"
LOSSY_P_PAIR = 0.1
LOSSY_EFFICIENCY = 0.8

#: Outcome codes as (D+ count, D- count), from the README table.
OUTCOME_OCCUPATION = {1: (0, 1), 2: (1, 0), 3: (0, 0), 4: (1, 1), 5: (2, 0), 6: (0, 2)}
OUTCOME_SIGN = np.array([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0])

#: Units of the per-workload metrics reported beside the end-to-end ones.
NAMED_UNITS = {
    "optimize_s": "s",
    "chsh_s": "s",
    "lhv_check_s": "s",
    "lhv_decide_ms": "ms",
    "simulate_s": "s",
    "analyze_s": "s",
    "sim_mbins_per_s": "Mbins/s",
    "estimate_ms": "ms",
}
#: name -> (unit, better) for every per-layer metric of a traced run.
PER_LAYER = {
    "import.pdcbell_cli_ms": ("ms", "lower"),
    "import.scipy_optimize_ms": ("ms", "lower"),
    "optics.build_experiment_state_ms": ("ms", "lower"),
    "fock.apply_mode_unitary.calls": ("count", "lower"),
    "fock.apply_mode_unitary_ms": ("ms", "lower"),
    "measurement.rotate_station_basis.calls": ("count", "lower"),
    "measurement.rotate_station_basis_ms": ("ms", "lower"),
    "measurement.joint_distribution.calls": ("count", "lower"),
    "measurement.joint_distribution_ms": ("ms", "lower"),
    "bell.optimize_angles_s": ("s", "lower"),
    "bell.optimize.grid_share": ("ratio", "lower"),
    "bell.optimize.refine_share": ("ratio", "higher"),
    "bell.chsh_decomposition_ms": ("ms", "lower"),
    "lhv.decide_ms": ("ms", "lower"),
    "lhv.linprog_ms": ("ms", "lower"),
    "lhv.highs_iterations": ("count", "lower"),
    "lhv.enumeration_ms": ("ms", "lower"),
    "lhv.enumeration_calls_per_decision": ("count", "lower"),
    "lhv.build_ms": ("ms", "lower"),
    "lhv.constraint_matrix_cold_ms": ("ms", "lower"),
    "lhv.certificate_gap_min": ("1", "higher"),
    "lhv.reconstruction_error_max": ("1", "lower"),
    "montecarlo.to_csv_s": ("s", "lower"),
    "montecarlo.from_csv_s": ("s", "lower"),
    "montecarlo.csv_bytes": ("B", "lower"),
    "montecarlo.run_experiment_s": ("s", "lower"),
    "montecarlo.rng_floor_s": ("s", "lower"),
    "montecarlo.sampling_s": ("s", "lower"),
    "montecarlo.stream_bytes": ("B_computed", "lower"),
    "montecarlo.estimate_correlators_ms": ("ms", "lower"),
    "montecarlo.bins": ("count", "higher"),
    "montecarlo.nonvacuum_bins": ("count", "higher"),
    "montecarlo.pair_bins.0": ("count", "higher"),
    "montecarlo.pair_bins.1": ("count", "higher"),
    "montecarlo.pair_bins.2": ("count", "higher"),
    "montecarlo.pair_bins.3": ("count", "higher"),
    "cli.optimize.inprocess_s": ("s", "lower"),
    "cli.chsh.inprocess_s": ("s", "lower"),
    "cli.lhv-check.inprocess_s": ("s", "lower"),
    "cli.simulate.inprocess_s": ("s", "lower"),
    "cli.analyze.inprocess_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.spans_per_pass": ("count", "lower"),
}


@dataclass
class Tally:
    """Operations attempted and failed; ``known`` failures are documented defects."""

    attempted: int = 0
    failed: int = 0
    known: int = 0
    problems: Counter = field(default_factory=Counter)

    def record(self, problems: list[str], known: bool = False) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.known += known
            self.problems["; ".join(problems)] += 1

    @property
    def correct(self) -> bool:
        return self.failed == self.known

    def to_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "known_failures": self.known,
            "problems": dict(self.problems),
        }


def guarded(check, *args) -> list[str]:
    """Run an oracle; an exception inside it is a failed check, not a crash."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"{check.__name__}: {type(exc).__name__}: {exc}"]


# -- CLI runners: (exit code, stdout, stderr, wall seconds) -----------------------


def fresh_cli(rss_mb: list[float], calibration: Calibration):
    """Each command in a fresh interpreter, as a user runs it."""

    def run(argv: list[str]):
        calibration.measure()
        result = run_child(pdcbell_argv(*argv))
        rss_mb.append(result.maxrss_mb)
        return result.exit_code, result.stdout, result.stderr, result.wall_s

    return run


def inprocess_cli(tracer):
    """Each command through ``cli.main`` in this process, under a ``cli.<cmd>`` span."""

    def run(argv: list[str]):
        buffer = io.StringIO()
        error = ""
        with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(buffer):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                code, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        return code, buffer.getvalue(), error, wall

    return run


@dataclass
class Context:
    tracer: object
    run_cli: object = None


# -- oracles ---------------------------------------------------------------------


def diluted_value(p_pair: float) -> float:
    """The dilution law 2 p_vac + (1 - p_vac) (1 + sqrt 2) with p_vac = 1 - p_pair."""
    return 2.0 * (1.0 - p_pair) + p_pair * QUANTUM_CHSH


def optimal_tables(p_pair: float) -> list:
    state = build_experiment_state()
    if p_pair < 1.0:
        state = attach_vacuum(state, PairAmplitude.from_pair_probability(p_pair))
    return [joint_distribution(state, xi, eta) for xi, eta in OPTIMAL_SETTINGS.setting_pairs()]


def chsh_of(probs) -> float:
    """E(xi,eta) + E(xi,eta') + E(xi',eta) - E(xi',eta') of four 6x6 tables."""
    signs = np.outer(OUTCOME_SIGN, OUTCOME_SIGN)
    values = [float(np.sum(signs * p)) for p in probs]
    return values[0] + values[1] + values[2] - values[3]


def exit_problems(what: str, code, expected: int, stderr: str) -> list[str]:
    if code == expected:
        return []
    detail = stderr.strip().splitlines()[-1] if stderr.strip() else "no stderr"
    return [f"{what}: exit {code}, expected {expected} ({detail})"]


def certificate_problems(coefficients, local_bound, quantum_value, tables, label) -> list[str]:
    """Re-verify a Bell certificate by enumerating all 1296 strategies."""
    coefficients = np.asarray(coefficients, dtype=float).reshape(4, 6, 6)
    bound = local_bound_by_enumeration(coefficients)
    value = float(np.sum(coefficients * np.stack([t.probs for t in tables])))
    problems = []
    if abs(bound - local_bound) > BOUND_TOL:
        problems.append(f"{label}: stored local bound {local_bound} but enumeration gives {bound}")
    if abs(value - quantum_value) > VALUE_TOL:
        problems.append(f"{label}: stored value {quantum_value} but the tables give {value}")
    if not value - bound > 0.0:
        problems.append(f"{label}: certificate does not separate (gap {value - bound})")
    return problems


def check_optimize(code, stdout, stderr, p_pair, parsed: dict) -> list[str]:
    what = f"optimize p_pair={p_pair:g}"
    problems = exit_problems(what, code, 0, stderr)
    if problems:
        return problems
    data = json.loads(stdout)
    value, settings = float(data["value"]), [float(a) for a in data["settings_rad"]]
    if abs(value - diluted_value(p_pair)) > VALUE_TOL:
        return [f"{what}: value {value!r}, dilution law gives {diluted_value(p_pair)!r}"]
    if len(settings) != 4:
        return [f"{what}: {len(settings)} settings"]
    parsed[p_pair] = (settings, value)
    return []


def check_chsh(code, stdout, stderr, p_pair, optimized: float) -> list[str]:
    what = f"chsh p_pair={p_pair:g}"
    problems = exit_problems(what, code, 0, stderr)
    if problems:
        return problems
    data = json.loads(stdout)
    total = float(data["total"])
    if abs(total - diluted_value(p_pair)) > VALUE_TOL:
        problems.append(f"{what}: total {total!r}, dilution law gives {diluted_value(p_pair)!r}")
    if abs(total - optimized) > VALUE_TOL:
        problems.append(f"{what}: Fock-space total {total!r} vs table value {optimized!r}")
    if p_pair == 1.0:
        halves = 0.5 * (float(data["favorable_part"]) + float(data["unfavorable_part"]))
        if abs(total - halves) > VALUE_TOL:
            problems.append(f"{what}: total {total!r} is not the mean of its parts {halves!r}")
    return problems


def check_lhv_check(code, stdout, stderr, tables, label) -> list[str]:
    problems = exit_problems(label, code, 3, stderr)
    if problems:
        return problems
    data = json.loads(stdout)
    if data["feasible"]:
        return [f"{label}: Feasible verdict on a CHSH-violating table"]
    cert = data["certificate"]
    return certificate_problems(
        cert["coefficients"], cert["local_bound"], cert["quantum_value"], tables, label
    )


def render_csv(log: EventLog) -> bytes:
    """The exact bytes ``EventLog.to_csv`` writes (csv module, CRLF rows)."""
    parts = [b"bin,setting1,setting2,outcome1,outcome2\r\n"]
    n = len(log)
    columns = (log.setting1, log.setting2, log.outcome1, log.outcome2)
    for digits in range(1, len(str(n)) + 1):
        lo, hi = 10 ** (digits - 1), min(10**digits - 1, n)
        bins = np.arange(lo, hi + 1, dtype=np.int64)
        rows = np.empty((bins.size, digits + 10), dtype=np.uint8)
        for k in range(digits):
            rows[:, digits - 1 - k] = 48 + (bins // 10**k) % 10
        for j, column in enumerate(columns):
            rows[:, digits + 2 * j] = ord(",")
            rows[:, digits + 2 * j + 1] = 48 + column[lo - 1 : hi]
        rows[:, -2:] = (ord("\r"), ord("\n"))
        parts.append(rows.tobytes())
    return b"".join(parts)


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_simulate(code, stderr, csv_path, expected: EventLog) -> list[str]:
    problems = exit_problems("simulate", code, 0, stderr)
    if problems:
        return problems
    if file_sha256(csv_path) != hashlib.sha256(render_csv(expected)).hexdigest():
        return ["simulate: CSV differs from the in-process run_experiment log"]
    return []


def estimate_problems(report, reference: float, what: str) -> list[str]:
    if abs(report.chsh - reference) > Z_LIMIT * report.chsh_stderr:
        return [
            f"{what}: CHSH {report.chsh:.6f} +- {report.chsh_stderr:.2g} is more than "
            f"{Z_LIMIT:g} sigma from the exact {reference:.6f}"
        ]
    return []


def check_analyze(code, stdout, stderr, expected: EventLog, p_pair: float) -> list[str]:
    problems = exit_problems("analyze", code, 0, stderr)
    if problems:
        return problems
    report = estimate_correlators(expected)
    if json.loads(stdout) != json.loads(json.dumps(report.to_json_dict())):
        return ["analyze: report differs from estimate_correlators on the in-process log"]
    return estimate_problems(report, diluted_value(p_pair), "analyze")


def check_readme_log() -> list[str]:
    log = run_experiment(RunConfig.from_json_dict(README_CONFIG))
    digest = hashlib.sha256(render_csv(log)).hexdigest()
    if digest != README_LOG_SHA256:
        return [f"README run log hash {digest} differs from the frozen {README_LOG_SHA256}"]
    return []


def demotion_matrix(efficiency: float) -> np.ndarray:
    """P(detected outcome | emitted outcome) under independent per-photon loss."""
    code_of = {occ: code for code, occ in OUTCOME_OCCUPATION.items()}
    matrix = np.zeros((6, 6))
    for code, (n_plus, n_minus) in OUTCOME_OCCUPATION.items():
        for k_plus in range(n_plus + 1):
            for k_minus in range(n_minus + 1):
                p = (
                    math.comb(n_plus, k_plus)
                    * math.comb(n_minus, k_minus)
                    * efficiency ** (k_plus + k_minus)
                    * (1.0 - efficiency) ** (n_plus + n_minus - k_plus - k_minus)
                )
                matrix[code - 1, code_of[(k_plus, k_minus)] - 1] += p
    return matrix


def lossy_reference_chsh(settings: ChshSettings, p_pair: float, efficiency: float) -> float:
    """Exact CHSH of a diluted run whose photons are each lost independently."""
    demote = demotion_matrix(efficiency)
    state = build_experiment_state()
    tables = []
    for xi, eta in settings.setting_pairs():
        table = p_pair * (demote.T @ joint_distribution(state, xi, eta).probs @ demote)
        table[2, 2] += 1.0 - p_pair
        tables.append(table)
    return chsh_of(tables)


def verdict_attrs(verdict) -> dict:
    if verdict.feasible:
        return {"feasible": True, "reconstruction_error": verdict.reconstruction_error}
    return {"feasible": False, "gap": verdict.certificate.gap}


def report_attrs(report) -> dict:
    return {
        "bins": report.n_bins,
        "nonvacuum_bins": report.n_bins - report.n_vacuum,
        "pair_bins": [int(c) for c in report.counts.sum(axis=(1, 2))],
    }


def run_config(seed: int, n_bins: int, p_pair: float, efficiency: float) -> dict:
    config = dict(README_CONFIG, seed=seed, p_pair=p_pair, detector_efficiency=efficiency)
    if n_bins != FULL_BINS:
        config["T"] = n_bins * config["tau"]
    return config


# -- workloads -------------------------------------------------------------------


class Workload:
    """``cycle`` runs one closed-loop request of the workload, appends its
    samples and returns the time its operations took (checks excluded)."""

    inputs: dict

    def warm_up(self, ctx: Context) -> None:
        pass

    def layer_facts(self, tracer: Tracer) -> dict:
        """Per-layer facts the harness measures itself after a traced pass."""
        return {}


def stream_facts(config: RunConfig, tracer: Tracer) -> dict:
    """Time the harness drawing the run's PCG64 block itself: the RNG floor."""
    width = 3 if config.detector_efficiency >= 1.0 else 7
    with tracer.span("montecarlo.rng_floor"):
        np.random.Generator(np.random.PCG64(config.seed)).random((config.n_bins, width))
    return {"montecarlo.stream_bytes": config.n_bins * width * 8}


class Theory(Workload):
    def __init__(self, seed: int, n_bins: int) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        self.tables = {p: optimal_tables(p) for p in THEORY_P_PAIRS}
        self.table_files = {}
        for p, tables in self.tables.items():
            path = WORK / f"tables_p{p:g}.json"
            path.write_text(json.dumps(tables_to_json_dict(tables)))
            self.table_files[p] = path
        self.inputs = {"p_pairs": list(THEORY_P_PAIRS), "lhv_check_settings_rad": list(OPTIMAL_SETTINGS.as_radians())}

    def cycle(self, ctx: Context, tally: Tally, samples, index: int) -> float:
        parts = []

        def run(argv, metric):
            code, out, err, wall = ctx.run_cli(argv)
            samples[metric].append(wall)
            parts.append((time.perf_counter() - wall, wall))
            return code, out, err

        parsed: dict = {}
        for p in THEORY_P_PAIRS:
            code, out, err = run(["optimize", "--p-pair", repr(p)], "optimize_s")
            tally.record(guarded(check_optimize, code, out, err, p, parsed))
        for p in THEORY_P_PAIRS:
            if p not in parsed:
                tally.record([f"chsh p_pair={p:g}: skipped, optimize failed"])
                continue
            settings, value = parsed[p]
            argv = ["chsh", "--settings", ",".join(f"{a!r}rad" for a in settings), "--p-pair", repr(p)]
            code, out, err = run(argv, "chsh_s")
            tally.record(guarded(check_chsh, code, out, err, p, value))
        for p in THEORY_P_PAIRS:
            code, out, err = run(["lhv-check", "--input", str(self.table_files[p])], "lhv_check_s")
            label = f"lhv-check p_pair={p:g}"
            tally.record(guarded(check_lhv_check, code, out, err, self.tables[p], label))
        samples["op"].append(parts)
        return sum(wall for _, wall in parts)


@dataclass(frozen=True)
class LhvInstance:
    label: str
    tables: tuple
    local: bool
    p_pair: float = 1.0

    @property
    def known_defect(self) -> bool:
        return not self.local and self.p_pair <= KNOWN_FEASIBLE_MAX_P


def lhv_instances(seed: int) -> list[LhvInstance]:
    instances = [
        LhvInstance(f"sweep p_pair={p:g}", tuple(optimal_tables(p)), local=False, p_pair=p)
        for p in SWEEP_P_PAIRS
    ]
    rng = np.random.default_rng(seed)
    for k, support in enumerate(LOCAL_SUPPORTS):
        weights = np.zeros(N_STRATEGIES)
        weights[rng.choice(N_STRATEGIES, support, replace=False)] = rng.dirichlet(np.ones(support))
        settings = ChshSettings.from_radians(*rng.uniform(0.0, math.pi, 4))
        tables = synthesize_tables(LhvModel(weights), settings)
        instances.append(LhvInstance(f"local mixture {k} ({support} strategies)", tuple(tables), local=True))
    return instances


def check_verdict(instance: LhvInstance, verdict) -> list[str]:
    tables = instance.tables
    if instance.local:
        if not verdict.feasible:
            return [f"{instance.label}: Infeasible verdict on local tables"]
        settings = ChshSettings(tables[0].xi, tables[2].xi, tables[0].eta, tables[1].eta)
        rebuilt = synthesize_tables(verdict.model, settings)
        error = max(float(np.abs(a.probs - b.probs).max()) for a, b in zip(rebuilt, tables))
        if error > RECONSTRUCTION_TOL:
            return [f"{instance.label}: returned model misses the tables by {error:.3g}"]
        return []
    law, value = diluted_value(instance.p_pair), chsh_of(t.probs for t in tables)
    if abs(value - law) > VALUE_TOL:
        return [f"{instance.label}: table CHSH {value!r} breaks the dilution law {law!r}"]
    if verdict.feasible:
        return [f"{instance.label}: Feasible verdict on a CHSH-violating table"]
    cert = verdict.certificate
    return certificate_problems(cert.coefficients, cert.local_bound, cert.quantum_value, tables, instance.label)


def decide(instance: LhvInstance, tracer, tally: Tally, samples) -> tuple[float, float] | None:
    """One lhv_feasible decision, checked; returns its (start, seconds)."""
    try:
        with tracer.span("lhv.lhv_feasible") as attrs:
            start = time.perf_counter()
            verdict = lhv_feasible(instance.tables)
            elapsed = time.perf_counter() - start
            attrs.update(verdict_attrs(verdict))
    except Exception as exc:
        tally.record([f"{instance.label}: {type(exc).__name__}: {exc}"])
        return None
    samples["lhv_decide_ms"].append(elapsed * 1e3)
    problems = guarded(check_verdict, instance, verdict)
    tally.record(problems, known=instance.known_defect and verdict.feasible and len(problems) == 1)
    return start, elapsed


class LhvSweep(Workload):
    def __init__(self, seed: int, n_bins: int) -> None:
        self.instances = lhv_instances(seed)
        self.inputs = {
            "sweep_p_pairs": list(SWEEP_P_PAIRS),
            "local_instances": [i.label for i in self.instances if i.local],
            "known_feasible_max_p": KNOWN_FEASIBLE_MAX_P,
        }

    def warm_up(self, ctx: Context) -> None:
        self.cycle(ctx, Tally(), defaultdict(list), -1)

    def cycle(self, ctx: Context, tally: Tally, samples, index: int) -> float:
        parts = [decide(i, ctx.tracer, tally, samples) for i in self.instances]
        parts = [part for part in parts if part is not None]
        samples["op"].append(parts)
        return sum(seconds for _, seconds in parts)


class CountingCsv(Workload):
    def __init__(self, seed: int, n_bins: int) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.config = run_config(README_CONFIG["seed"], n_bins, README_CONFIG["p_pair"], 1.0)
        self.config_path = WORK / "run.json"
        self.config_path.write_text(json.dumps(self.config))
        self.csv_path = WORK / "events.csv"
        self.csv_bytes = 0
        self.inputs = {"config": self.config, "simulate_seed": "seed + cycle index"}

    def layer_facts(self, tracer: Tracer) -> dict:
        facts = stream_facts(RunConfig.from_json_dict(self.config), tracer)
        facts["montecarlo.csv_bytes"] = self.csv_bytes
        return facts

    def cycle(self, ctx: Context, tally: Tally, samples, index: int) -> float:
        if index == 0:
            with ctx.tracer.paused():
                tally.record(guarded(check_readme_log))
        seed = self.seed + index
        argv = ["simulate", "--config", str(self.config_path), "--out", str(self.csv_path), "--seed", str(seed)]
        code, _, err, simulate_wall = ctx.run_cli(argv)
        simulated = time.perf_counter()
        samples["simulate_s"].append(simulate_wall)
        self.csv_bytes = self.csv_path.stat().st_size if self.csv_path.exists() else 0
        code2, out, err2, analyze_wall = ctx.run_cli(["analyze", "--input", str(self.csv_path)])
        samples["analyze_s"].append(analyze_wall)
        parts = [(simulated - simulate_wall, simulate_wall), (time.perf_counter() - analyze_wall, analyze_wall)]
        samples["op"].append(parts)
        try:
            with ctx.tracer.paused():
                expected = run_experiment(RunConfig.from_json_dict(dict(self.config, seed=seed)))
        except Exception as exc:
            tally.record([f"reference run: {type(exc).__name__}: {exc}"])
            tally.record(["analyze: no reference log"])
        else:
            with ctx.tracer.paused():
                tally.record(guarded(check_simulate, code, err, self.csv_path, expected))
                tally.record(guarded(check_analyze, code2, out, err2, expected, self.config["p_pair"]))
        self.csv_path.unlink(missing_ok=True)
        return simulate_wall + analyze_wall


class CountingLossy(Workload):
    def __init__(self, seed: int, n_bins: int) -> None:
        self.seed = seed
        self.n_bins = n_bins
        self.reference = lossy_reference_chsh(OPTIMAL_SETTINGS, LOSSY_P_PAIR, LOSSY_EFFICIENCY)
        self.inputs = {
            "config": run_config(seed, n_bins, LOSSY_P_PAIR, LOSSY_EFFICIENCY),
            "run_seed": "seed + cycle index",
            "exact_lossy_chsh": self.reference,
        }

    def config(self, index: int) -> RunConfig:
        return RunConfig.from_json_dict(
            run_config(self.seed + index, self.n_bins, LOSSY_P_PAIR, LOSSY_EFFICIENCY)
        )

    def warm_up(self, ctx: Context) -> None:
        config = RunConfig.from_json_dict(run_config(self.seed, 10_000, LOSSY_P_PAIR, LOSSY_EFFICIENCY))
        estimate_correlators(run_experiment(config))

    def layer_facts(self, tracer: Tracer) -> dict:
        return stream_facts(self.config(0), tracer)

    def cycle(self, ctx: Context, tally: Tally, samples, index: int) -> float:
        config = self.config(index)
        tracer = ctx.tracer
        try:
            with tracer.span("montecarlo.run_experiment"):
                start = time.perf_counter()
                log = run_experiment(config)
                simulated = time.perf_counter()
            with tracer.span("montecarlo.estimate_correlators") as attrs:
                report = estimate_correlators(log)
                done = time.perf_counter()
                attrs.update(report_attrs(report))
        except Exception as exc:
            tally.record([f"counting run {index}: {type(exc).__name__}: {exc}"])
            return 0.0
        samples["sim_mbins_per_s"].append(len(log) / (simulated - start) / 1e6)
        samples["estimate_ms"].append((done - simulated) * 1e3)
        samples["op"].append([(start, done - start)])
        problems = [] if report.n_bins == config.n_bins else [f"report has {report.n_bins} bins"]
        tally.record(problems + estimate_problems(report, self.reference, "lossy estimate"))
        return done - start


WORKLOAD_TYPES = {
    "theory": Theory,
    "lhv-sweep": LhvSweep,
    "counting-csv": CountingCsv,
    "counting-lossy": CountingLossy,
}


# -- timed runs -----------------------------------------------------------------


def timed_run(
    workload: str, seed: int, seconds: float, n_bins: int, run_cli=None, calibration=None
) -> dict:
    """Closed-loop cycles for ``seconds``, calibrated between cycles; tracing off.

    Each ``op`` sample is a list of (start, seconds) parts, so that every part
    can be speed-normalised by the calibration runs around it.
    """
    instance = WORKLOAD_TYPES[workload](seed, n_bins)
    calibration = calibration or Calibration()
    ctx = Context(NoTracer(), run_cli)
    instance.warm_up(ctx)
    tally = Tally()
    samples: dict[str, list[float]] = defaultdict(list)
    cycles: list[float] = []
    calibration.measure()
    started = time.perf_counter()
    index = 0
    while should_continue(started, seconds, cycles):
        cycle_start = time.perf_counter()
        instance.cycle(ctx, tally, samples, index)
        calibration.measure()
        cycles.append(time.perf_counter() - cycle_start)
        index += 1
    calibration.measure()
    return {
        "samples": dict(samples),
        "calibration": calibration.samples,
        "tally": tally.to_json(),
        "inputs": instance.inputs,
    }


# -- traced runs ----------------------------------------------------------------


def _patch_program(tracer: Tracer) -> None:
    """Wrap public callables where the calling module looks them up."""
    tracer.patch(cli, "build_experiment_state", "optics.build_experiment_state")
    tracer.patch(cli, "optimize_angles", "bell.optimize_angles")
    tracer.patch(cli, "chsh_decomposition", "bell.chsh_decomposition")
    tracer.patch(cli, "lhv_feasible", "lhv.lhv_feasible", verdict_attrs)
    tracer.patch(cli, "run_experiment", "montecarlo.run_experiment")
    tracer.patch(cli, "estimate_correlators", "montecarlo.estimate_correlators", report_attrs)
    tracer.patch(EventLog, "to_csv", "montecarlo.EventLog.to_csv")
    tracer.patch(EventLog, "from_csv", "montecarlo.EventLog.from_csv")
    tracer.patch(bell, "rotate_station_basis", "measurement.rotate_station_basis")
    tracer.patch(bell, "joint_distribution", "measurement.joint_distribution")
    tracer.patch(measurement, "apply_mode_unitary", "fock.apply_mode_unitary")
    tracer.patch(lhv, "linprog", "lhv.linprog", lambda r: {"nit": int(r.nit), "status": int(r.status)})
    tracer.patch(lhv, "local_bound_by_enumeration", "lhv.local_bound_by_enumeration")


def traced_run(workload: str, seed: int, seconds: float, n_bins: int) -> dict:
    """Alternate traced and untraced in-process passes; spans give the layers."""
    instance = WORKLOAD_TYPES[workload](seed, n_bins)
    tracer = Tracer(f"{workload}/seed{seed}")
    traced_ctx = Context(tracer, inprocess_cli(tracer))
    plain_ctx = Context(NoTracer(), inprocess_cli(NoTracer()))
    tally = Tally()
    samples: dict[str, list[float]] = defaultdict(list)
    traced_times: list[float] = []
    plain_times: list[float] = []
    pairs: list[float] = []
    extra: dict = {}
    started = time.perf_counter()
    index = 0
    while should_continue(started, seconds, pairs):
        pair_start = time.perf_counter()
        if index % 2:
            plain_times.append(instance.cycle(plain_ctx, tally, defaultdict(list), index))
        tracer.pass_no += 1
        _patch_program(tracer)
        try:
            traced_times.append(instance.cycle(traced_ctx, tally, samples, index))
        finally:
            tracer.restore()
        extra = instance.layer_facts(tracer)
        if not index % 2:
            plain_times.append(instance.cycle(plain_ctx, tally, defaultdict(list), index))
        pairs.append(time.perf_counter() - pair_start)
        index += 1
    tracer.write_jsonl(WORK / f"trace-{workload}.jsonl")
    layers = layer_metrics(tracer, tracer.pass_no)
    layers.update(extra)
    if layers["montecarlo.run_experiment_s"] and layers["montecarlo.rng_floor_s"]:
        layers["montecarlo.sampling_s"] = layers["montecarlo.run_experiment_s"] - layers["montecarlo.rng_floor_s"]
    layers["trace.overhead_share"] = statistics.median(traced_times) / statistics.median(plain_times) - 1.0
    return {"layers": layers, "tally": tally.to_json(), "inputs": instance.inputs}


def _median(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics from the spans; counts and self times are per pass."""
    spans = tracer.spans
    kids = tracer.children()
    by_name: dict[str, list[int]] = defaultdict(list)
    for index, rec in enumerate(spans):
        by_name[rec[0]].append(index)

    def durations(name: str) -> list[float]:
        return [spans[i][3] - spans[i][2] for i in by_name.get(name, ())]

    totals = tracer.self_times()
    metrics = {name: 0.0 for name in PER_LAYER if not name.startswith("import.")}
    for name in ("fock.apply_mode_unitary", "measurement.rotate_station_basis", "measurement.joint_distribution"):
        calls, _, self_s = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = calls / passes
        metrics[f"{name}_ms"] = self_s / passes * 1e3
    metrics["optics.build_experiment_state_ms"] = _median(durations("optics.build_experiment_state"), 1e3)
    metrics["bell.optimize_angles_s"] = _median(durations("bell.optimize_angles"))
    grid_shares = []
    for i in by_name.get("bell.optimize_angles", ()):
        name, _, start, end, _, _ = spans[i]
        refine = [spans[k][2] for k in kids.get(i, ()) if spans[k][0] == "measurement.joint_distribution"]
        if refine and end > start:
            grid_shares.append((min(refine) - start) / (end - start))
    if grid_shares:
        metrics["bell.optimize.grid_share"] = statistics.median(grid_shares)
        metrics["bell.optimize.refine_share"] = 1.0 - metrics["bell.optimize.grid_share"]
    metrics["bell.chsh_decomposition_ms"] = _median(durations("bell.chsh_decomposition"), 1e3)

    decisions = by_name.get("lhv.lhv_feasible", [])
    solve, enum, build, gaps, errors = [], [], [], [], []
    iterations = enum_calls = 0
    for i in decisions:
        children = [spans[k] for k in kids.get(i, ())]
        lp = [c for c in children if c[0] == "lhv.linprog"]
        en = [c for c in children if c[0] == "lhv.local_bound_by_enumeration"]
        solve.append(sum(c[3] - c[2] for c in lp))
        enum.append(sum(c[3] - c[2] for c in en))
        build.append(spans[i][3] - spans[i][2] - solve[-1] - enum[-1])
        iterations += sum((c[5] or {}).get("nit", 0) for c in lp)
        enum_calls += len(en)
        attrs = spans[i][5] or {}
        if attrs.get("feasible"):
            errors.append(attrs["reconstruction_error"])
        elif "gap" in attrs:
            gaps.append(attrs["gap"])
    if decisions:
        # Means, so that linprog + enumeration + build add up to the decision.
        metrics["lhv.decide_ms"] = statistics.fmean(durations("lhv.lhv_feasible")) * 1e3
        metrics["lhv.linprog_ms"] = statistics.fmean(solve) * 1e3
        metrics["lhv.highs_iterations"] = iterations / passes
        metrics["lhv.enumeration_ms"] = statistics.fmean(enum) * 1e3
        metrics["lhv.enumeration_calls_per_decision"] = enum_calls / len(decisions)
        metrics["lhv.build_ms"] = statistics.fmean(build) * 1e3
        if len(build) > 1:
            metrics["lhv.constraint_matrix_cold_ms"] = (build[0] - statistics.median(build[1:])) * 1e3
        metrics["lhv.certificate_gap_min"] = min(gaps, default=0.0)
        metrics["lhv.reconstruction_error_max"] = max(errors, default=0.0)

    metrics["montecarlo.to_csv_s"] = _median(durations("montecarlo.EventLog.to_csv"))
    metrics["montecarlo.from_csv_s"] = _median(durations("montecarlo.EventLog.from_csv"))
    metrics["montecarlo.run_experiment_s"] = _median(durations("montecarlo.run_experiment"))
    metrics["montecarlo.rng_floor_s"] = _median(durations("montecarlo.rng_floor"))
    metrics["montecarlo.estimate_correlators_ms"] = _median(durations("montecarlo.estimate_correlators"), 1e3)
    estimates = [spans[i][5] for i in by_name.get("montecarlo.estimate_correlators", ()) if spans[i][5]]
    if estimates:
        last = estimates[-1]
        metrics["montecarlo.bins"] = last["bins"]
        metrics["montecarlo.nonvacuum_bins"] = last["nonvacuum_bins"]
        for k, count in enumerate(last["pair_bins"]):
            metrics[f"montecarlo.pair_bins.{k}"] = count
    for command in ("optimize", "chsh", "lhv-check", "simulate", "analyze"):
        metrics[f"cli.{command}.inprocess_s"] = _median(durations(f"cli.{command}"))
    metrics["trace.spans_per_pass"] = len(spans) / passes
    return metrics


def run_in_process(workload: str, seed: int, seconds: float, trace: bool, n_bins: int) -> dict:
    if trace:
        return traced_run(workload, seed, seconds, n_bins)
    return timed_run(workload, seed, seconds, n_bins)
