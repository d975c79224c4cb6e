"""End-to-end + per-layer benchmark of the repro quantum runtime.

One workload, as the acceptance driver runs it (the last stdout line is one
JSON object; ``--trace 0`` prints the end-to-end metrics of a timed run,
``--trace 1`` the per-layer metrics of a traced run)::

    python3 benchmarks/e2e/run.py --workload broker_cold --seed 7 --seconds 10 --trace 0

Everything, each workload in its own fresh interpreter, timed then traced::

    python3 benchmarks/e2e/run.py [--seed N] [--out benchmarks/e2e/out/result.json]

Tools: ``--compare A.json B.json`` judges a before/after pair cell by cell,
``--aa`` runs everything twice and compares the two, ``--selfcheck`` tests
the harness itself.  README.md explains the output.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"
DEFAULT_SEED = 20230523
#: Set-up is repeated so its reported time is a median, not one sample: the
#: workload's set-up in this process, the program's import in this process
#: and in ``IMPORT_REPEATS - 1`` fresh child interpreters.
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
MIN_BLOCKS = 3
#: Blocks (evenly spaced over the run) whose samples get the oracle's deep
#: check, so the untimed tail of a run does not grow with ``--seconds``.
ORACLE_BLOCKS = 6


def load_contract() -> dict:
    return json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def import_program() -> None:
    """Make ``repro`` importable; exit non-zero where its source is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: {SRC}/repro not found - the benchmark runs the program from source")
    # The program sizes its simulator pools from OMP_NUM_THREADS; the
    # benchmark measures its own default.
    os.environ.pop("OMP_NUM_THREADS", None)
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def set_up(name: str, seed: int):
    """Set the workload up ``SETUP_REPEATS`` times; keep the last one open.

    Returns (workload, first block, seconds of each repetition).  Process-
    wide caches are cleared before each repetition so every one pays what a
    fresh process pays.
    """
    from repro.ir.transforms.clifford import clear_clifford_cache
    from repro.simulator.plan_cache import reset_plan_cache
    from workloads import WORKLOADS

    seconds = []
    for repeat in range(SETUP_REPEATS):
        reset_plan_cache()
        clear_clifford_cache()
        started = time.perf_counter()
        workload = WORKLOADS[name](seed)
        workload.prepare()
        block = workload.next_block()
        seconds.append(time.perf_counter() - started)
        if repeat < SETUP_REPEATS - 1:
            workload.close()
    return workload, block, seconds


def import_seconds(own: float) -> list[float]:
    """Seconds the program's import takes: this process's, and that of fresh
    child interpreters, each run to its end before the next starts."""
    seconds = [own]
    for _ in range(IMPORT_REPEATS - 1):
        child = subprocess.run([sys.executable, str(HERE / "run.py"), "--import-probe"],
                               capture_output=True, text=True, timeout=120, check=True)
        seconds.append(float(child.stdout.split()[-1]))
    return seconds


def timed_run(name: str, seed: int, seconds: float, import_s: float) -> dict:
    """Blocks back to back until ``seconds`` of timed work; tracing off."""
    import oracle
    from host import host_stamp, hygiene
    from repro.core.race_detector import get_race_detector
    from stats import block_median, percentile

    stamp = host_stamp()
    imports = import_seconds(import_s)
    workload, block, setup_seconds = set_up(name, seed)
    threads_after_setup = threading.active_count()
    outcomes = []
    try:
        while True:
            outcomes.append(workload.run_block(block))
            timed = sum(o.wall_s for o in outcomes)
            if timed >= seconds and len(outcomes) >= MIN_BLOCKS:
                break
            block = workload.next_block()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        workload.close()
    left_behind = hygiene(threads_after_setup)

    problems = [error for o in outcomes for error in o.errors]
    oracle_failures = 0
    checked = outcomes
    if len(outcomes) > ORACLE_BLOCKS:
        last = len(outcomes) - 1
        checked = [outcomes[round(i * last / (ORACLE_BLOCKS - 1))] for i in range(ORACLE_BLOCKS)]
    for outcome in checked:
        for job, payload in outcome.samples:
            found = oracle.check_sample(job, payload)
            oracle_failures += bool(found)
            problems += found
    races = get_race_detector().race_count()
    if races:
        problems.append(f"{races} data races reported")
    problems += [f"{what}: {count}" for what, count in left_behind.items() if count]

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes) + oracle_failures
    good = [o for o in outcomes if o.latencies]
    if not good:
        sys.exit(f"run.py: no op of {name} completed: {problems[:3]}")

    def over_blocks(value, unit):
        middle, spread = block_median([value(o) for o in good])
        return {"value": middle, "unit": unit, "spread": spread, "blocks": len(good)}

    metrics = {
        "ops_per_s": over_blocks(lambda o: (o.attempted - o.failed) / o.wall_s, "op/s"),
        "latency_mean_ms": over_blocks(lambda o: 1e3 * statistics.fmean(o.latencies), "ms"),
        "latency_p95_ms": over_blocks(lambda o: 1e3 * percentile(o.latencies, 95), "ms"),
        "cpu_ms_per_op": over_blocks(lambda o: 1e3 * o.cpu_s / o.attempted, "ms"),
        "setup_s": {"value": statistics.median(imports) + statistics.median(setup_seconds),
                    "unit": "s", "spread": 0.0, "blocks": len(setup_seconds)},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "spread": 0.0, "blocks": 1},
    }
    return {
        "workload": name, "seed": seed, "trace": 0, "op": workload.op,
        "clients": workload.clients, "window": workload.window,
        "inputs_digest": workload.inputs_digest(), "host": stamp,
        "blocks": len(outcomes), "timed_seconds": sum(o.wall_s for o in outcomes),
        "latency_samples_per_block": len(good[0].latencies),
        "oracle_checks": sum(len(o.samples) for o in checked),
        "import_repeats_s": imports, "setup_repeats_s": setup_seconds,
        "attempted": attempted, "failed": failed,
        "correct": failed == 0 and not problems, "problems": problems[:20],
        "hygiene": left_behind, "metrics": metrics,
    }


def traced_run(name: str, seed: int, import_s: float) -> dict:
    import layers
    from host import host_stamp

    stamp = host_stamp()
    units = {m["name"]: m["unit"] for m in load_contract()["per_layer"]}
    result = layers.traced_run(name, seed, OUT / f"{name}.spans.jsonl", units)
    result.update({"workload": name, "seed": seed, "trace": 1, "host": stamp,
                   "import_s": import_s})
    return result


def run_one(args) -> int:
    """Driver mode: one workload, one JSON object as the last stdout line."""
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        sys.exit(f"run.py: unknown workload {args.workload!r}; BENCHMARK.json names {names}")
    import_program()
    import workloads  # noqa: F401  (its imports are the program's import cost)

    import_s = time.perf_counter() - _PROCESS_START
    if args.trace:
        result = traced_run(args.workload, args.seed, import_s)
        expected = [m["name"] for m in contract["per_layer"]]
    else:
        result = timed_run(args.workload, args.seed, args.seconds, import_s)
        expected = [m["name"] for m in contract["end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        sys.exit(f"run.py: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(result['metrics']) ^ set(expected))}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}.trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=float))

    host = result["host"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"inputs_digest={result['inputs_digest']} nproc={host['nproc']} "
          f"loadavg={host['loadavg_before']:.2f}")
    if host["noisy_host"]:
        print("# noisy_host: 1-minute load average exceeds nproc / 2")
    for metric, cell in result["metrics"].items():
        extra = ""
        if "spread" in cell:
            extra = f"  spread={cell['spread']:.3f} blocks={cell['blocks']}"
        print(f"{metric:42s} {cell['value']:14.6g} {cell['unit']}{extra}")
    for problem in result["problems"]:
        print(f"# problem: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": float(v["value"]), "unit": v["unit"]}
                    for k, v in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# Everything, compare, A/A
# ---------------------------------------------------------------------------


def run_all(seed: int, out_path: Path) -> dict:
    """Every workload in a fresh child interpreter: timed, then traced."""
    contract = load_contract()
    results = {"seed": seed, "workloads": {}}
    for entry in contract["workloads"]:
        name = entry["name"]
        cells = {}
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(contract["run_seconds"]),
                       "--trace", str(trace)]
            child = subprocess.run(command, capture_output=True, text=True, timeout=900)
            sys.stdout.write(child.stdout)
            if child.returncode != 0:
                sys.stderr.write(child.stderr)
                sys.exit(f"run.py: {name} --trace {trace} exited {child.returncode}")
            cells[f"trace{trace}"] = json.loads(
                (OUT / f"{name}.trace{trace}.json").read_text())
        results["workloads"][name] = cells
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(results, indent=1))
    print(f"# wrote {out_path}")
    return results


#: Counts the inputs fix: two runs of one commit at one seed must agree.
#: (``service.executions_count`` also does, except on ``broker_warm``, where
#: the program's coalescing of a burst depends on thread timing.)
SEED_FIXED_COUNTS = ("simulator.plan_steps_count", "simulator.plan_compiles_count",
                     "service.cache_evictions_count", "service.top_ups_count",
                     "service.stabilizer_executions_count")


def compare_results(before: dict, after: dict) -> int:
    """Print one row per (metric, workload); return the number of regressions."""
    from stats import compare

    contract = load_contract()
    regressions = 0
    print(f"{'workload':14s} {'metric':16s} {'before':>12s} {'after':>12s} "
          f"{'after/before':>12s} {'bound':>6s}  verdict")
    for name, cells in before["workloads"].items():
        other = after["workloads"][name]
        if cells["trace0"]["inputs_digest"] != other["trace0"]["inputs_digest"]:
            print(f"{name:14s} inputs_digest differs: the two runs had different inputs")
            regressions += 1
        for metric in contract["end_to_end"]:
            row = compare(metric["name"], metric["better"], metric["bound"],
                          cells["trace0"]["metrics"][metric["name"]],
                          other["trace0"]["metrics"][metric["name"]])
            regressions += row["verdict"] == "regress"
            print(f"{name:14s} {row['metric']:16s} {row['before']:12.5g} {row['after']:12.5g} "
                  f"{row['ratio']:12.4f} {row['bound']:6.2f}  {row['verdict']}")
        if other["trace0"]["failed"] > cells["trace0"]["failed"]:
            print(f"{name:14s} failed ops rose: {cells['trace0']['failed']} -> "
                  f"{other['trace0']['failed']}  regress")
            regressions += 1
        counts = SEED_FIXED_COUNTS
        if name != "broker_warm":
            counts += ("service.executions_count",)
        for count in counts:
            a = cells["trace1"]["metrics"][count]["value"]
            b = other["trace1"]["metrics"][count]["value"]
            if a != b:
                print(f"{name:14s} {count} changed: {a} -> {b}  (behaviour changed)")
                regressions += 1
    return regressions


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT / "result.json")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"), type=Path)
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--import-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.import_probe:  # what ``run_one`` does before it takes ``import_s``
        import_program()
        import workloads  # noqa: F401

        print(time.perf_counter() - _PROCESS_START)
        return 0
    if args.seconds is None:
        args.seconds = float(load_contract()["run_seconds"])

    if args.selfcheck:
        import_program()
        import selfcheck

        return selfcheck.main()
    if args.compare:
        before, after = (json.loads(path.read_text()) for path in args.compare)
        return 1 if compare_results(before, after) else 0
    if args.aa:
        first = run_all(args.seed, OUT / "aa.A.json")
        second = run_all(args.seed, OUT / "aa.B.json")
        return 1 if compare_results(first, second) else 0
    if args.workload:
        from host import stop_child_processes

        try:
            return run_one(args)
        finally:  # on every path out, an error's too
            stop_child_processes()
    run_all(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
