"""Benchmark of the ccrflow command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload is a list of real ``ccrflow`` command lines, run through
``ccrflow.cli.main`` in a fresh interpreter with BLAS/OpenMP pinned to one
thread, one child process at a time.  The seed reaches the program only
through a ``--config`` file (``[common] seed = ...``).

``--trace 0`` repeats the workload, one fresh interpreter per pass, until
``--seconds`` have elapsed (at least one pass), and reports the
``end_to_end`` metrics of BENCHMARK.json (README.md says how each is
aggregated over passes).
``--trace 1`` instead runs pairs of passes, one plain and one with the
span tracer of ``tracer.py`` installed, and reports the ``per_layer``
metrics from the traced passes; end-to-end numbers never come from traced
passes.  Every run also writes a record (environment, each check's
``passed`` and ``measured`` for every pass, and the metrics) to
``.perfbench-out/results/``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  One operation is one check
(one ExperimentReport); it fails when the command line raises, exits 2, or
reports ``passed=false``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

THREAD_PINS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
SETUP_SAMPLES = 5  # single imports spread by up to 50%; see README.md
# A run stops starting passes once --seconds have elapsed; the pass (or
# traced pair) still going then, and the set-up samples after it, get this
# much longer before the run gives up.
PASS_CAP_S = 150.0
MIN_ATTRIBUTED_SHARE = 0.9


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


@dataclass(frozen=True)
class Workload:
    invocations: tuple  # ccrflow argv lists, run one after another in one interpreter
    needs_displacements: bool  # the traced run must see displacement_batch calls


# Why each workload exists, which layers it loads and its repeat_share are
# in README.md; keep the two in step.
WORKLOADS = {
    "purity-long": Workload(
        (("purity", "--truncation", "32", "--times", "0,0.5,1,2,4,8"),), True),
    "heatflow-paths": Workload((("heatflow", "--times", "0.25,0.5"),), True),
    "phase-lab": Workload(
        (("weyl-check",), ("choi",), ("lemma37",), ("beurling",)), False),
}

LAYER_FIELDS = {"calls", "self_s", "incl_s", "matrices", "computed_bytes",
                "points", "bytes", "matrices_per_s", "repeat_share"}


def config_seed(seed: int, index: int) -> int:
    """The ccrflow seed of pass ``index`` of a run with benchmark seed ``seed``."""
    return (seed * 1000 + index) % 2 ** 31


# --------------------------------------------------------------------------
# child processes

def run_child(spec: dict, deadline: float) -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    started = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("child ran past the run's deadline "
                         f"(--seconds plus {PASS_CAP_S:.0f} s)") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["imported_at"] - started
    return result


def run_pass(workload: Workload, seed: int, index: int, trace: bool, deadline: float) -> dict:
    ccrflow_seed = config_seed(seed, index)
    work = OUT / "work" / f"{os.getpid()}-{index}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cfg = work / "config.ini"
        cfg.write_text(f"[common]\nseed = {ccrflow_seed}\n", encoding="utf-8")
        invocations = [[[argv[0], "--config", str(cfg), *argv[1:]], str(work / f"out{i}")]
                       for i, argv in enumerate(workload.invocations)]
        result = run_child({"mode": "pass", "trace": trace, "invocations": invocations},
                           deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["config_seed"] = ccrflow_seed
    return result


def repeat(seconds: float, body) -> list:
    """Call ``body(index)`` until ``seconds`` have elapsed, at least once."""
    out, start = [], time.monotonic()
    while not out or time.monotonic() - start < seconds:
        out.append(body(len(out)))
    return out


# --------------------------------------------------------------------------
# metrics

def _checks(passes) -> list[dict]:
    return [c for p in passes for c in p["checks"]]


def end_to_end(name: str, passes: list, setup: list) -> float:
    if name == "wall_s":
        # the mean, not the median: the machine's speed flips between two
        # levels every few seconds, and a median of a few passes jumps
        # with it while the mean moves smoothly
        return statistics.fmean(p["wall_s"] for p in passes)
    if name == "setup_s":
        return statistics.median(setup)
    if name == "peak_rss_mb":
        return statistics.median(p["rss_mb"] for p in passes)
    if name == "check_pass_share":
        checks = _checks(passes)
        return sum(c["passed"] for c in checks) / len(checks)
    raise BenchError(f"no measurement for end-to-end metric {name!r}")


def measured_drift_max(workload: str, passes: list) -> float:
    """Largest relative drift of a check's measured value from the seed commit.

    Only checks whose measured value does not depend on the seed are in
    reference.json, so every run can be compared.
    """
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[workload]
    drift = 0.0
    for c in _checks(passes):
        ref = reference.get(c["check"])
        if ref is not None and c["measured"] is not None:
            gap = abs(c["measured"] - ref)
            drift = max(drift, gap / abs(ref) if ref else gap)
    return drift


def layer_value(name: str, traced: dict) -> float:
    """One per-layer metric of one traced pass, named <layer>.<function>.<field>."""
    stats = traced["trace"]["stats"]
    if name == "trace.attributed_share":
        # the counters' own time is tracer work, not program time
        trace = traced["trace"]
        return trace["top_level_s"] / (traced["wall_s"] - trace["counter_s"])
    if name.startswith("cli.check.") and name.endswith(".s"):
        span, field = name[:-2], "incl_s"
    else:
        span, _, field = name.rpartition(".")
    if span not in stats or field not in LAYER_FIELDS:
        raise BenchError(f"no measurement for per-layer metric {name!r}")
    s = stats[span]
    if field == "matrices_per_s":
        return s.get("matrices", 0) / s["self_s"] if s["self_s"] else 0.0
    if field == "repeat_share":
        return 1.0 - s["distinct"] / s["matrices"] if s.get("matrices") else 0.0
    return s.get(field, 0)


def per_layer(names: list, workload: str, plain: list, traced: list) -> dict:
    values = {}
    for name in names:
        if name == "trace.overhead_share":
            value = (statistics.fmean(p["wall_s"] for p in traced)
                     / statistics.fmean(p["wall_s"] for p in plain))
        elif name == "process.cpu_s":
            value = statistics.median(p["cpu_s"] for p in plain)
        elif name == "cli.measured_drift_max":
            value = measured_drift_max(workload, plain + traced)
        else:
            value = statistics.median(layer_value(name, p) for p in traced)
        values[name] = value
    return values


def trace_health(workload: Workload, values: dict) -> None:
    """Refuse a traced run whose spans cannot be trusted."""
    if workload.needs_displacements and not values.get("fock.displacement_batch.calls"):
        raise BenchError("traced run saw no displacement_batch call; the tracer missed fock")
    share = values.get("trace.attributed_share", 1.0)
    if share < MIN_ATTRIBUTED_SHARE:
        raise BenchError(f"spans cover only {share:.3f} of wall time "
                         f"(need {MIN_ATTRIBUTED_SHARE})")


# --------------------------------------------------------------------------
# one workload run

def run_workload(name: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    workload = WORKLOADS[name]
    deadline = time.monotonic() + seconds + PASS_CAP_S
    if trace:
        pairs = repeat(seconds, lambda i: (run_pass(workload, seed, i, False, deadline),
                                           run_pass(workload, seed, i, True, deadline)))
        plain = [p for p, _ in pairs]
        traced = [t for _, t in pairs]
        passes = plain + traced
        values = per_layer([m["name"] for m in declared["per_layer"]], name, plain, traced)
        trace_health(workload, values)
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        setup = []
    else:
        # import-only interpreters on both sides of the passes, so the median
        # spans the run rather than one moment of the machine's load
        before = SETUP_SAMPLES - SETUP_SAMPLES // 2
        setup = [run_child({"mode": "setup"}, deadline)["setup_s"] for _ in range(before)]
        passes = repeat(seconds, lambda i: run_pass(workload, seed, i, False, deadline))
        setup += [run_child({"mode": "setup"}, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - before)]
        values = {m["name"]: end_to_end(m["name"], passes, setup)
                  for m in declared["end_to_end"]}
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    checks = _checks(passes)
    failed = sum(not c["passed"] for c in checks)
    result = {
        "correct": failed == 0 and all(p["consistent"] for p in passes),
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    _write_record(name, seed, seconds, trace, passes, setup, result)
    return result


def environment(child_env: dict) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return dict(child_env, nproc=os.cpu_count(),
                usable_cpus=len(os.sched_getaffinity(0)), cpu_model=cpu)


def _write_record(name, seed, seconds, trace, passes, setup, result) -> None:
    record = {
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(passes[0]["environment"]),
        "setup_samples_s": setup,
        "passes": [{k: p[k] for k in ("config_seed", "wall_s", "cpu_s", "rss_mb",
                                      "setup_s", "consistent", "checks", "trace")
                    if k in p} for p in passes],
        "result": result,
    }
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    path = OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}-{stamp}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    env = record["environment"]
    blas = env["blas"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"BLAS {blas.get('name')} {blas.get('version')}, threads pinned to 1, "
          f"nproc {env['nproc']}, cpu {env['cpu_model'] or 'unknown'}")
    print(f"record: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "ccrflow" / "cli.py").is_file():
            raise BenchError(f"no ccrflow sources under {ROOT / 'src'}; "
                             "run from the root of a ccrflow checkout")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         declared)
            for metric, m in results[name]["metrics"].items():
                print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
            print(f"{name}: {results[name]['attempted']} checks attempted, "
                  f"{results[name]['failed']} failed")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
