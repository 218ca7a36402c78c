"""One fresh interpreter of the benchmark: import ccrflow, run CLI lines.

Usage: python3 perfbench/child.py '<spec json>'

The spec holds ``mode`` ("setup" returns right after the import; "pass"
runs the command lines), ``trace`` and ``invocations``, a list of
``[argv, out_dir]`` pairs handed to ``ccrflow.cli.main``.  The child
prints one JSON object as its last line of output.  ``imported_at`` is the
wall clock (``time.time``) right after ``ccrflow.cli`` finished importing,
so the parent can time set-up from before it started this interpreter.
"""

import time

import ccrflow.cli

IMPORTED_AT = time.time()

import contextlib  # noqa: E402  (everything else comes after the timed import)
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_pins": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def _read_checks(out_dir: Path, subcommand: str) -> tuple[list[dict], bool]:
    """Checks from summary.json, and whether every per-check artifact agrees.

    Missing or unreadable output gives no checks and ``False``.
    """
    checks, consistent = [], True
    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        for entry in summary["checks"]:
            artifact = out_dir / subcommand.replace("-", "_") / f"{entry['name']}.json"
            saved = json.loads(artifact.read_text(encoding="utf-8"))
            if saved["pass"] != entry["pass"] or saved["measured"] != entry["measured"]:
                consistent = False
            checks.append({"check": entry["name"], "passed": bool(entry["pass"]),
                           "measured": entry["measured"]})
    except (OSError, ValueError, KeyError, TypeError):
        return [], False
    return checks, consistent


def run_pass(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    runners = ccrflow.cli._RUNNERS
    wall_s = cpu_s = 0.0
    checks, consistent = [], True
    for argv, out_dir in spec["invocations"]:
        argv = list(argv) + ["--out", out_dir]
        subcommand = argv[0]
        sink = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(sink):
                code = ccrflow.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        wall_s += time.perf_counter() - t0
        cpu_s += time.process_time() - c0
        # None: main raised; 2: config rejected.  Either way no output to read.
        got, ok = _read_checks(Path(out_dir), subcommand) if code in (0, 1) else ([], False)
        owed = len(runners[subcommand])
        consistent = (consistent and ok and len(got) == owed
                      and (code == 0) == all(c["passed"] for c in got))
        if len(got) != owed:  # every check the command line owed fails
            got = [{"check": f"{subcommand}#{i}", "passed": False, "measured": None}
                   for i in range(owed)]
        checks.extend(got)
    out = {"wall_s": wall_s, "cpu_s": cpu_s, "checks": checks, "consistent": consistent,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        out["trace"] = tracer.to_dict()
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    out = {"imported_at": IMPORTED_AT, "environment": _environment()}
    if spec["mode"] == "pass":
        out.update(run_pass(spec))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
