"""The polyrew benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a polyrew checkout::

    python3 perfbench/run.py --workload analyze|normalize|decide \\
        --seed N --seconds S --trace 0|1

The op list is generated from the seed, then run in a closed loop by one
caller: each op starts when the previous one has finished, in one process,
with no threads.  Each pass over the op list runs in a fresh interpreter
(``child.py``), so every pass pays the cold start a CLI user pays and the
program's caches are left exactly as the program leaves them.  Passes
repeat until ``--seconds`` have been spent, and timings are medians over
them.  Set-up time (``import polyrew`` plus building every preset) is the
median over 15 extra fresh interpreters and every pass.  Every time is
scaled by a speed gauge timed around it (see ``child.py``), which cancels
most of the drift in the speed of a shared CPU.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` one untraced and one traced pass give the per-layer metrics
and the tracing overhead.  Every output is checked by ``check.py``, which
does not use polyrew.  Lines before the last one are a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 15
#: Seconds the child's reference loop takes at the nominal speed.  Timings
#: are reported at that speed: each is multiplied by REFERENCE_S over the
#: loop's time measured around it, which cancels most of the drift in the
#: CPU's speed.
REFERENCE_S = 0.00125
CHILD_TIMEOUT_S = 150
WORK_DIR = ".perfbench_work"

#: Calls that must be nonzero, and calls that must be zero, on each workload
#: in a traced pass: a binding the tracer missed cannot pass silently.
CRITICAL = ("critical.enumerate", "critical.critical_pairs_on",
            "critical.check_local_confluence")
MATCHING = ("diagram.exchange_closure", "diagram.canonical_form",
            "rewrite.find_matches", "rewrite.normalize", "cli.main")
EXPECTED_CALLS = {
    "analyze": (MATCHING + CRITICAL + ("termination.check_decrease",),
                ("braid.garside_nf", "coherence.braid_of_trace",
                 "rewrite.validate_trace")),
    "normalize": (MATCHING,
                  CRITICAL + ("braid.garside_nf", "coherence.braid_of_trace",
                              "termination.check_decrease")),
    "decide": (MATCHING + ("rewrite.validate_trace", "coherence.structural_normal_form",
                           "coherence.braid_of_trace", "braid.garside_nf"),
               CRITICAL + ("termination.check_decrease",)),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _materialize(ops: list[dict], work: str) -> list[dict]:
    """Write the ops' input files under ``work`` and point argv at them."""
    out = []
    for op in ops:
        op = dict(op)
        for name, text in op.pop("files", {}).items():
            with open(name.format(dir=work), "w", encoding="utf-8") as fh:
                fh.write(text)
        if "argv" in op:
            op["argv"] = [a.format(dir=work) if a.startswith("{dir}") else a
                          for a in op["argv"]]
        out.append(op)
    return out


def _child(root: str, mode: str, ops_path: str, work: str, tag: str) -> dict:
    result_path = os.path.join(work, f"result-{tag}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), mode, ops_path,
             result_path],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _scaled(p: dict) -> list[float]:
    """A pass's op latencies at the nominal speed: each is scaled by the mean
    of the reference timings taken just before and just after it."""
    refs, out, k = p["refs"], [], 0
    for i, res in enumerate(p["results"]):
        while refs[k + 1][0] <= i:
            k += 1
        out.append(res["seconds"] * 2 * REFERENCE_S / (refs[k][1] + refs[k + 1][1]))
    return out


def run(args) -> tuple[dict, list[str]]:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polyrew", "__init__.py")):
        raise BenchError("run from the root of a polyrew checkout: src/polyrew is missing")
    ops = workloads.build(args.workload, args.seed, os.path.join(root, "src"))
    digest = hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()
    work = os.path.join(WORK_DIR, str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        runnable = _materialize(ops, work)
        ops_path = os.path.join(work, "ops.json")
        with open(ops_path, "w", encoding="utf-8") as fh:
            json.dump(runnable, fh)
        setup_only = [_child(root, "setup", ops_path, work, f"setup{i}")
                      for i in range(SETUP_SAMPLES)]
        passes = []
        if args.trace:
            passes.append(_child(root, "plain", ops_path, work, "plain"))
            traced = _child(root, "trace", ops_path, work, "trace")
        else:
            started = time.perf_counter()
            # At least 100 op samples, so that 10 lie beyond op_p90_ms.
            while (time.perf_counter() - started < args.seconds
                   or sum(len(p["results"]) for p in passes) < 100):
                passes.append(_child(root, "plain", ops_path, work, f"pass{len(passes)}"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    problems = []
    checked = passes + ([traced] if args.trace else [])
    for p in checked:
        for i, (op, res) in enumerate(zip(ops, p["results"])):
            why = check.check(op, res)
            if why:
                problems.append(f"op {i} ({' '.join(op.get('argv', [op['kind']])[:3])}): {why}")
    attempted = sum(len(p["results"]) for p in checked)
    failed = len(problems)
    scaled = [_scaled(p) for p in passes]
    latencies = [s for pass_ in scaled for s in pass_]
    walls = [sum(pass_) for pass_ in scaled]
    setups = [s["setup_s"] * REFERENCE_S / s["setup_ref"] for s in setup_only + checked]
    raw_walls = [sum(r["seconds"] for r in p["results"]) for p in passes]
    speed = statistics.median(r for p in passes for _, r in p["refs"]) / REFERENCE_S
    lines = [
        f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass, "
        f"{len(passes)} untraced pass(es), closed loop, 1 caller",
        f"inputs sha256 {digest}",
        f"error_rate {failed / attempted:.4f} ({failed}/{attempted} ops)",
        f"reference loop {speed:.3f}x its nominal time; unscaled wall "
        f"{statistics.median(raw_walls):.4g} s",
    ]
    if args.trace:
        metrics = dict(traced["layers"])
        metrics["trace_overhead"] = sum(_scaled(traced)) / walls[0]
        nonzero, zero = EXPECTED_CALLS[args.workload]
        for name in nonzero:
            if not metrics[f"{name}.calls"]:
                problems.append(f"{name} has no calls on {args.workload}")
        for name in zero:
            if metrics[f"{name}.calls"]:
                problems.append(f"{name} has calls on {args.workload}")
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        lines.append(f"op latency samples {len(latencies)}; setup samples {len(setups)}")
        units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    for name in units:
        lines.append(f"{name} {metrics[name]:.6g} {units[name]}")
    lines += [f"FAILED {p}" for p in problems[:20]]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, lines


def _spec() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result, lines = run(args)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
