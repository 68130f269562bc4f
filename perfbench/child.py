"""One pass of a workload in a fresh interpreter.

Usage: ``python3 perfbench/child.py setup|plain|trace OPS.json RESULT.json``
with ``src`` on ``PYTHONPATH``.  The child times ``import polyrew`` plus
``get_preset`` for every preset, then (unless the mode is ``setup``) runs
the ops of ``OPS.json`` one after another and writes each op's latency,
exit code and output to ``RESULT.json``.  Checking the outputs is left to
the parent, so no checking work runs in this process.

On a shared machine the speed of the CPU can drift by a factor of two
within a minute.  So the child also times a fixed pure-Python loop
(``reference``) around set-up, before the first op, after the last, and
between ops whenever ``REFERENCE_EVERY_S`` has passed.  The parent scales
each timing by the loop's speed around it.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback


REFERENCE_LOOPS = 1_500
REFERENCE_EVERY_S = 0.02


def reference() -> float:
    """Seconds for a fixed loop of dict, tuple and sort work: a gauge of how
    fast the CPU runs Python right now.  It uses nothing from polyrew, and
    the garbage collector is off while it runs, so that the size of
    polyrew's heap does not change the gauge."""
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict = {}
        for i in range(REFERENCE_LOOPS):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + 1
            tuple(sorted((i % 7, i % 5, i % 3)))
        return time.perf_counter() - start
    finally:
        gc.enable()


def _prepare(op: dict):
    """Build the op's call outside the timed interval."""
    import polyrew.braid as braid
    import polyrew.cli as cli
    import polyrew.diagram as diagram

    if op["kind"] == "cli":
        argv = op["argv"]
        # Looked up at call time so that a traced run calls the wrapper.
        return lambda: cli.main(argv)
    if op["kind"] == "canonical_form":
        eta = diagram.GeneratorSym("eta", 0, 1)
        d = diagram.Diagram(0, tuple(diagram.Slice(i, eta) for i in range(op["k"])))

        def run():
            c = diagram.canonical_form(d)
            return {"input_width": c.input_width,
                    "slices": [[s.offset, s.gen.name] for s in c.slices]}
        return run
    w1 = braid.BraidWord(op["n"], tuple(map(tuple, op["w1"])))
    w2 = braid.BraidWord(op["n"], tuple(map(tuple, op["w2"])))
    return lambda: braid.braid_equal(w1, w2)


def main() -> int:
    mode, ops_path, result_path = sys.argv[1:4]
    before = reference()
    start = time.perf_counter()
    import polyrew  # noqa: F401
    from polyrew.coherence import PRESET_NAMES, get_preset

    for name in PRESET_NAMES:
        get_preset(name)
    setup_s = time.perf_counter() - start
    out: dict = {"setup_s": setup_s, "setup_ref": (before + reference()) / 2}
    if mode != "setup":
        with open(ops_path, encoding="utf-8") as fh:
            ops = json.load(fh)
        tracer = None
        if mode == "trace":
            from tracing import Tracer
            tracer = Tracer()
        results = []
        refs = []  # (index of the next op, reference seconds)
        last_ref = 0.0
        for op_id, op in enumerate(ops):
            if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
                refs.append((op_id, reference()))
                last_ref = time.perf_counter()
            call = _prepare(op)
            stdout, stderr = io.StringIO(), io.StringIO()
            value = error = None
            if tracer:
                tracer.op_id = op_id
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                t0 = time.perf_counter()
                try:
                    value = call()
                except SystemExit as exc:  # argparse rejected the argv
                    error = f"SystemExit: {exc.code}"
                except Exception:  # a failed op is counted, the pass goes on
                    error = traceback.format_exc(limit=3).strip().splitlines()[-1]
                seconds = time.perf_counter() - t0
            record = {"seconds": seconds, "error": error}
            if op["kind"] == "cli":
                record.update(code=value, stdout=stdout.getvalue(),
                              stderr=stderr.getvalue())
                if tracer:
                    tracer.output_bytes += len(stdout.getvalue().encode())
            else:
                record["value"] = value
            results.append(record)
        refs.append((len(ops), reference()))
        out["results"] = results
        out["refs"] = refs
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            out["layers"] = tracer.metrics()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
