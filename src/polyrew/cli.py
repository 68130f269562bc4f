"""Command-line entry point.

``_VERBS`` names each verb, its handler and the flags it reads; a verb
accepts only those flags, plus ``--format`` (text or JSON) and ``--out``.  A
polygraph comes from a compiled-in preset (``--preset``) or, where the verb
reads it, a file (``--polygraph``).  Exit codes: 0 = success/Equal, 1 =
the analysis found a failure (non-confluence, a failed grid certificate,
NotEqual/NotParallel), 2 = input error: any ``PolyrewError``, such as an
exhausted ``--budget`` in any verb (``info``'s smoke test included), input
too large to process (``RecursionError``, ``MemoryError`` or
``OverflowError``), a negative ``--budget`` or a flag the verb does not read.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .coherence import (
    PRESET_NAMES,
    Preset,
    decide_coherence,
    get_preset,
)
from .critical import (
    CertificateFailedError,
    ConfluenceError,
    asphericity_pipeline,
    enumerate_critical_branchings,
    homotopy_basis,
    local_confluence,
)
from .diagram import PolyrewError, canonical_form, parse_diagram, print_diagram
from .rewrite import (
    DEFAULT_BUDGET,
    Polygraph,
    normalize,
    parse_polygraph,
    parse_trace,
    print_polygraph,
    print_trace,
)
from .termination import check_decrease, parse_interpretation


class InputError(PolyrewError):
    """Bad command-line input; maps to exit code 2."""


def _natural(text: str) -> int:
    """A ``--budget`` value: a decimal natural."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a natural, not {n}")
    return n


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first ``main`` call, not at import, and reused: in-process
    # callers run ``main`` many times.
    parser = argparse.ArgumentParser(
        prog="polyrew",
        description="polygraphic rewriting workbench for PROs and PROPs",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    options = {
        "--preset": dict(choices=PRESET_NAMES),
        "--polygraph": dict(metavar="FILE"),
        "--expr": {},
        "--trace": dict(action="append", default=[], metavar="FILE"),
        "--interp": dict(metavar="FILE"),
        "--bound": dict(type=int),
        "--budget": dict(type=_natural, default=DEFAULT_BUDGET),
        "--assume-terminating": dict(action="store_true"),
    }
    for verb, (_, flags) in _VERBS.items():
        p = sub.add_parser(verb)
        src = p.add_mutually_exclusive_group()
        for flag in flags.split():
            group = src if flag in ("--preset", "--polygraph") else p
            group.add_argument(flag, **options[flag])
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", metavar="FILE")
    return parser


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_preset(args) -> Preset | None:
    return get_preset(args.preset) if args.preset else None


def _load_polygraph(args) -> Polygraph:
    if args.preset:
        return get_preset(args.preset).polygraph
    if args.polygraph:
        return parse_polygraph(_read(args.polygraph))
    raise InputError("exactly one of --preset or --polygraph is required")


def _load_interp(args, preset: Preset | None):
    if args.interp:
        _, interp = parse_interpretation(_read(args.interp))
    elif preset is not None and preset.interp is not None:
        interp = preset.interp
    else:
        return None
    if args.bound is not None:
        interp = dataclasses.replace(interp, grid_bound=args.bound)
    return interp


# -- verbs -----------------------------------------------------------------


def _cmd_normalize(args):
    p = _load_polygraph(args)
    if not args.expr:
        raise InputError("normalize requires --expr")
    d = parse_diagram(args.expr, p.signature)
    nf, trace = normalize(d, p, args.budget)
    report = {
        "input": print_diagram(canonical_form(d)),
        "normal_form": print_diagram(nf),
        "steps": len(trace.steps),
        "trace": print_trace(trace, "normalization"),
    }
    text = f"{report['normal_form']}\n{report['steps']} step(s)"
    return 0, report, text


def _cmd_critical(args):
    p = _load_polygraph(args)
    branchings = enumerate_critical_branchings(p)
    report = {
        "count": len(branchings),
        "branchings": [b.to_dict() for b in branchings],
    }
    lines = [f"{len(branchings)} critical branching(s)"]
    for b in branchings:
        lines.append(f"  {b}")
    return 0, report, "\n".join(lines)


def _cmd_confluence(args):
    p = _load_polygraph(args)
    results, failures = local_confluence(p, args.budget)
    report = {
        "count": len(results),
        "confluent": not failures,
        "results": [r.to_dict() for r in results],
        "failure_count": len(failures),
    }
    lines = [
        f"{len(results)} branching(s), "
        + ("all locally confluent" if not failures
           else f"{len(failures)} NOT locally confluent")
    ]
    for f in failures:
        lines.append(f"  FAIL {f.branching}")
    return (0 if not failures else 1), report, "\n".join(lines)


def _cmd_termination(args):
    p = _load_polygraph(args)
    interp = _load_interp(args, _load_preset(args))
    if interp is None:
        raise InputError(
            "termination requires --interp (or a preset with a built-in "
            "interpretation)"
        )
    cert = check_decrease(p, interp)
    return (0 if cert.passed else 1), cert.to_dict(), cert.verdict


def _cmd_homotopy_basis(args):
    p = _load_polygraph(args)
    interp = _load_interp(args, _load_preset(args))
    try:
        basis = homotopy_basis(
            p,
            interp=interp,
            assume_terminating=args.assume_terminating,
            budget=args.budget,
        )
    except (CertificateFailedError, ConfluenceError) as exc:
        return 1, exc.to_dict(), f"no homotopy basis: {exc}"
    report = {"count": len(basis), "cells": [cd.to_dict() for cd in basis]}
    lines = [f"homotopy basis with {len(basis)} generating 4-cell(s)"]
    for cd in basis:
        lines.append(f"  {cd.branching}")
    return 0, report, "\n".join(lines)


def _cmd_decide(args):
    preset = _load_preset(args)
    if preset is None:
        raise InputError("decide requires --preset")
    if len(args.trace) != 2:
        raise InputError("decide requires exactly two --trace files")
    t1 = parse_trace(_read(args.trace[0]), preset.polygraph)
    t2 = parse_trace(_read(args.trace[1]), preset.polygraph)
    decision = decide_coherence(preset, t1, t2)
    code = 0 if decision.outcome == "Equal" else 1
    return code, decision.to_dict(), decision.outcome


def _cmd_info(args):
    p = _load_polygraph(args)
    preset = _load_preset(args)
    interp = _load_interp(args, preset)
    expected = preset.expected_proper if preset else None
    report = asphericity_pipeline(
        p,
        interp=interp,
        expected_proper=expected,
        budget=args.budget,
    )
    lines = [
        f"polygraph {report.polygraph} "
        f"({'prop' if report.is_prop else 'pro'}, {len(p.rules)} rule(s))",
        f"branchings: {len(report.branchings)}",
        f"confluent: {report.confluent}",
        f"confluent modulo structure: {report.confluent_modulo_structure}",
    ]
    if report.family_counts:
        tally = ", ".join(f"{k}={v}" for k, v in report.family_counts.items())
        lines.append(f"families: {tally}")
    lines.append(f"verdict: {report.verdict}")
    return (0 if report.ok else 1), report.to_dict(), "\n".join(lines)


def _cmd_export(args):
    p = _load_polygraph(args)
    text = print_polygraph(p)
    return 0, {"polygraph": text}, text.rstrip("\n")


_VERBS = {
    "normalize": (_cmd_normalize, "--preset --polygraph --expr --budget"),
    "critical": (_cmd_critical, "--preset --polygraph"),
    "confluence": (_cmd_confluence, "--preset --polygraph --budget"),
    "termination": (_cmd_termination, "--preset --polygraph --interp --bound"),
    "homotopy-basis": (_cmd_homotopy_basis, "--preset --polygraph --interp "
                       "--bound --budget --assume-terminating"),
    "decide": (_cmd_decide, "--preset --trace"),
    "info": (_cmd_info, "--preset --polygraph --interp --bound --budget"),
    "export": (_cmd_export, "--preset --polygraph"),
}


def _emit(args, report: dict, text: str) -> None:
    payload = (
        json.dumps(report, indent=2) if args.format == "json" else text
    ) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(payload)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, report, text = _VERBS[args.verb][0](args)
        _emit(args, report, text)
        return code
    except PolyrewError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (RecursionError, MemoryError, OverflowError) as exc:
        sys.stderr.write(f"error: input too large ({type(exc).__name__})\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
