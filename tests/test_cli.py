"""End-to-end tests for the command-line interface: verbs, exit codes,
formats, and file round-trips."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import polyrew
from polyrew.cli import _build_parser, main
from polyrew.rewrite import (
    parse_polygraph,
    parse_trace,
    print_polygraph,
    print_trace,
)
from polyrew.coherence import get_preset
from polyrew.diagram import diagram_equal, parse_diagram
from polyrew.termination import MON_INTERP_TEXT

from test_coherence import beta_vs_whiskered_inverse, daleth1_legs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNormalize:
    def test_as_alpha(self, capsys):
        code, out, _ = run(
            capsys, "normalize", "--preset", "as",
            "--expr", "(mu * id 1) ; mu",
        )
        assert code == 0
        assert out.splitlines() == ["(id 1 * mu) ; mu", "1 step(s)"]

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "normalize", "--preset", "mon",
            "--expr", "(eta * id 1) ; mu", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["normal_form"] == "id 1"
        assert report["steps"] == 1

    def test_missing_expr(self, capsys):
        code, _, err = run(capsys, "normalize", "--preset", "as")
        assert code == 2
        assert "requires --expr" in err

    def test_parse_error(self, capsys):
        code, _, err = run(
            capsys, "normalize", "--preset", "as", "--expr", "nonsense !!"
        )
        assert code == 2
        assert "error:" in err

    def test_deep_nesting_parses(self, capsys):
        expr = "(" * 1500 + "mu" + ")" * 1500
        code, out, err = run(
            capsys, "normalize", "--preset", "mon", "--expr", expr,
            "--format", "json",
        )
        assert code == 0, err
        assert json.loads(out)["normal_form"] == "mu"

    def test_unicode_digit_exits_2(self, capsys):
        code, out, err = run(
            capsys, "normalize", "--preset", "mon", "--expr", "id \u00b2"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_width_past_an_index_exits_2(self, capsys):
        code, out, err = run(
            capsys, "normalize", "--preset", "mon",
            "--expr", "id 99999999999999999999",
        )
        assert (code, out) == (2, "")
        assert err == "error: input too large (OverflowError)\n"

    @pytest.mark.parametrize("verb", ["normalize", "confluence", "info"])
    def test_negative_budget_exits_2(self, capsys, verb):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--preset", "mon", "--budget", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --budget: must be a natural, not -1" in captured.err

    def test_zero_budget_still_allows_a_normal_input(self, capsys):
        code, out, _ = run(
            capsys, "normalize", "--preset", "mon", "--expr", "mu",
            "--budget", "0",
        )
        assert (code, out) == (0, "mu\n0 step(s)\n")
        code, _, err = run(
            capsys, "normalize", "--preset", "mon", "--expr", "(mu * id 1) ; mu",
            "--budget", "0",
        )
        assert code == 2
        assert "exceeded budget of 0 steps" in err


class TestCritical:
    def test_mon_five(self, capsys):
        code, out, _ = run(capsys, "critical", "--preset", "mon")
        assert code == 0
        assert out.startswith("5 critical branching(s)")

    def test_json_count(self, capsys):
        code, out, _ = run(
            capsys, "critical", "--preset", "as", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 1
        assert report["branchings"][0]["rules"] == ["alpha", "alpha"]

    def test_needs_polygraph(self, capsys):
        code, _, err = run(capsys, "critical")
        assert code == 2
        assert "--preset or --polygraph" in err


class TestConfluence:
    def test_mon_confluent(self, capsys):
        code, out, _ = run(capsys, "confluence", "--preset", "mon")
        assert code == 0
        assert "all locally confluent" in out

    def test_sym_prime_failures(self, capsys):
        code, out, _ = run(capsys, "confluence", "--preset", "sym_prime")
        assert code == 1
        assert "5 NOT locally confluent" in out


class TestTermination:
    def test_mon_passes(self, capsys):
        code, out, _ = run(capsys, "termination", "--preset", "mon")
        assert code == 0
        assert "passed" in out

    def test_bound_override(self, capsys):
        code, out, _ = run(
            capsys, "termination", "--preset", "mon",
            "--bound", "3", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["grid_bound"] == 3

    def test_interp_file(self, capsys, tmp_path):
        interp = tmp_path / "mon.interp"
        interp.write_text(
            "interp for Mon\n"
            "X mu (i, j) = i + j\nd mu (i, j) = i\n"
            "X eta () = 1\nd eta () = 0\nbound 4\n"
        )
        code, out, _ = run(
            capsys, "termination", "--preset", "mon",
            "--interp", str(interp),
        )
        assert code == 0

    def test_deep_interp_parses(self, capsys, tmp_path):
        # The interpretation parser keeps its own stack, so 1,500 nested
        # parentheses read as the flat ``i + j``.
        outs = []
        for name, x_mu in (("flat", "i + j"),
                           ("deep", f"{'(' * 1500}i{')' * 1500} + j")):
            interp = tmp_path / f"{name}.interp"
            interp.write_text(
                "interp for Mon\n"
                f"X mu (i, j) = {x_mu}\nd mu (i, j) = i\n"
                "X eta () = 1\nd eta () = 0\nbound 4\n"
            )
            code, out, err = run(
                capsys, "termination", "--preset", "mon",
                "--interp", str(interp),
            )
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]

    def test_long_sum_interp_passes(self, capsys, tmp_path):
        # A flat sum nests to the left, 1,500 terms deep; it evaluates
        # along that spine in a loop.
        interp = tmp_path / "long.interp"
        interp.write_text(
            "interp for Mon\n"
            f"X mu (i, j) = {'i + ' * 1499}j\nd mu (i, j) = i\n"
            "X eta () = 1\nd eta () = 0\nbound 4\n"
        )
        code, out, err = run(
            capsys, "termination", "--preset", "mon", "--interp", str(interp)
        )
        assert (code, err) == (0, "")
        assert "grid certificate passed (evidence, not proof; B=4)" in out

    @pytest.mark.parametrize("deep, shallow", [
        (f"{'i + (' * 1499}j{')' * 1499}", f"{'i + ' * 1499}j"),
        (f"{'max(i, ' * 1500}j{')' * 1500}", "max(i, j)"),
        (f"{'max(i, i + ' * 600}j{')' * 600}", f"{'i + ' * 600}j"),
    ], ids=["sum", "max", "alternating"])
    def test_deep_chain_interp_matches_shallow(self, capsys, tmp_path,
                                                deep, shallow):
        # A sum nested to the right and a chain of max, 1,500 deep, and
        # ``max(i, i + max(i, i + … j))`` 600 deep, give the exit code and
        # report of their flat equivalents.
        results = []
        for name, x_mu in (("deep", deep), ("shallow", shallow)):
            interp = tmp_path / f"{name}.interp"
            interp.write_text(
                "interp for Mon\n"
                f"X mu (i, j) = {x_mu}\nd mu (i, j) = i\n"
                "X eta () = 1\nd eta () = 0\nbound 4\n"
            )
            results.append(run(
                capsys, "termination", "--preset", "mon",
                "--interp", str(interp), "--format", "json",
            ))
        assert results[0] == results[1]
        assert results[0][2] == ""

    def test_unicode_digit_exits_2(self, capsys, tmp_path):
        interp = tmp_path / "digit.interp"
        interp.write_text("interp for Mon\nX mu (i, j) = i + \u00b2\n")
        code, out, err = run(
            capsys, "termination", "--preset", "mon", "--interp", str(interp)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("line, message", [
        ("X eta () = -1", "unexpected character '-' in expression"),
        ("X mu (i, j, k) = k", "an entry for mu reads more than 2 variable(s)"),
        ("X mu (i, i) = i + i",
         "variable 'i' repeated in the X entry for mu on interpretation line 2"),
        ("d mu (i, j, k) = i",
         "an entry for mu declares 3 variables, more than its arity 2"),
        ("X nu (i) = i", "an entry for nu names no generator of Mon"),
        ("X mu (i, j) = i + j, j",
         "X entry for mu has 2 components, expected 1"),
    ], ids=["negative", "variable-count", "repeated-variable", "long-variable-list",
            "unknown-generator", "components"])
    def test_malformed_interp_exits_2(self, capsys, tmp_path, line, message):
        # The line replaces mon's entry for the same generator, or adds one
        # for a generator mon lacks.  No file may pass or end in a
        # traceback: ``-1`` is not ``1``, ``mu`` has two variables, not
        # three, ``(i, i)`` does not say which input ``i`` reads, and ``nu``
        # is likely a misspelt ``mu``.
        kind, gen = line.split()[:2]
        lines = [ln for ln in MON_INTERP_TEXT.splitlines()
                 if ln.split()[:2] != [kind, gen]]
        lines.insert(1, line)
        interp = tmp_path / "bad.interp"
        interp.write_text("\n".join(lines) + "\n")
        code, out, err = run(
            capsys, "termination", "--preset", "mon", "--interp", str(interp)
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_long_variable_list_exits_2(self, capsys, tmp_path):
        # 200,000 distinct names: the duplicate check is one pass, so the
        # list reaches the arity check at once.
        names = ", ".join(f"v{k}" for k in range(200_000))
        interp = tmp_path / "long.interp"
        interp.write_text(
            MON_INTERP_TEXT.replace("d mu (i, j) = i", f"d mu ({names}) = v0"))
        code, out, err = run(
            capsys, "termination", "--preset", "mon", "--interp", str(interp)
        )
        assert (code, out, err) == (2, "", "error: an entry for mu declares "
                                    "200000 variables, more than its arity 2\n")

    @pytest.mark.parametrize("line, message", [
        ("d mu (i, j) = 0", "d entry for mu repeated on interpretation line 7"),
        ("bound 3", "bound repeated on interpretation line 7"),
        ("interp for Mon", "'interp for' repeated on interpretation line 7"),
    ], ids=["entry", "bound", "name"])
    def test_repeated_interp_line_exits_2(self, capsys, tmp_path, line,
                                          message):
        # Kept silently, the second ``d mu`` would fail the grid
        # certificate (exit 1) and the second bound would run B=3.
        interp = tmp_path / "twice.interp"
        interp.write_text(MON_INTERP_TEXT + line + "\n")
        code, out, err = run(
            capsys, "termination", "--preset", "mon", "--interp", str(interp)
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("termination", "--preset", "mon", "--bound", "1000000"),
        ("termination", "--preset", "mon", "--interp", "BIG"),
        ("info", "--preset", "mon", "--bound", "100000"),
    ], ids=["bound-flag", "bound-line", "info"])
    def test_unbounded_grid_exits_2(self, capsys, tmp_path, argv):
        # alpha's grid has bound ** 3 points: far past the limit, refused
        # before any point is walked.
        big = tmp_path / "big.interp"
        big.write_text(MON_INTERP_TEXT.replace("bound 4", "bound 1000000"))
        argv = [str(big) if a == "BIG" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: the grid for rule alpha has ")
        assert "points, more than 100000" in err

    def test_no_interp_available(self, capsys):
        code, _, err = run(capsys, "termination", "--preset", "perm")
        assert code == 2
        assert "requires --interp" in err


class TestHomotopyBasis:
    def test_mon_basis(self, capsys):
        code, out, _ = run(capsys, "homotopy-basis", "--preset", "mon")
        assert code == 0
        assert "5 generating 4-cell(s)" in out

    def test_as_basis(self, capsys):
        code, out, _ = run(capsys, "homotopy-basis", "--preset", "as")
        assert code == 0
        assert "1 generating 4-cell(s)" in out

    def test_perm_assume_terminating(self, capsys):
        code, out, _ = run(
            capsys, "homotopy-basis", "--preset", "perm",
            "--assume-terminating",
        )
        assert code == 0
        assert "5 generating 4-cell(s)" in out

    def test_needs_evidence(self, capsys):
        code, _, err = run(capsys, "homotopy-basis", "--preset", "perm")
        assert code == 2
        assert "termination evidence" in err

    def test_sym_prime_fails(self, capsys):
        code, out, _ = run(
            capsys, "homotopy-basis", "--preset", "sym_prime",
            "--assume-terminating", "--format", "json",
        )
        assert code == 1
        report = json.loads(out)
        assert len(report["failures"]) == 5


class TestFailedTerminationEvidence:
    """One polygraph whose grid certificate fails and whose smoke test runs
    out of budget: ``r`` rewrites ``a`` to itself, so its weight cannot
    drop and its normalization never ends."""

    @pytest.fixture
    def files(self, tmp_path):
        poly = tmp_path / "loop.poly"
        poly.write_text("gen a : 1 -> 1\nrule r : a => a\n")
        interp = tmp_path / "loop.interp"
        interp.write_text("X a (i) = i\nd a (i) = 1\nbound 2\n")
        return ["--polygraph", str(poly)], ["--interp", str(interp)]

    def test_termination_exits_1(self, capsys, files):
        poly, interp = files
        code, out, _ = run(capsys, "termination", *poly, *interp)
        assert (code, out) == (
            1, "grid certificate FAILED (evidence, not proof; B=2)\n")

    def test_homotopy_basis_exits_1(self, capsys, files):
        poly, interp = files
        code, out, err = run(capsys, "homotopy-basis", *poly, *interp)
        assert (code, out, err) == (
            1, "no homotopy basis: termination evidence failed: grid "
               "certificate FAILED (evidence, not proof; B=2)\n", "")
        code, out, _ = run(capsys, "homotopy-basis", *poly, *interp,
                           "--format", "json")
        report = json.loads(out)
        assert code == 1
        assert set(report) == {"error", "termination"}
        assert report["error"].startswith("termination evidence failed: ")
        assert report["termination"]["passed"] is False
        assert report["termination"]["rules"][0]["failing_tuple"] == [1]

    def test_homotopy_basis_without_evidence_exits_2(self, capsys, files):
        poly, _ = files
        code, out, err = run(capsys, "homotopy-basis", *poly)
        assert (code, out) == (2, "")
        assert "needs termination evidence" in err

    def test_info_with_certificate_exits_1(self, capsys, files):
        poly, interp = files
        code, out, _ = run(capsys, "info", *poly, *interp, "--format", "json")
        report = json.loads(out)
        assert code == 1
        assert report["status"] == "failed"
        assert report["confluent"] is True
        assert report["termination"]["passed"] is False
        assert report["verdict"] == (
            "not established (termination certificate failed)")

    def test_info_smoke_test_exits_2(self, capsys, files):
        poly, _ = files
        code, out, err = run(capsys, "info", *poly, "--format", "json")
        assert (code, out, err) == (2, "", budget_message(10000))


def budget_message(n):
    return (f"error: normalization exceeded budget of {n} steps "
            "(nontermination suspected)\n")


class TestBudgetExhausted:
    """Running out of ``--budget`` exits 2 with one message from every verb,
    in the smoke test of ``info`` as in any confluence pass."""

    @pytest.mark.parametrize("argv, budget", [
        ("info --polygraph {loop}", 10000),
        ("info --polygraph {loop} --budget 5", 5),
        ("info --preset sym --budget 1", 1),
        ("confluence --preset sym --budget 1", 1),
        ("homotopy-basis --preset mon --budget 1", 1),
        ("normalize --polygraph {loop} --expr a --budget 3", 3),
    ])
    def test_exits_2(self, capsys, tmp_path, argv, budget):
        loop = tmp_path / "loop.poly"
        loop.write_text("gen a : 1 -> 1\nrule r : a => a\n")
        argv = shlex.split(argv.format(loop=loop))
        assert run(capsys, *argv) == (2, "", budget_message(budget))

    def test_every_library_error_is_mapped(self):
        # ``main`` maps one base class to exit 2, so every error class
        # defined in the package, the CLI's own included, must derive from it.
        modules = [m for m in vars(polyrew).values()
                   if isinstance(m, types.ModuleType)]
        errors = {v for m in modules for v in vars(m).values()
                  if isinstance(v, type) and issubclass(v, Exception)
                  and v.__module__.startswith("polyrew.")}
        assert len(errors) == 12
        assert all(issubclass(e, polyrew.PolyrewError) for e in errors)


class TestDecide:
    @pytest.fixture()
    def trace_files(self, tmp_path):
        def write(name, trace):
            path = tmp_path / f"{name}.tr"
            path.write_text(print_trace(trace, name))
            return str(path)

        l1, l2 = daleth1_legs()
        t1, t2 = beta_vs_whiskered_inverse()
        return {
            "daleth1a": write("daleth1a", l1),
            "daleth1b": write("daleth1b", l2),
            "beta": write("beta", t1),
            "whiskered": write("whiskered", t2),
        }

    def test_daleth1_equal(self, capsys, trace_files):
        code, out, _ = run(
            capsys, "decide", "--preset", "br",
            "--trace", trace_files["daleth1a"],
            "--trace", trace_files["daleth1b"],
        )
        assert code == 0
        assert out.strip() == "Equal"

    def test_beta_vs_whiskered_not_equal(self, capsys, trace_files):
        code, out, _ = run(
            capsys, "decide", "--preset", "br",
            "--trace", trace_files["beta"],
            "--trace", trace_files["whiskered"],
            "--format", "json",
        )
        assert code == 1
        report = json.loads(out)
        assert report["outcome"] == "NotEqual"
        assert report["evidence"]["braid1"] == "s1"
        assert report["evidence"]["braid2"] == "s1^-1"

    def test_requires_two_traces(self, capsys, trace_files):
        code, _, err = run(
            capsys, "decide", "--preset", "br",
            "--trace", trace_files["beta"],
        )
        assert code == 2
        assert "exactly two" in err

    def test_repeated_calls_do_not_share_traces(self, capsys, trace_files):
        # The parser is reused across calls; the second call's ``--trace``
        # list must not carry the first call's files.
        code, _, _ = run(
            capsys, "decide", "--preset", "br",
            "--trace", trace_files["daleth1a"],
            "--trace", trace_files["daleth1b"],
        )
        assert code == 0
        code, _, err = run(
            capsys, "decide", "--preset", "br",
            "--trace", trace_files["beta"],
        )
        assert code == 2
        assert "exactly two" in err

    def test_trace_round_trip(self, trace_files):
        p = get_preset("br").polygraph
        l1, _ = daleth1_legs()
        back = parse_trace(
            open(trace_files["daleth1a"], encoding="utf-8").read(), p
        )
        assert diagram_equal(back.source, l1.source)
        assert len(back.steps) == len(l1.steps)
        assert diagram_equal(back.target(), l1.target())

    @pytest.mark.parametrize("source", ["eta", "id 0"])
    def test_zero_strand_traces_equal(self, capsys, tmp_path, source):
        # An empty trace over a source with no input wires has a braid on 0
        # strands: the trivial group, not a traceback.
        path = tmp_path / "empty.tr"
        path.write_text(f"trace a on {source}\n")
        code, out, err = run(capsys, "decide", "--preset", "br",
                             "--trace", str(path), "--trace", str(path))
        assert (code, out, err) == (0, "Equal\n", "")


class TestInfo:
    def test_as_verdict(self, capsys):
        code, out, _ = run(capsys, "info", "--preset", "as")
        assert code == 0
        assert "aspherical (by convergent presentation)" in out

    def test_sym_prime_flags(self, capsys):
        code, out, _ = run(
            capsys, "info", "--preset", "sym_prime", "--format", "json"
        )
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "failed"
        assert report["proper_count"] == 23
        assert report["expected_proper_count"] == 10
        assert report["discrepancy"] is True


class TestExport:
    def test_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "mon.poly"
        code, out, _ = run(
            capsys, "export", "--preset", "mon", "--out", str(out_file)
        )
        assert code == 0
        assert out == ""
        back = parse_polygraph(out_file.read_text())
        mon = get_preset("mon").polygraph
        assert [r.name for r in back.rules] == [r.name for r in mon.rules]
        for r_back, r_orig in zip(back.rules, mon.rules):
            assert diagram_equal(r_back.lhs, r_orig.lhs)
            assert diagram_equal(r_back.rhs, r_orig.rhs)

    def test_exported_families_read_back(self, capsys, tmp_path):
        # The export keeps each rule's family, so the file reads back as
        # the preset's polygraph and ``info`` sorts its branchings alike.
        poly = tmp_path / "sym_prime.poly"
        code, _, _ = run(
            capsys, "export", "--preset", "sym_prime", "--out", str(poly))
        assert code == 0
        keys = ("confluent_modulo_structure", "family_counts", "proper_count")
        reports = []
        for source in (("--preset", "sym_prime"), ("--polygraph", str(poly))):
            code, out, _ = run(capsys, "info", *source, "--format", "json")
            assert code == 1
            report = json.loads(out)
            reports.append([report[k] for k in keys])
        assert reports[0] == reports[1]
        assert reports[0][0] is True and reports[0][2] == 23

    def test_unknown_family_exits_2(self, capsys, tmp_path):
        poly = tmp_path / "family.poly"
        poly.write_text("gen a : 1 -> 1\nrule r [bogus] : a => a\n")
        code, out, err = run(capsys, "critical", "--polygraph", str(poly))
        assert (code, out) == (2, "")
        assert err == "error: unknown rule family 'bogus'\n"

    def test_unicode_digit_in_file_exits_2(self, capsys, tmp_path):
        poly = tmp_path / "digit.poly"
        poly.write_text("gen mu : 2 -> 1\nrule a : id \u00b2 => id 1\n")
        code, out, err = run(capsys, "critical", "--polygraph", str(poly))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_tau_outside_a_prop_exits_2(self, capsys, tmp_path):
        # Only a prop has ``tau`` built in, so only a prop drops its
        # declaration; elsewhere the signature rejects it.
        rules = "gen mu : 2 -> 1\ngen tau : 2 -> 2\nrule r : tau ; tau => id 2\n"
        poly = tmp_path / "tau.poly"
        poly.write_text(rules)
        code, out, err = run(capsys, "critical", "--polygraph", str(poly))
        assert (code, out) == (2, "")
        assert err == "error: tau present but signature is not a prop\n"
        poly.write_text("prop\n" + rules)
        code, out, _ = run(capsys, "export", "--polygraph", str(poly))
        assert code == 0
        assert out == "prop\ngen mu : 2 -> 1\nrule r : tau ; tau => id 2\n"

    def test_file_polygraph_input(self, capsys, tmp_path):
        poly = tmp_path / "as.poly"
        poly.write_text(print_polygraph(get_preset("as").polygraph))
        code, out, _ = run(
            capsys, "critical", "--polygraph", str(poly)
        )
        assert code == 0
        assert out.startswith("1 critical branching(s)")


MU_GEN = "gen mu : 2 -> 1\n"
ALPHA_TRACE = "trace t on (mu * id 1) ; mu\n"


class TestInputErrors:
    """Input errors no other test reaches, each with its exit code and
    exact message, and an interpretation that fails the grid certificate
    on X."""

    @pytest.mark.parametrize("text, message", [
        (MU_GEN + MU_GEN,
         "duplicate generator names in signature 'polygraph'"),
        (MU_GEN + "rule a : id 1 => id 1\n",
         "rule a: lhs must contain a generator"),
        (MU_GEN + "rule a : mu => id 2\n", "rule a: output widths differ"),
        (MU_GEN + "rule a : mu => id 1\n", "rule a: input widths differ"),
        (MU_GEN + "rule a : mu => mu\nrule a : mu => mu\n",
         "duplicate rule names"),
    ], ids=["duplicate-generator", "empty-lhs", "output-widths",
            "input-widths", "duplicate-rule"])
    def test_polygraph_file(self, capsys, tmp_path, text, message):
        poly = tmp_path / "bad.poly"
        poly.write_text(text)
        code, out, err = run(capsys, "critical", "--polygraph", str(poly))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_identity_keyword_as_generator(self, capsys, tmp_path):
        # No rule or expression could name it: ``id`` reads as an identity.
        poly = tmp_path / "id.poly"
        poly.write_text("gen id : 2 -> 1\n")
        code, out, err = run(capsys, "export", "--polygraph", str(poly))
        assert (code, out, err) == (
            2, "", "error: 'id' is not a generator name the grammar reads\n")

    @pytest.mark.parametrize("text, message", [
        (ALPHA_TRACE + ALPHA_TRACE, "line 2: duplicate trace header"),
        ("step alpha + top=id 3 left=0 right=0 bot=id 1\n" + ALPHA_TRACE,
         "line 1: step before trace header"),
        (ALPHA_TRACE + "step nosuch + top=id 3 left=0 right=0 bot=id 1\n",
         "unknown rule 'nosuch'"),
        (ALPHA_TRACE + "step alpha + top=id 2 left=0 right=0 bot=mu\n",
         "context top width 2 does not frame pattern width 3 with "
         "whiskers (0, 0)"),
        (ALPHA_TRACE + "step alpha + top=id 3 left=0 right=0 bot=id 2\n",
         "vertical composition mismatch: output width 1 vs input width 2"),
        (ALPHA_TRACE + "step alpha +\n",
         "cannot parse trace line 2: 'step alpha +'"),
        ("# no header\n", "trace file has no 'trace ... on ...' header"),
    ], ids=["duplicate-header", "step-before-header", "unknown-rule",
            "top-width", "bottom-width", "unparseable-line", "no-header"])
    def test_trace_file(self, capsys, tmp_path, text, message):
        bad, good = tmp_path / "bad.tr", tmp_path / "good.tr"
        bad.write_text(text)
        good.write_text(ALPHA_TRACE)
        code, out, err = run(capsys, "decide", "--preset", "mon",
                             "--trace", str(bad), "--trace", str(good))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("old, new, message", [
        ("bound 4", "bound 1", "grid bound must be at least 2"),
        ("d mu (i, j) = i\n", "", "no d entry for generator 'mu'"),
    ], ids=["bound", "missing-d"])
    def test_interpretation(self, capsys, tmp_path, old, new, message):
        interp = tmp_path / "bad.interp"
        interp.write_text(MON_INTERP_TEXT.replace(old, new))
        code, out, err = run(
            capsys, "termination", "--preset", "mon", "--interp", str(interp))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_interpretation_fails_on_x(self, capsys, tmp_path):
        # X mu is constant, so it cannot decrease along alpha.
        interp = tmp_path / "flat.interp"
        interp.write_text(MON_INTERP_TEXT.replace(
            "X mu (i, j) = i + j", "X mu (i, j) = 1").replace(
            "d mu (i, j) = i", "d mu (i, j) = i + j"))
        code, out, err = run(
            capsys, "termination", "--preset", "mon", "--interp", str(interp))
        assert (code, out, err) == (
            1, "grid certificate FAILED (evidence, not proof; B=4)\n", "")
        code, out, _ = run(capsys, "termination", "--preset", "mon",
                           "--interp", str(interp), "--format", "json")
        checks = {c["rule"]: c for c in json.loads(out)["rules"]}
        assert (code, checks["lambda"]["failing_tuple"],
                checks["lambda"]["detail"]) == (1, [2], "X values [1] vs [2]")

    def test_budget_not_a_number(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["normalize", "--preset", "mon", "--expr", "mu",
                  "--budget", "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: polyrew normalize ")
        assert err.splitlines()[-1] == (
            "polyrew normalize: error: argument --budget: "
            "invalid int value: 'x'")

    def test_unreadable_trace(self, capsys, tmp_path):
        missing = tmp_path / "missing.tr"
        good = tmp_path / "good.tr"
        good.write_text(ALPHA_TRACE)
        code, out, err = run(capsys, "decide", "--preset", "mon",
                             "--trace", str(missing), "--trace", str(good))
        assert (code, out, err) == (
            2, "", f"error: cannot read {missing}: [Errno 2] No such file "
            f"or directory: '{missing}'\n")

    def test_unwritable_out(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "mon.poly"
        code, out, err = run(capsys, "export", "--preset", "mon",
                             "--out", str(target))
        assert (code, out, err) == (
            2, "", f"error: cannot write {target}: [Errno 2] No such file "
            f"or directory: '{target}'\n")

    def test_decide_needs_preset(self, capsys, tmp_path):
        good = tmp_path / "good.tr"
        good.write_text(ALPHA_TRACE)
        code, out, err = run(capsys, "decide",
                             "--trace", str(good), "--trace", str(good))
        assert (code, out, err) == (2, "", "error: decide requires --preset\n")


def test_module_entry_point():
    # ``python -m polyrew.cli`` runs ``main`` through the module's
    # ``__main__`` guard and exits with its code.
    src = Path(__file__).parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-m", "polyrew.cli", "info", "--preset", "as"],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "verdict: aspherical (by convergent presentation)" in (
        proc.stdout.splitlines())


#: The flags each verb reads besides ``--format`` and ``--out``, which every
#: verb takes.
VERB_FLAGS = {
    "normalize": {"--preset", "--polygraph", "--expr", "--budget"},
    "critical": {"--preset", "--polygraph"},
    "confluence": {"--preset", "--polygraph", "--budget"},
    "termination": {"--preset", "--polygraph", "--interp", "--bound"},
    "homotopy-basis": {"--preset", "--polygraph", "--interp", "--bound",
                       "--budget", "--assume-terminating"},
    "decide": {"--preset", "--trace"},
    "info": {"--preset", "--polygraph", "--interp", "--bound", "--budget"},
    "export": {"--preset", "--polygraph"},
}

#: Every flag any verb takes, with a value.
FLAG_VALUES = {
    "--preset": ["mon"], "--polygraph": ["p.poly"], "--expr": ["mu"],
    "--trace": ["a.tr"], "--interp": ["m.interp"], "--bound": ["3"],
    "--budget": ["5"], "--assume-terminating": [], "--format": ["json"],
    "--out": ["o.json"],
}


class TestVerbFlags:
    @pytest.mark.parametrize("verb", list(VERB_FLAGS))
    def test_each_verb_takes_only_the_flags_it_reads(self, capsys, verb):
        parser = _build_parser()
        reads = VERB_FLAGS[verb] | {"--format", "--out"}
        for flag, value in FLAG_VALUES.items():
            argv = [verb, flag, *value]
            if flag in reads:
                assert parser.parse_args(argv).verb == verb
                continue
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {' '.join([flag, *value])}" in err

    def test_readme_quick_tour_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        tour = readme.split("## Quick tour", 1)[1].split("```sh\n", 1)[1]
        commands = [shlex.split(line, comments=True)
                    for line in tour.split("```", 1)[0].splitlines()]
        assert len(commands) >= 8
        for argv in commands:
            assert argv[0] == "polyrew"
            assert _build_parser().parse_args(argv[1:]).verb == argv[1]


#: ``(exit code, SHA-256 of stdout)`` of the analysis verbs on every preset,
#: in text and JSON.  ``homotopy-basis`` gets ``--assume-terminating`` on the
#: presets without a built-in interpretation.
GOLDEN_ANALYSIS = {
    ("info", "as", "text"): (0, "c0846dd7230afb2c925496beb24a06273995bfdfcddad649484553284e24c5e1"),
    ("info", "as", "json"): (0, "294538daac12c31c55aae08a2d7cb12dadc1f2e2215adb2a6f36a34876bb0508"),
    ("info", "mon", "text"): (0, "11bdd04161f8dda4a0f701a55c7aa4923010cd965f50e203f96eecadf2d50b2f"),
    ("info", "mon", "json"): (0, "eb9765d7af423f86646350e0b629363df6760890196eb054ba62de2004966fff"),
    ("info", "sym", "text"): (1, "f460927dc8641c6c2e10c10e5143fb461863da566470f3347dd6e4caad836015"),
    ("info", "sym", "json"): (1, "6a1141b90863a04937ed9089126dbf65d1d2a4246d8c6b0739d3cfd8402a6b65"),
    ("info", "sym_prime", "text"): (1, "b8496d411f7df8e259e960db843cb0e640732a270f782fd919006d20561fbe9f"),
    ("info", "sym_prime", "json"): (1, "b0663bcc796e6848e99b6d5cf7e10e59b31a3f1a99ba117e20548eda48c2caa6"),
    ("info", "br", "text"): (1, "4fbbf4864bfbbbf55c74629012ec67cb63222c71a09a16529bbd53ff37b3f874"),
    ("info", "br", "json"): (1, "abae787efb08a3092304286a411dcc803a434b875f3d0f7ca261094a13f4ade7"),
    ("info", "perm", "text"): (0, "e61b590d58e2b4595357d6b0b909759800731f409c70914326f20ae81950861b"),
    ("info", "perm", "json"): (0, "3fd0fba893e1b5cadcd3313ab7fa30ec21d0b12e5119b240a0639f2c4339b933"),
    ("confluence", "as", "text"): (0, "4a344bf1a78e4b2650a89e7c996f7f7d521a96e8df89f72babbabffa1b8daf75"),
    ("confluence", "as", "json"): (0, "61e72c29a00131853ba2247497b1294003391fa9adbe34a29e7ae2ec0acc469b"),
    ("confluence", "mon", "text"): (0, "116274b173014cf64fbb5764bba9d8021cf96a0d6306a9ca937aec37156d16d8"),
    ("confluence", "mon", "json"): (0, "22d78641b55162d65261ee5577201b1b856a67883f5f43215f64c495eac0a926"),
    ("confluence", "sym", "text"): (1, "f0f6046fb9b7c003f2229aac0132287a73f70cf6578e3bc62be7e674b0505399"),
    ("confluence", "sym", "json"): (1, "e720d1629ed7fb059ed43f1bd7e758a294ad09dae61182e3b60ed226ad7a2bbe"),
    ("confluence", "sym_prime", "text"): (1, "492c1e800144c43591fc2865106188373373d273940679f494555276630ee0af"),
    ("confluence", "sym_prime", "json"): (1, "390485bd1b0bbe64619fc386e31bd09cc8daebbea4a2e3f84f0577358e41b305"),
    ("confluence", "br", "text"): (1, "f0f6046fb9b7c003f2229aac0132287a73f70cf6578e3bc62be7e674b0505399"),
    ("confluence", "br", "json"): (1, "e720d1629ed7fb059ed43f1bd7e758a294ad09dae61182e3b60ed226ad7a2bbe"),
    ("confluence", "perm", "text"): (0, "116274b173014cf64fbb5764bba9d8021cf96a0d6306a9ca937aec37156d16d8"),
    ("confluence", "perm", "json"): (0, "9d4d0d9fac9c94abaa7a341e12588a97e2b56c515c296eaadb17c10a2e040b9b"),
    ("homotopy-basis", "as", "text"): (0, "db70b04f453ea545819d5ef3f2601acb88b81de3b89b23a0a3de5920fbb96339"),
    ("homotopy-basis", "as", "json"): (0, "a25b994ebbe382b922154379561c3323e0a3bc5f7a115ace7bed779499703e86"),
    ("homotopy-basis", "mon", "text"): (0, "569a40500ce9843bbbac8d6ee1f9ddd77885be80e3da57fa265c3127b7aa3e2e"),
    ("homotopy-basis", "mon", "json"): (0, "8da5ede61f58c25ceaa8ba60caac2013d7ff347a063cfb91dc5c3137d49f44a1"),
    ("homotopy-basis", "sym", "text"): (1, "c656996b34159b75afe003dfd963c3646503e3b006cca109ad38bf5aa7964485"),
    ("homotopy-basis", "sym", "json"): (1, "6c484b3b0b7983780fdbfedbfe5b4398db72068e1c2a444a28ce45d9d13babe2"),
    ("homotopy-basis", "sym_prime", "text"): (1, "c656996b34159b75afe003dfd963c3646503e3b006cca109ad38bf5aa7964485"),
    ("homotopy-basis", "sym_prime", "json"): (1, "9b6fe24b119e52ee0dd1c44655d80defd13e90841c4e818f250e6571a5890f83"),
    ("homotopy-basis", "br", "text"): (1, "c656996b34159b75afe003dfd963c3646503e3b006cca109ad38bf5aa7964485"),
    ("homotopy-basis", "br", "json"): (1, "6c484b3b0b7983780fdbfedbfe5b4398db72068e1c2a444a28ce45d9d13babe2"),
    ("homotopy-basis", "perm", "text"): (0, "243874e66293b4c229c16fa82eac04af2a7fe7997302c0f1ec89ec6f39cbebcd"),
    ("homotopy-basis", "perm", "json"): (0, "3f6576d08b1fed346774d412f8f64c9fa9ad2724d6b8dbb663ecc4ed29ff7ad8"),
}


@pytest.mark.parametrize("verb, preset, fmt", list(GOLDEN_ANALYSIS))
def test_golden_analysis_output(capsys, verb, preset, fmt):
    argv = [verb, "--preset", preset, "--format", fmt]
    if verb == "homotopy-basis" and get_preset(preset).interp is None:
        argv.append("--assume-terminating")
    code, out, err = run(capsys, *argv)
    assert err == ""
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == GOLDEN_ANALYSIS[(verb, preset, fmt)]
