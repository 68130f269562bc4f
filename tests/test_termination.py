"""Tests for interpretation evaluation and the grid certificate."""

import dataclasses
import random

import pytest

import polyrew.termination as termination
from polyrew.coherence import get_preset

from polyrew.diagram import Diagram, identity, parse_diagram
from polyrew.rewrite import Polygraph, Rule
from polyrew.termination import (
    Add,
    Const,
    Interpretation,
    MAX_GRID_POINTS,
    MON_INTERP_TEXT,
    Max,
    TerminationError,
    Var,
    check_decrease,
    eval_deriv,
    eval_X,
    mon_interpretation,
    parse_expr,
    parse_interpretation,
)
from exchange_oracle import exchange_closure
from test_diagram import all_diagrams, random_diagram


@pytest.fixture(scope="module")
def interp():
    return mon_interpretation()


class TestEvalX:
    def test_alpha_source(self, mon_polygraph, interp):
        d = parse_diagram("(mu * id 1) ; mu", mon_polygraph.signature)
        for i, j, k in [(1, 1, 1), (2, 3, 4), (5, 1, 2)]:
            assert eval_X(d, [i, j, k], interp) == [i + j + k]

    def test_identity(self, interp):
        assert eval_X(identity(3), [4, 5, 6], interp) == [4, 5, 6]

    def test_eta(self, mon_polygraph, interp):
        d = parse_diagram("eta", mon_polygraph.signature)
        assert eval_X(d, [], interp) == [1]

    def test_arity_mismatch(self, interp):
        with pytest.raises(TerminationError):
            eval_X(identity(2), [1], interp)


class TestEvalDeriv:
    def test_alpha_sides(self, mon_polygraph, interp):
        lhs = parse_diagram("(mu * id 1) ; mu", mon_polygraph.signature)
        rhs = parse_diagram("(id 1 * mu) ; mu", mon_polygraph.signature)
        for i, j, k in [(1, 1, 1), (2, 3, 4)]:
            assert eval_deriv(lhs, [i, j, k], interp) == 2 * i + j
            assert eval_deriv(rhs, [i, j, k], interp) == i + j

    def test_identity_zero(self, interp):
        assert eval_deriv(identity(4), [9, 9, 9, 9], interp) == 0

    def test_exchange_invariance(self, mon_polygraph, interp):
        rng = random.Random(13)
        for d in all_diagrams(mon_polygraph.signature, 4, 3)[::7]:
            inputs = [rng.randint(1, 5) for _ in range(d.input_width)]
            base_x = eval_X(d, inputs, interp)
            base_d = eval_deriv(d, inputs, interp)
            for member in exchange_closure(d):
                md = Diagram(d.input_width, member)
                assert eval_X(md, inputs, interp) == base_x
                assert eval_deriv(md, inputs, interp) == base_d

    def test_vcomp_law(self, mon_polygraph, interp):
        """∂(d1 ⋆₁ d2)(x) = ∂(d1)(x) + ∂(d2)(X(d1)(x)) on random splits."""
        rng = random.Random(17)
        for _ in range(200):
            d = random_diagram(mon_polygraph.signature, rng)
            cut = rng.randint(0, len(d.slices))
            d1 = Diagram(d.input_width, d.slices[:cut])
            d2 = Diagram(d1.output_width, d.slices[cut:])
            inputs = [rng.randint(1, 6) for _ in range(d.input_width)]
            mid = eval_X(d1, inputs, interp)
            assert eval_deriv(d, inputs, interp) == eval_deriv(
                d1, inputs, interp
            ) + eval_deriv(d2, mid, interp)

    def test_monotonicity(self, mon_polygraph, interp):
        rng = random.Random(19)
        for _ in range(200):
            d = random_diagram(mon_polygraph.signature, rng)
            lo = [rng.randint(1, 4) for _ in range(d.input_width)]
            hi = [v + rng.randint(0, 3) for v in lo]
            xl, xh = eval_X(d, lo, interp), eval_X(d, hi, interp)
            assert all(a <= b for a, b in zip(xl, xh))
            assert eval_deriv(d, lo, interp) <= eval_deriv(d, hi, interp)


class TestCheckDecrease:
    def test_mon_passes(self, mon_polygraph, interp):
        report = check_decrease(mon_polygraph, interp)
        assert report.passed
        assert all(rc.passed for rc in report.rule_checks)
        assert "evidence" in report.verdict

    def test_reversed_alpha_fails(self, mon_polygraph, interp):
        alpha = mon_polygraph.rule("alpha")
        reversed_alpha = Rule("alpha_rev", alpha.rhs, alpha.lhs)
        p = Polygraph(mon_polygraph.signature, (reversed_alpha,))
        report = check_decrease(p, interp)
        assert not report.passed
        rc = report.rule_checks[0]
        assert rc.failing_tuple == (1, 1, 1)
        assert "2 vs 3" in rc.detail

    def test_empty_rules_vacuous(self, mon_polygraph, interp):
        p = Polygraph(mon_polygraph.signature, ())
        assert check_decrease(p, interp).passed

    def test_missing_entry(self, mon_polygraph):
        bad = Interpretation({}, {}, 4)
        with pytest.raises(TerminationError):
            check_decrease(mon_polygraph, bad)

    def test_entry_for_unknown_generator(self, mon_polygraph):
        for line in ("X nu (i) = i\n", "d nu (i) = 0\n"):
            _, interp = parse_interpretation(MON_INTERP_TEXT + line)
            with pytest.raises(TerminationError,
                               match="an entry for nu names no generator of Mon"):
                check_decrease(mon_polygraph, interp)

    def test_as_preset_interprets_mu_only(self):
        # Mon's interpretation has eta entries, which As lacks.
        preset = get_preset("as")
        assert set(preset.interp.x_entries) == set(preset.interp.d_entries) == {"mu"}
        assert check_decrease(preset.polygraph, preset.interp).passed

    def test_grid_limit(self, mon_polygraph, monkeypatch):
        # alpha reads three inputs: bound 46 gives 97,336 points and 47
        # gives 103,823, past the limit.  The limit is checked for every
        # rule before any point of lambda, the first rule, is walked.
        assert 46 ** 3 <= MAX_GRID_POINTS < 47 ** 3
        walks = []
        real_walk = termination._walk
        monkeypatch.setattr(termination, "_walk",
                            lambda *a: walks.append(a) or real_walk(*a))
        lam = mon_polygraph.rule("lambda")
        p = Polygraph(mon_polygraph.signature, (lam, mon_polygraph.rule("alpha")))
        with pytest.raises(TerminationError,
                           match="the grid for rule alpha has 103823 points, "
                                 "more than 100000"):
            check_decrease(p, dataclasses.replace(mon_interpretation(),
                                                  grid_bound=47))
        assert walks == []


class TestFormat:
    def test_parse_mon(self):
        name, interp = parse_interpretation(
            "interp for Mon\n"
            "X mu (i, j) = i + j\n"
            "d mu (i, j) = i\n"
            "X eta () = 1\n"
            "d eta () = 0\n"
            "bound 4\n"
        )
        assert name == "Mon"
        assert interp.grid_bound == 4
        assert interp.x_of("mu")[0].eval((2, 3)) == 5
        assert interp.d_of("eta").eval(()) == 0

    def test_tau_default(self):
        interp = mon_interpretation()
        assert [e.eval((7, 9)) for e in interp.x_of("tau")] == [9, 7]
        assert interp.d_of("tau").eval((7, 9)) == 0

    def test_max_expr(self):
        e = parse_expr("max(i + 1, j)", ("i", "j"))
        assert e.eval((3, 10)) == 10
        assert e.eval((3, 2)) == 4

    def test_bad_line(self):
        with pytest.raises(TerminationError, match="line 1"):
            parse_interpretation("what is this")

    def test_repeated_variable(self):
        # Both ``i`` would read the first input: the entry would mean 2·x1.
        with pytest.raises(TerminationError,
                           match="variable 'i' repeated in the X entry for mu "
                                 "on interpretation line 2"):
            parse_interpretation("interp for Mon\nX mu (i, i) = i + i\n")
        with pytest.raises(TerminationError, match="'j' repeated in the d entry"):
            parse_interpretation("d g (j, k, j) = k\n")

    def test_variable_list_longer_than_arity(self, mon_polygraph):
        text = MON_INTERP_TEXT.replace("d mu (i, j) = i", "d mu (i, j, k) = i")
        _, interp = parse_interpretation(text)
        with pytest.raises(TerminationError,
                           match="an entry for mu declares 3 variables, more "
                                 "than its arity 2"):
            check_decrease(mon_polygraph, interp)
        # A later entry for the same generator cannot replace the long one:
        # the second ``d mu`` line (line 7) is refused.
        with pytest.raises(TerminationError,
                           match="d entry for mu repeated on interpretation "
                                 "line 7"):
            parse_interpretation(text + "d mu (i, j) = i\n")
        # A shorter list leaves the trailing inputs unread.
        _, interp = parse_interpretation(
            MON_INTERP_TEXT.replace("d mu (i, j) = i", "d mu (i) = i"))
        assert check_decrease(mon_polygraph, interp).passed

    @pytest.mark.parametrize("text, message", [
        (MON_INTERP_TEXT + "d mu (i, j) = 0\n",
         "d entry for mu repeated on interpretation line 7"),
        (MON_INTERP_TEXT + "X eta () = 2\nd mu (i, j) = i\n",
         "X entry for eta repeated on interpretation line 7"),
        (MON_INTERP_TEXT + "X mu (i, i) = i\n",
         "X entry for mu repeated on interpretation line 7"),
        ("bound 4\nbound 3\n", "bound repeated on interpretation line 2"),
        ("interp for Mon\n# As\ninterp for As\n",
         "'interp for' repeated on interpretation line 3"),
    ], ids=["d-entry", "first-repeat", "before-own-faults", "bound", "name"])
    def test_repeated_line_refused(self, text, message):
        # Kept silently, the second line would replace the first: the
        # second ``d mu`` would fail mon's certificate, the second bound
        # would run B=3.
        with pytest.raises(TerminationError, match=message):
            parse_interpretation(text)


#: Expressions over ``(i, j, k)`` and what the recursive-descent parser this
#: loop replaced returned for them: a tree, or its ``TerminationError``
#: message.  ``Add`` nests to the left.  A character outside the grammar is
#: an error before any token is parsed; that parser skipped it, so those
#: cases expect the lexical error instead of its result.
I, J, K = Var(0), Var(1), Var(2)
EXPR_CASES = [
    ("i + j + k", Add(Add(I, J), K)),
    ("i + (j + k)", Add(I, Add(J, K))),
    ("max(i + 1, max(j, k)) + 2",
     Add(Max(Add(I, Const(1)), Max(J, K)), Const(2))),
    ("((i))", I),
    ("\u0661\u0662 + i", Add(Const(12), I)),
    ("i * j", "unexpected character '*' in expression"),
    (" - ", "unexpected character '-' in expression"),
    ("i + -j", "unexpected character '-' in expression"),
    ("-1", "unexpected character '-' in expression"),
    ("max(i, -j)", "unexpected character '-' in expression"),
    ("i + j;", "unexpected character ';' in expression"),
    ("i $", "unexpected character '$' in expression"),
    ("i +", "unexpected end of expression"),
    ("(i, j)", "expected ')', found ','"),
    ("max i", "expected '(', found 'i'"),
    ("max(i)", "expected ',', found ')'"),
    ("i)", "trailing token ')' in expression"),
    ("x", "unknown token 'x' in expression"),
    ("max(i,)", "unknown token ')' in expression"),
    ("i,", "trailing token ',' in expression"),
]

#: ``X`` bodies: top-level commas separate the components, blank ones are
#: dropped, and a character outside the grammar is an error.
X_BODY_CASES = [
    ("max(i, j), k", (Max(I, J), K)),
    ("i, , j,", (I, J)),
    ("", ()),
    ("i, -", "unexpected character '-' in expression"),
    ("i +, j", "unexpected end of expression"),
    ("max, i", "unexpected end of expression"),
    ("i), (j, k", "trailing token ')' in expression"),
    ("i, ), j", "unknown token ')' in expression"),
]


def parsed(parse, text):
    try:
        return parse(text)
    except TerminationError as e:
        return str(e)


class TestExprParser:
    @pytest.mark.parametrize("text, expected", EXPR_CASES)
    def test_expr(self, text, expected):
        assert parsed(lambda t: parse_expr(t, ("i", "j", "k")), text) == expected

    @pytest.mark.parametrize("body, expected", X_BODY_CASES)
    def test_x_body(self, body, expected):
        def x_entry(body):
            text = f"interp for M\nX g (i, j, k) = {body}\n"
            return parse_interpretation(text)[1].x_entries["g"]

        assert parsed(x_entry, body) == expected


class TestDeepChains:
    def test_chains_nested_either_side(self):
        # A chain of one operator, 1,500 deep on either side, evaluates and
        # prints in a loop; a sum prints flat however it is nested.
        n = 1500
        for text in ("i + " * n + "j", "i + (" * n + "j" + ")" * n):
            e = parse_expr(text, ("i", "j"))
            assert e.eval((2, 3)) == 2 * n + 3
            assert str(e) == "x1 + " * n + "x2"
        e = parse_expr("max(i, " * n + "j" + ")" * n, ("i", "j"))
        assert (e.eval((2, 3)), e.eval((5, 3))) == (3, 5)
        assert str(Add(Add(I, J), Add(K, Add(I, Const(2))))) == (
            "x1 + x2 + x3 + x1 + 2")
        assert str(Add(Const(1), Add(Max(Add(I, J), Const(2)), K))) == (
            "1 + max(x1 + x2, 2) + x3")

    def test_alternating_chains_evaluate(self):
        # ``max`` and ``+`` alternating, 600 levels, in either order at the
        # top: the evaluation keeps its own stack across both kinds.
        n = 600
        for text, at_9_1 in (("max(i, i + " * n + "j" + ")" * n, 9 * n + 1),
                             ("i + max(i, " * n + "j" + ")" * n, 9 * n + 9)):
            e = parse_expr(text, ("i", "j"))
            assert (e.eval((2, 3)), e.eval((9, 1))) == (2 * n + 3, at_9_1)

    def test_deep_max_prints(self):
        # A max chain prints nested, one ``max(`` per node, at any depth.
        n = 1500
        e = parse_expr("max(i, " * n + "j" + ")" * n, ("i", "j"))
        assert str(e) == "max(x1, " * n + "x2" + ")" * n

    @pytest.mark.parametrize("e, text", [
        (Max(I, J), "max(x1, x2)"),
        (Add(Add(I, Const(2)), Max(J, Add(I, J))), "x1 + 2 + max(x2, x1 + x2)"),
        (Max(Add(I, Add(J, Const(1))), Max(Const(0), I)),
         "max(x1 + x2 + 1, max(0, x1))"),
        (Add(Max(I, J), Add(Max(Add(I, I), J), Const(3))),
         "max(x1, x2) + max(x1 + x1, x2) + 3"),
        (Max(Max(Max(I, J), Add(Max(I, Const(1)), K)), Const(5)),
         "max(max(max(x1, x2), max(x1, 1) + x3), 5)"),
    ])
    def test_mixed_prints(self, e, text):
        assert str(e) == text
