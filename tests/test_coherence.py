"""Tests for the preset catalogue, leaf bundles, the permutation/pure
decomposition, the braid invariant of traces, and the coherence deciders."""

import itertools
import json
import random

import pytest

from polyrew import coherence
from polyrew.braid import BraidWord, braid_equal, is_trivial, perm_of_braid, sigma
from polyrew.coherence import (
    CoherenceError,
    Decision,
    PRESET_NAMES,
    Preset,
    braid_of_trace,
    congruence_equiv,
    decide_coherence,
    decompose_algebraic,
    get_preset,
    initial_algebra_compose,
    leaf_bundles,
    perm_diagram,
    structural_normal_form,
    whisker_top,
)
from polyrew.critical import (
    ConfluenceDiagram,
    check_local_confluence,
    enumerate_critical_branchings,
    structural_rules,
    tau_diagram,
)
from polyrew.diagram import (
    Diagram,
    Slice,
    canonical_form,
    diagram_equal,
    identity,
    parse_diagram,
    print_diagram,
    vcomp,
)
from polyrew.rewrite import (
    BudgetExceededError,
    Context,
    RewriteError,
    Step,
    Trace,
    compose_traces,
    find_matches,
    invert_trace,
    normalize,
    parallel,
    parse_trace,
    print_trace,
    validate_trace,
)

from conftest import identity_context
from exchange_oracle import exchange_closure
from test_critical import all_diagrams
from test_diagram import all_diagrams as every_diagram


BR = get_preset("br")
SIG = BR.polygraph.signature


def Q(text):
    return parse_diagram(text, SIG)


def R(name):
    return BR.polygraph.rule(name)


def step_at(rule_name, direction, current):
    """A step of the named rule applied at its first match in ``current``."""
    rule = R(rule_name)
    if len(rule.side(direction)) == 0:
        return None
    ms = find_matches(current, rule.side(direction))
    if not ms:
        return None
    return Step(rule, direction, ms[0].context)


# -- presets ---------------------------------------------------------------


class TestPresets:
    def test_registry(self):
        for name in PRESET_NAMES:
            preset = get_preset(name)
            assert preset.name == name
            assert preset.decision_mode in ("aspherical", "braided")

    def test_unknown(self):
        with pytest.raises(CoherenceError, match="unknown preset"):
            get_preset("monoid")

    def test_bad_decision_mode(self):
        with pytest.raises(CoherenceError, match="bad decision mode 'free'"):
            Preset("br", BR.polygraph, "free")

    def test_rule_sets(self):
        assert [r.name for r in get_preset("as").polygraph.rules] == ["alpha"]
        assert [r.name for r in get_preset("mon").polygraph.rules] == [
            "alpha", "lambda", "rho",
        ]
        assert [r.name for r in get_preset("perm").polygraph.rules] == [
            "sym", "yb",
        ]
        br_names = [r.name for r in BR.polygraph.rules]
        assert br_names[-1] == "beta"
        assert len(br_names) == 10
        sp = get_preset("sym_prime")
        assert [r.name for r in sp.polygraph.rules][-2:] == ["beta", "gamma"]

    def test_modes_and_expectations(self):
        assert BR.decision_mode == "braided"
        assert get_preset("sym").decision_mode == "aspherical"
        assert get_preset("sym_prime").expected_proper == 10
        assert get_preset("mon").interp is not None

    def test_only_beta_braids(self):
        # Every br rule applied to its own source gives the trivial braid,
        # except the commutativity cell, which crosses its two inputs.
        braids = {
            r.name: str(braid_of_trace(
                Trace(r.lhs, (Step(r, "forward", identity_context(r.lhs)),)),
                BR.polygraph))
            for r in BR.polygraph.rules
        }
        assert braids.pop("beta") == "s1"
        assert set(braids.values()) == {"e"}


# -- leaf bundles ----------------------------------------------------------


class TestLeafBundles:
    def test_mu(self):
        assert leaf_bundles(Q("mu")) == ((0, 1),)

    def test_unit_collapse(self):
        assert leaf_bundles(Q("(eta * id 1) ; mu")) == ((0,),)

    def test_swap_then_merge(self):
        assert leaf_bundles(Q("tau ; mu")) == ((1, 0),)

    def test_eta_empty(self):
        assert leaf_bundles(Q("eta")) == ((),)

    def test_identity(self):
        assert leaf_bundles(identity(3)) == ((0,), (1,), (2,))

    def test_invariant_under_structural_rewrites(self):
        rng = random.Random(41)
        rules = [r.name for r in structural_rules(BR.polygraph)]
        for _ in range(60):
            d = random_algebraic_diagram(rng)
            base = leaf_bundles(d)
            current = d
            for _ in range(rng.randint(1, 4)):
                name = rng.choice(rules)
                s = step_at(name, rng.choice(("forward", "backward")), current)
                if s is None:
                    continue
                current = s.target()
                assert leaf_bundles(current) == base

    def test_rejects_coarity_two(self):
        from polyrew.diagram import GeneratorSym, generator_diagram

        with pytest.raises(CoherenceError, match="coarity"):
            leaf_bundles(generator_diagram(GeneratorSym("delta", 1, 2)))


class TestDeepTrees:
    """Leaf bundles and the decomposition walk trees without recursion."""

    def left_comb(self, n):
        return Diagram(n + 1, (Slice(0, SIG.lookup("mu")),) * n)

    def test_leaf_bundles_of_deep_comb(self):
        assert leaf_bundles(self.left_comb(2000)) == (
            tuple(range(2001)),)

    def test_decompose_deep_comb(self):
        comb = self.left_comb(1200)
        assert decompose_algebraic(comb) == (tuple(range(1201)), comb)


# -- decomposition ---------------------------------------------------------


def random_algebraic_diagram(rng, max_gens=6, max_width=5):
    """A random 2-cell over {mu, eta, tau} with bounded width."""
    gens = [SIG.lookup(n) for n in ("mu", "eta", "tau")]
    w = rng.randint(1, max_width)
    d = identity(w)
    for _ in range(rng.randint(1, max_gens)):
        options = [
            (g, off)
            for g in gens
            if g.arity <= d.output_width
            and d.output_width - g.arity + g.coarity <= max_width
            for off in range(d.output_width - g.arity + 1)
        ]
        if not options:
            break
        g, off = rng.choice(options)
        d = Diagram(d.input_width, d.slices + (Slice(off, g),))
    return d


class TestDecompose:
    def test_pure_input(self):
        d = Q("(mu * id 1) ; mu")
        sigma, pure = decompose_algebraic(d)
        assert sigma == (0, 1, 2)
        assert diagram_equal(pure, d)

    def test_beta_source(self):
        sigma, pure = decompose_algebraic(Q("tau ; mu"))
        assert sigma == (1, 0)
        assert diagram_equal(pure, Q("mu"))

    def test_round_trip_random(self):
        rng = random.Random(42)
        equiv = congruence_equiv(BR.polygraph)
        for _ in range(200):
            d = random_algebraic_diagram(rng)
            sigma, pure = decompose_algebraic(d)
            assert all(s.gen.name != "tau" for s in pure.slices)
            assert sorted(sigma) == list(range(d.input_width))
            assert equiv(vcomp(perm_diagram(sigma), pure), d)

    def test_perm_diagram(self):
        d = perm_diagram((2, 0, 1))
        assert all(s.gen.name == "tau" for s in d.slices)
        assert leaf_bundles(d) == ((2,), (0,), (1,))

    def test_perm_diagram_rejects(self):
        with pytest.raises(CoherenceError, match="permutation"):
            perm_diagram((0, 0, 1))

    def test_rejects_non_algebraic(self):
        from polyrew.diagram import GeneratorSym, generator_diagram

        with pytest.raises(CoherenceError, match="algebraic"):
            decompose_algebraic(
                generator_diagram(GeneratorSym("delta", 1, 2))
            )


# -- the braid of a step / trace -------------------------------------------


class TestBraidOfStep:
    def test_beta_identity_context(self):
        src = Q("tau ; mu")
        s = step_at("beta", "forward", src)
        assert braid_of_trace(Trace(src, (s,)), BR.polygraph) == sigma(2, 1)

    def test_lambda_empty(self):
        src = Q("(eta * id 1) ; mu")
        s = step_at("lambda", "forward", src)
        assert braid_of_trace(Trace(src, (s,)), BR.polygraph) == BraidWord(1)

    def test_beta_backward_under_tau(self):
        s = Step(R("beta"), "backward", Context(tau_diagram(), 0, 0, identity(1)))
        assert braid_of_trace(
            Trace(s.source(), (s,)), BR.polygraph) == sigma(2, 1, -1)

    def test_stale_source_rejected(self):
        s = step_at("beta", "forward", Q("tau ; mu"))
        with pytest.raises(RewriteError, match="invalid trace"):
            braid_of_trace(Trace(Q("mu"), (s,)), BR.polygraph)

    def test_empty_bundle_empty_word(self):
        # beta whose redex wires carry an eta bundle: crossing nothing.
        src = Q("(eta * id 1) ; tau ; mu")
        s = step_at("beta", "forward", src)
        assert braid_of_trace(Trace(src, (s,)), BR.polygraph) == BraidWord(1)


class TestBraidOfTrace:
    def test_mon_only_trace_empty(self):
        src = Q("(mu * id 1) ; mu")
        s = step_at("alpha", "forward", src)
        t = Trace(src, (s,))
        assert braid_of_trace(t) == BraidWord(3)

    def test_single_beta(self):
        src = Q("tau ; mu")
        t = Trace(src, (step_at("beta", "forward", src),))
        assert braid_of_trace(t) == sigma(2, 1)

    def test_invalid_trace_rejected(self):
        src = Q("tau ; mu")
        alien = step_at("alpha", "forward", Q("(mu * id 1) ; mu"))
        with pytest.raises(Exception):
            braid_of_trace(Trace(src, (alien,)))

    def test_steps_read_modulo_the_structural_congruence(self):
        # beta backward at the identity context of mu applies to
        # tau ; tau ; mu, which equals mu only through the sym rule.
        beta = R("beta")
        step = Step(beta, "backward", identity_context(beta.rhs))
        t = Trace(Q("tau ; tau ; mu"), (step,))
        validate_trace(t, congruence_equiv(BR.polygraph))
        with pytest.raises(RewriteError, match="invalid trace"):
            validate_trace(t)
        assert braid_of_trace(t, BR.polygraph) == sigma(2, 1, -1)


# -- deciders --------------------------------------------------------------


def daleth1_legs():
    """The two boundary legs of the braided-hexagon 4-cell on 3 strands."""
    source = Q("(id 1 * tau) ; (tau * id 1) ; (mu * id 1) ; mu")
    one_tau = Q("id 1 * tau")
    leg1 = Trace(source, (
        Step(R("beta"), "forward", Context(one_tau, 0, 1, Q("mu"))),
        Step(R("alpha"), "forward", Context(one_tau, 0, 0, identity(1))),
        Step(R("beta"), "forward", Context(identity(3), 1, 0, Q("mu"))),
    ))
    leg2 = Trace(source, (
        Step(R("alpha"), "forward",
             Context(Q("(id 1 * tau) ; (tau * id 1)"), 0, 0, identity(1))),
        # implicit structural jump: the naturality of the crossing moves mu
        # below tau; the prop congruence absorbs it.
        Step(R("beta"), "forward", Context(Q("mu * id 1"), 0, 0, identity(1))),
        Step(R("alpha"), "forward", Context(identity(3), 0, 0, identity(1))),
    ))
    return leg1, leg2


def beta_vs_whiskered_inverse():
    """beta against its inverse pushed under a top crossing: parallel but
    braids sigma_1 vs sigma_1^-1."""
    src = Q("tau ; mu")
    t1 = Trace(src, (step_at("beta", "forward", src),))
    t2 = Trace(src, (
        Step(R("beta"), "backward", Context(tau_diagram(), 0, 0, identity(1))),
        Step(R("sym"), "forward", Context(identity(2), 0, 0, Q("mu"))),
    ))
    return t1, t2


class TestDecide:
    def test_mon_aleph_legs_equal(self):
        mon = get_preset("mon")
        msig = mon.polygraph.signature
        src = parse_diagram("(mu * id 2) ; (mu * id 1) ; mu", msig)
        alpha = mon.polygraph.rule("alpha")

        def leg(match_index):
            current, steps = src, []
            while True:
                ms = find_matches(current, alpha.lhs)
                if not ms:
                    break
                m = ms[min(match_index, len(ms) - 1)]
                s = Step(alpha, "forward", m.context)
                steps.append(s)
                current = s.target()
            return Trace(src, tuple(steps))

        t1, t2 = leg(0), leg(1)
        assert t1.steps != t2.steps
        d = decide_coherence(mon, t1, t2)
        assert d.outcome == "Equal"

    def test_daleth1_equal(self):
        leg1, leg2 = daleth1_legs()
        d = decide_coherence(BR, leg1, leg2)
        assert d.outcome == "Equal"
        assert braid_equal(braid_of_trace(leg1), braid_of_trace(leg2))

    def test_beta_vs_whiskered_inverse_not_equal(self):
        t1, t2 = beta_vs_whiskered_inverse()
        d = decide_coherence(BR, t1, t2)
        assert d.outcome == "NotEqual"
        assert d.evidence["garside1"] != d.evidence["garside2"]

    def test_not_parallel(self):
        src = Q("tau ; mu")
        t1 = Trace(src, (step_at("beta", "forward", src),))
        t2 = Trace(Q("mu"), ())
        assert decide_coherence(BR, t1, t2).outcome == "NotParallel"

    def test_braids_only_for_parallel_pairs(self, monkeypatch):
        # A pair that is not parallel is answered before any braid is built;
        # a parallel pair builds one braid per trace.
        calls = []

        def counting(t, *args, **kwargs):
            calls.append(t)
            return braid_of_trace(t, *args, **kwargs)

        monkeypatch.setattr(coherence, "braid_of_trace", counting)
        src = Q("tau ; mu")
        t1 = Trace(src, (step_at("beta", "forward", src),))
        assert decide_coherence(BR, t1, Trace(Q("mu"), ())).outcome == \
            "NotParallel"
        assert calls == []
        leg1, leg2 = daleth1_legs()
        assert decide_coherence(BR, leg1, leg2).outcome == "Equal"
        assert calls == [leg1, leg2]

    def test_reflexive_and_symmetric(self):
        leg1, leg2 = daleth1_legs()
        t1, t2 = beta_vs_whiskered_inverse()
        for preset, (a, b) in ((BR, (leg1, leg2)), (BR, (t1, t2))):
            assert decide_coherence(preset, a, a).outcome == "Equal"
            assert (
                decide_coherence(preset, a, b).outcome
                == decide_coherence(preset, b, a).outcome
            )

    @pytest.mark.parametrize("name", ["br", "sym"])
    def test_plugs_each_boundary_once(self, monkeypatch, name):
        # Validation plugs each step's source and target once; the decision
        # reads both targets from the checked chains instead of plugging the
        # last step again for the evidence and the parallelism check.
        # Plugs made by the structural normal form are not counted: its
        # cache decides whether it runs at all.
        preset = get_preset(name)
        leg1, leg2 = daleth1_legs()
        contexts = [s.context for s in leg1.steps + leg2.steps]
        plug, calls = Context.plug, []

        def counting_plug(self, pattern):
            if any(self is c for c in contexts):
                calls.append(pattern)
            return plug(self, pattern)

        monkeypatch.setattr(Context, "plug", counting_plug)
        d = decide_coherence(preset, leg1, leg2)
        assert len(calls) == 2 * len(contexts)
        monkeypatch.undo()
        assert d.evidence["target1"] == print_diagram(leg1.target())
        assert d.evidence["target2"] == print_diagram(leg2.target())
        chain = validate_trace(leg1, congruence_equiv(preset.polygraph))
        assert len(chain) == len(leg1.steps) + 1
        assert chain[-1] == leg1.target()

    def test_aspherical_never_not_equal(self):
        sym = get_preset("sym")
        t1, t2 = beta_vs_whiskered_inverse()
        assert decide_coherence(sym, t1, t2).outcome == "Equal"

    def test_decision_serializes(self):
        t1, t2 = beta_vs_whiskered_inverse()
        d = decide_coherence(BR, t1, t2)
        blob = json.loads(json.dumps(d.to_dict()))
        assert blob["outcome"] == "NotEqual"
        assert "braid1" in blob["evidence"]


# -- composition and whiskering --------------------------------------------


class TestCompose:
    def test_beta_with_inverse_trivial(self):
        src = Q("tau ; mu")
        s = step_at("beta", "forward", src)
        t1 = Trace(src, (s,))
        t2 = Trace(s.target(), (s.inverse(),))
        closed = initial_algebra_compose(t1, t2)
        assert is_trivial(braid_of_trace(closed))

    def test_compose_across_structural_jump(self):
        # target and source agree only modulo a symmetry move.
        t1 = Trace(Q("tau ; tau ; tau ; mu"), ())
        t2 = Trace(Q("tau ; mu"), (step_at("beta", "forward", Q("tau ; mu")),))
        composed = initial_algebra_compose(t1, t2)
        assert braid_of_trace(composed) == sigma(2, 1)

    def test_misaligned_rejected(self):
        t1 = Trace(Q("mu"), ())
        t2 = Trace(Q("tau ; mu"), ())
        with pytest.raises(CoherenceError, match="misaligned"):
            initial_algebra_compose(t1, t2)

    def test_mon_trace_leaves_braid_unchanged(self):
        src = Q("tau ; mu")
        t1 = Trace(src, (step_at("beta", "forward", src),))
        # unfold a unit below the target and fold it back
        s = Step(R("rho"), "backward", Context(Q("mu"), 0, 0, identity(1)))
        t2 = Trace(Q("mu"), (s, s.inverse()))
        composed = initial_algebra_compose(t1, t2)
        assert braid_of_trace(composed) == braid_of_trace(t1)

    def test_whisker_top(self):
        t1, _ = beta_vs_whiskered_inverse()
        w = whisker_top(t1, tau_diagram())
        validate_trace(w, congruence_equiv(BR.polygraph))
        assert diagram_equal(w.source, vcomp(tau_diagram(), t1.source))
        # whiskering under a crossing conjugates the strand positions
        assert braid_of_trace(w) == sigma(2, 1)

    def test_whisker_width_mismatch(self):
        t1, _ = beta_vs_whiskered_inverse()
        with pytest.raises(CoherenceError, match="width"):
            whisker_top(t1, identity(3))

    def test_printed_trace_is_parallel_to_itself(self):
        # ``critical`` builds the legs of a confluence diagram and
        # ``parse_trace`` reads them back: on a prop both must compare
        # under the congruence alone.
        p = BR.polygraph
        cd = check_local_confluence(p, enumerate_critical_branchings(p)[0])
        assert isinstance(cd, ConfluenceDiagram)
        equiv = congruence_equiv(p)
        t = cd.leg(1)
        back = parse_trace(print_trace(t), p)
        assert parallel(t, back, equiv)
        loop = compose_traces(t, invert_trace(back), equiv)
        assert equiv(loop.source, loop.target())


# -- randomized invariants -------------------------------------------------


def random_br_trace(rng, max_steps=6):
    """A random valid trace over the br polygraph with algebraic boundaries."""
    src = random_algebraic_diagram(rng)
    current, steps = src, []
    rules = BR.polygraph.rules
    for _ in range(rng.randint(0, max_steps)):
        rule = rng.choice(rules)
        direction = rng.choice(("forward", "backward"))
        if len(rule.side(direction)) == 0:
            continue
        ms = find_matches(current, rule.side(direction))
        if not ms:
            continue
        s = Step(rule, direction, rng.choice(ms).context)
        steps.append(s)
        current = s.target()
    return Trace(src, tuple(steps))


class TestRandomizedInvariants:
    def test_permutation_consistency(self):
        rng = random.Random(20260824)
        checked = 0
        while checked < 100:
            t = random_br_trace(rng)
            word = braid_of_trace(t)
            sigma_src, _ = decompose_algebraic(t.source)
            sigma_tgt, _ = decompose_algebraic(t.target())
            perm = perm_of_braid(word)
            assert perm == tuple(
                sigma_tgt.index(sigma_src[j]) for j in range(t.source.input_width)
            )
            checked += 1
        assert checked == 100

    def test_mon_insertion_invariance(self):
        """Splicing cancelling Mon-step pairs, or lone structural steps,
        anywhere into a trace never changes its braid."""
        rng = random.Random(77)
        mon_rules = ("alpha", "lambda", "rho")
        structural = [r.name for r in structural_rules(BR.polygraph)]
        checked = 0
        while checked < 100:
            t = random_br_trace(rng)
            base = braid_of_trace(t)
            pos = rng.randint(0, len(t.steps))
            at = t.source if pos == 0 else t.steps[pos - 1].target()
            if rng.random() < 0.5:
                s = step_at(rng.choice(mon_rules),
                            rng.choice(("forward", "backward")), at)
                insert = (s, s.inverse()) if s else ()
            else:
                s = step_at(rng.choice(structural),
                            rng.choice(("forward", "backward")), at)
                insert = (s,) if s else ()
            if not insert:
                continue
            mutated = Trace(
                t.source, t.steps[:pos] + insert + t.steps[pos:]
            )
            assert braid_of_trace(mutated) == base
            checked += 1
        assert checked == 100


# -- the structural normal form memo ---------------------------------------


def uncached_structural_normal_form(d, p):
    nf, _ = normalize(d, p, rules=structural_rules(p))
    return canonical_form(nf)


class TestStructuralNormalFormMemo:
    def test_matches_uncached_on_exchange_class(self):
        """Every member of an exchange class gets the normal form that
        normalizing that very member gives."""
        rng = random.Random(2026)
        p = BR.polygraph
        members = 0
        for _ in range(40):
            d = random_algebraic_diagram(rng, max_gens=5, max_width=4)
            for slices in exchange_closure(d):
                m = Diagram(d.input_width, slices)
                assert structural_normal_form(m, p) == \
                    uncached_structural_normal_form(m, p)
                members += 1
        assert members > 40

    def test_errors_not_cached(self, monkeypatch):
        p = BR.polygraph
        d = Q("tau ; tau ; (eta * id 2) ; (id 1 * mu)")
        coherence._structural_normal_form.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(coherence, "DEFAULT_BUDGET", 0)
            for _ in range(2):
                with pytest.raises(BudgetExceededError):
                    structural_normal_form(d, p)
        assert structural_normal_form(d, p) == \
            uncached_structural_normal_form(d, p)


class TestCongruenceEquiv:
    @pytest.mark.parametrize("name, max_slices, max_width, pairs, equal", [
        ("br", 3, 3, 11800, 322),
        ("sym_prime", 3, 3, 11800, 322),
        ("perm", 5, 4, 68034, 5096),
        ("mon", 4, 3, 14454, 350),
    ])
    def test_is_diagram_equal_of_structural_normal_forms(
            self, name, max_slices, max_width, pairs, equal):
        """``==`` on structural normal forms agrees with ``diagram_equal``
        on them, for every pair of small diagrams of one input width; for
        a pro, with ``diagram_equal`` itself."""
        p = get_preset(name).polygraph
        equiv = congruence_equiv(p)
        diagrams = every_diagram(p.signature, max_slices, max_width, max_width)
        seen = found = 0
        for d1, d2 in itertools.combinations(diagrams, 2):
            if d1.input_width != d2.input_width:
                continue
            verdict = equiv(d1, d2)
            assert verdict == diagram_equal(structural_normal_form(d1, p),
                                            structural_normal_form(d2, p))
            if not structural_rules(p):
                assert verdict == diagram_equal(d1, d2)
            seen += 1
            found += verdict
        assert (seen, found) == (pairs, equal)


class TestAlgebraicKey:
    @pytest.mark.parametrize("name, max_slices, max_width, size, classes", [
        ("sym", 4, 3, 723, 285),
        ("sym_prime", 4, 3, 723, 285),
        ("br", 4, 3, 723, 285),
        ("perm", 5, 4, 303, 33),
    ])
    def test_same_classes_as_structural_normal_form(
            self, name, max_slices, max_width, size, classes):
        """``(input_width, decompose_algebraic(d))`` puts two diagrams in
        one class exactly when their structural normal forms are equal:
        equal keys imply equal forms, and equal forms imply equal keys."""
        p = get_preset(name).polygraph
        diagrams = all_diagrams(p.signature, max_slices, max_width)
        pairs = {((d.input_width, decompose_algebraic(d)),
                  structural_normal_form(d, p)) for d in diagrams}
        keys = {k for k, _ in pairs}
        forms = {f for _, f in pairs}
        assert len(keys) == len(forms) == len(pairs)
        assert (len(diagrams), len(pairs)) == (size, classes)
