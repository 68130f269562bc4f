"""Tests for matching, steps, normalization, and traces."""

import dataclasses
import functools
import itertools
import random

import pytest

from polyrew.diagram import (
    Diagram,
    DiagramError,
    ParseError,
    Signature,
    Slice,
    canonical_form,
    diagram_equal,
    hcomp,
    identity,
    parse_diagram,
    print_diagram,
    vcomp,
)
from polyrew.rewrite import (
    BudgetExceededError,
    Context,
    Polygraph,
    RewriteError,
    Rule,
    Step,
    Trace,
    compose_traces,
    find_matches,
    invert_trace,
    normalize,
    parallel,
    parse_polygraph,
    parse_trace,
    print_polygraph,
    print_trace,
    validate_trace,
)
from polyrew.diagram import _ports
from polyrew.rewrite import _connected, _kinds
import polyrew.rewrite
from polyrew.coherence import get_preset
from polyrew.critical import critical_pairs_on
from conftest import MU, cup_polygraph, identity_context
from exchange_oracle import (
    exchange_closure, id_keyed_closure, occurrences_in, unfiltered_matches)
from test_critical import all_diagrams as class_representatives
from test_critical import counit_polygraph
from test_diagram import all_diagrams, random_diagram


class TestFindMatches:
    def test_two_alpha_matches_in_aleph_source(self, mon_polygraph):
        p = mon_polygraph
        d = parse_diagram("(mu * id 2) ; (mu * id 1) ; mu", p.signature)
        ms = find_matches(d, p.rule("alpha").lhs)
        assert len(ms) == 2

    def test_identity_has_no_matches(self, mon_polygraph):
        p = mon_polygraph
        ms = find_matches(identity(3), p.rule("alpha").lhs)
        assert ms == []

    def test_empty_pattern_rejected(self, mon_polygraph):
        lhs = mon_polygraph.rule("alpha").lhs
        with pytest.raises(RewriteError, match="at least one generator"):
            find_matches(lhs, lhs, identity(1))

    def test_match_equality_and_hash(self, mon_polygraph):
        # Equal matches found apart hash alike; a non-match is never equal.
        lhs = mon_polygraph.rule("alpha").lhs
        m, again = find_matches(lhs, lhs)[0], find_matches(lhs, lhs)[0]
        assert m is not again and m == again
        assert hash(m) == hash(again) and len({m, again}) == 1
        assert m != m.key() and m.__eq__(m.key()) is NotImplemented

    def test_self_match(self, mon_polygraph):
        p = mon_polygraph
        lhs = p.rule("alpha").lhs
        ms = find_matches(lhs, lhs)
        assert len(ms) == 1
        ctx = ms[0].context
        assert ctx.top == identity(3)
        assert ctx.bottom == identity(1)
        assert (ctx.left, ctx.right) == (0, 0)

    def test_soundness(self, mon_polygraph):
        p = mon_polygraph
        rng = random.Random(11)
        for _ in range(150):
            d = random_diagram(p.signature, rng)
            for rule in p.rules:
                for m in find_matches(d, rule.lhs):
                    assert diagram_equal(m.context.plug(rule.lhs), d)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def pattern_members(pattern):
        """The closure of ``pattern``, and the generator sequences of its
        members."""
        members = set(exchange_closure(pattern))
        return members, {tuple(s.gen for s in m) for m in members}

    def brute_force_match_count(self, d, pattern):
        """Count distinct contexts C with C[pattern] ~ d by trying every
        split of every closure member against every closure member of the
        pattern.  A window whose generators are those of no member is
        skipped: a shifted window equals a member only if its generators
        do."""
        hits = set()
        k = len(pattern)
        pat_members, pat_gens = self.pattern_members(pattern)
        for member in exchange_closure(d):
            widths = [d.input_width]
            for s in member:
                widths.append(widths[-1] - s.gen.arity + s.gen.coarity)
            for i in range(len(member) - k + 1):
                window = member[i: i + k]
                if tuple(s.gen for s in window) not in pat_gens:
                    continue
                for shift in range(widths[i] - pattern.input_width + 1):
                    shifted = tuple(Slice(s.offset - shift, s.gen)
                                    for s in window
                                    if s.offset >= shift)
                    if len(shifted) != k:
                        continue
                    try:
                        cand = Diagram(pattern.input_width, shifted)
                    except Exception:
                        continue
                    if tuple(cand.slices) in pat_members:
                        top = Diagram(d.input_width, member[:i])
                        rest = Diagram(
                            widths[i] - pattern.input_width + pattern.output_width,
                            member[i + k:],
                        )
                        hits.add(
                            (
                                canonical_form(top).slices,
                                shift,
                                canonical_form(rest).slices,
                            )
                        )
        return hits

    def test_completeness_small(self, mon_polygraph):
        """find_matches agrees with a brute-force closure search on all Mon
        diagrams of <= 5 slices (sampled widths to keep runtime sane)."""
        p = mon_polygraph
        rng = random.Random(23)
        pool = all_diagrams(p.signature, 4, 3)
        pool += [random_diagram(p.signature, rng, max_slices=5, max_width=4)
                 for _ in range(50)]
        for d in pool:
            for rule in p.rules:
                ours = find_matches(d, rule.lhs)
                brute = self.brute_force_match_count(d, rule.lhs)
                # Brute force counts contexts; ours dedupes by occurrences.
                # Each distinct occurrence set yields at least one context.
                assert (len(ours) == 0) == (len(brute) == 0)
                # Distinct occurrence sets give distinct contexts, so the
                # deduplicated count is bounded by the brute-force one.
                assert len(ours) <= len(brute)

    def test_determinism(self, mon_polygraph):
        p = mon_polygraph
        d = parse_diagram("(mu * id 2) ; (mu * id 1) ; mu", p.signature)
        a = find_matches(d, p.rule("alpha").lhs)
        b = find_matches(d, p.rule("alpha").lhs)
        assert [m.occurrences for m in a] == [m.occurrences for m in b]


def test_find_matches_survives_dropped_id_orders():
    # ``exchange_closure_with_ids`` keeps one id order per slice sequence;
    # over the counit signature some classes have orders it drops.  None
    # of them may cost ``find_matches`` an occurrence set.
    p = counit_polygraph()
    lhss = [r.lhs for r in p.rules]
    dropped = 0
    for d in class_representatives(p.signature, 5, 3):
        u = canonical_form(d)
        members = id_keyed_closure(u)
        dropped += len(members) > len({slices for slices, _ in members})
        got = {(m.pattern, m.occurrences) for m in find_matches(u, *lhss)}
        assert got == occurrences_in(members, u, lhss), print_diagram(u)
    assert dropped == 43


class TestOneClosurePerSubject:
    """``find_matches`` with several patterns reads one exchange closure and
    gives what one call per pattern would, in pattern order."""

    @pytest.mark.parametrize("p, max_slices, max_width", [
        (get_preset("mon").polygraph, 3, 3),
        (get_preset("sym_prime").polygraph, 3, 3),
        (counit_polygraph(), 3, 2),
    ], ids=["mon", "sym_prime", "counit"])
    def test_matches_single_pattern_calls(self, p, max_slices, max_width):
        pats = [side for r in p.rules for side in (r.lhs, r.rhs) if len(side)]
        for d in all_diagrams(p.signature, max_slices, max_width):
            single = [
                dataclasses.replace(m, pattern=n)
                for n, pat in enumerate(pats) for m in find_matches(d, pat)
            ]
            assert find_matches(d, *pats) == single, print_diagram(d)

    def test_no_patterns(self, mon_polygraph):
        d = parse_diagram("(mu * id 1) ; mu", mon_polygraph.signature)
        assert find_matches(d) == []
        assert normalize(d, Polygraph(mon_polygraph.signature, ())) == (
            d, Trace(d))

    @pytest.fixture
    def closures(self, monkeypatch):
        calls = []
        build = polyrew.rewrite.exchange_closure_with_ids

        def counting(d):
            calls.append(d)
            return build(d)

        monkeypatch.setattr(polyrew.rewrite, "exchange_closure_with_ids", counting)
        return calls

    def test_normalize_builds_one_closure_per_step(self, mon_polygraph, closures):
        # Already normal, and no rule source's wire kinds are all in it:
        # no closure at all.
        d = parse_diagram("mu * mu * mu", mon_polygraph.signature)
        nf, trace = normalize(d, mon_polygraph)
        assert (nf, trace.steps) == (d, ())
        assert len(closures) == 0
        # One redex: one closure for its step, none for the normal form.
        d = parse_diagram("(mu * id 1) ; mu", mon_polygraph.signature)
        nf, trace = normalize(d, mon_polygraph)
        assert len(trace.steps) == 1
        assert len(closures) == 1

    def test_critical_pairs_on_builds_no_closure(self, mon_polygraph, closures):
        # The sources are closed, so the pair and its contexts are read off
        # the walk along wires.
        d = parse_diagram("(mu * id 2) ; (mu * id 1) ; mu", mon_polygraph.signature)
        assert len(critical_pairs_on(mon_polygraph, d)) == 1
        assert not closures

    def test_redex_beside_parallel_mu(self, mon_polygraph, closures):
        # The subject has eight wire-connected components and the sources
        # are closed, so the walk along wires finds the redex: the seven
        # bystanders cost no orders, and no closure is built.
        sig = mon_polygraph.signature
        redex = "((mu * id 1) ; mu)"
        _, trace = normalize(parse_diagram(redex + " * mu" * 7, sig),
                             mon_polygraph)
        assert len(trace.steps) == 1
        assert not closures
        d = parse_diagram(redex + " * mu" * 5, sig)
        _, trace = normalize(d, mon_polygraph)
        lhss = [r.lhs for r in mon_polygraph.rules]
        assert trace.steps[0].context == unfiltered_matches(d, *lhss)[0][2]


class TestWireKinds:
    """``find_matches`` skips a pattern whose wire kinds the subject lacks;
    that must never lose a match, and contexts built on first read must be
    the ones built eagerly."""

    @staticmethod
    def kinds(d):
        return _kinds(d, _ports(d)[0])

    def test_kinds(self, mon_polygraph):
        p = counit_polygraph()
        assert self.kinds(parse_diagram(
            "(mu * id 1) ; mu", mon_polygraph.signature)) == {
                "mu", ("mu", 0, "mu", 0)}
        assert self.kinds(parse_diagram(
            "eta ; delta ; (id 1 * eps)", p.signature)) == {
                "eta", "delta", "eps", ("eta", 0, "delta", 0),
                ("delta", 1, "eps", 0)}
        assert self.kinds(identity(2)) == frozenset()

    @pytest.mark.parametrize("p, max_slices, max_width", [
        (get_preset("mon").polygraph, 3, 3),
        (get_preset("sym_prime").polygraph, 3, 3),
        (counit_polygraph(), 3, 2),
    ], ids=["mon", "sym_prime", "counit"])
    def test_rejection_is_sound(self, p, max_slices, max_width):
        pats = [side for r in p.rules for side in (r.lhs, r.rhs) if len(side)]
        brute = TestFindMatches().brute_force_match_count
        rejected = 0
        for d in all_diagrams(p.signature, max_slices, max_width):
            feeds, consumers, _ = _ports(d)
            # The component view ``find_matches`` reads off the same wiring.
            assert _connected(feeds, consumers) == (components(d) == 1)
            kinds = _kinds(d, feeds)
            for pat in pats:
                if not self.kinds(pat) <= kinds:
                    rejected += 1
                    assert not brute(d, pat), (print_diagram(d), print_diagram(pat))
            got = [(m.pattern, m.occurrences, m.context)
                   for m in find_matches(d, *pats)]
            assert got == unfiltered_matches(d, *pats), print_diagram(d)
        assert rejected

    def test_rejection_canonicalizes_nothing(self, mon_polygraph,
                                             monkeypatch):
        # The kinds test reads ``d`` as given: when it rejects every
        # pattern, ``d`` is not canonicalized.
        sig = mon_polygraph.signature
        alpha = mon_polygraph.rule("alpha").lhs
        find_matches(alpha, alpha)  # the pattern's own form, cached
        calls = []
        canonicalize = polyrew.rewrite.canonical_form

        def counting(d):
            calls.append(d)
            return canonicalize(d)

        monkeypatch.setattr(polyrew.rewrite, "canonical_form", counting)
        assert find_matches(parse_diagram("mu * mu", sig), alpha) == []
        assert calls == []
        d = parse_diagram("(mu * id 1) ; mu", sig)
        assert len(find_matches(d, alpha)) == 1
        assert calls == [d]

    def test_reading_first_context_builds_one(self, mon_polygraph, monkeypatch):
        built = []
        build = polyrew.rewrite.Context

        def counting(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(polyrew.rewrite, "Context", counting)
        d = parse_diagram("(mu * id 2) ; (mu * id 1) ; mu", mon_polygraph.signature)
        ms = find_matches(d, mon_polygraph.rule("alpha").lhs)
        assert len(ms) == 2 and not built
        assert ms[0].context is ms[0].context
        assert len(built) == 1


def components(d):
    """The number of wire-connected components among the slices of ``d``."""
    root = list(range(len(d)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    producer = [None] * d.input_width
    for i, s in enumerate(d.slices):
        for j in producer[s.offset: s.offset + s.gen.arity]:
            if j is not None:
                root[find(j)] = i
        producer[s.offset: s.offset + s.gen.arity] = [i] * s.gen.coarity
    return len({find(i) for i in range(len(d))})


def closed(pattern):
    """Whether ``pattern`` is connected and no input wire passes through it
    unconsumed, so that a slice produces each output wire."""
    wires = [True] * pattern.input_width  # whether the wire is an input
    for s in pattern.slices:
        wires[s.offset: s.offset + s.gen.arity] = [False] * s.gen.coarity
    return components(pattern) == 1 and not any(wires)


class TestComponentSplit:
    """On a subject of several wire-connected components, the walk along
    wires finds the matches and contexts of the whole subject's closure."""

    # The sources are chains; each closed extra has two slices either of
    # which can come first.
    @pytest.mark.parametrize("p, extra", [
        (get_preset("mon").polygraph, ["id 1 * eta", "mu * id 1", "eta * eta",
                                       "(mu * eta) ; mu", "(eta * eta) ; mu"]),
        (get_preset("sym_prime").polygraph, ["id 1 * mu", "tau * id 1",
                                             "(mu * mu) ; mu"]),
        (cup_polygraph(), ["id 1 * eta", "cup * cup", "mu * id 1",
                           "(eta * eta) ; mu"]),
        (counit_polygraph(), ["id 1 * eta", "delta * id 1",
                              "delta ; (delta * delta)"]),
    ], ids=["mon", "sym_prime", "cup", "counit"])
    def test_matches_whole_closure(self, p, extra, monkeypatch):
        closures = []
        build = polyrew.rewrite.exchange_closure_with_ids

        def counting(d):
            closures.append(d)
            return build(d)

        monkeypatch.setattr(polyrew.rewrite, "exchange_closure_with_ids",
                            counting)
        walked = eps_closures = 0
        sig = p.signature
        sources = [r.lhs for r in p.rules]
        extra = [parse_diagram(e, sig) for e in extra]
        rng = random.Random(sig.name)
        checked = 0
        while checked < 20:
            d = diagram_from(sig, rng, rng.randint(0, 3), max_slices=8)
            if sig.has("cup") and rng.random() < 0.5:
                # A unit between the wires of a cap.
                w = rng.randint(0, 2)
                d = vcomp(parse_diagram(f"id {w} * cup", sig),
                          parse_diagram(f"id {w + 1} * eta * id 1", sig),
                          diagram_from(sig, rng, w + 3, max_slices=6))
            # Two to four components: more add orders, not new layouts, and
            # the oracle pays for every order.
            if not (4 <= len(d) <= 8 and 2 <= components(d) <= 4):
                continue
            checked += 1
            # One closure for the oracle: it treats each pattern alone.
            want = unfiltered_matches(d, *sources, *extra)
            k = len(sources)
            for pats in (range(k), [*range(k), k + rng.randrange(len(extra))],
                         range(k, k + len(extra))):
                index = {n: k for k, n in enumerate(pats)}
                chosen = [(sources + extra)[n] for n in pats]
                del closures[:]
                got = [(m.pattern, m.occurrences, m.context)
                       for m in find_matches(d, *chosen)]
                assert got == [(index[n], occ, ctx) for n, occ, ctx in want
                               if n in index], print_diagram(d)
                # Closed patterns and no coarity 0: the walk, no closure.
                if all(map(closed, chosen)) and all(
                        s.gen.coarity for s in d.slices):
                    assert not closures, print_diagram(d)
                    walked += 1
                eps_closures += any(s.gen.name == "eps"
                                    for c in closures for s in c.slices)
        if p.signature.name == "Counit":
            assert eps_closures
        else:
            assert walked

    def test_window_takes_the_patterns_order(self, mon_polygraph):
        # The pattern's canonical order emits its mu before its eta; the
        # subject's canonical numbering puts that eta first.
        sig = mon_polygraph.signature
        d = parse_diagram(
            "eta ; (id 1 * eta) ; mu ; (id 1 * eta) ; mu ; (eta * id 1)", sig)
        pat = parse_diagram("(mu * eta) ; mu", sig)
        got = [(m.pattern, m.occurrences, m.context)
               for m in find_matches(d, pat)]
        assert len(got) == 1
        assert got == unfiltered_matches(d, pat)
        # Four units fed into two mu: the window must list the occurrences
        # in the pattern's canonical order, or no representative has it.
        d = parse_diagram("eta ; (eta * id 1) ; (eta * id 2) ; (eta * id 3)"
                          " ; (mu * id 2) ; (mu * id 1)", sig)
        got = [(m.pattern, m.occurrences, m.context)
               for m in find_matches(d, pat)]
        assert got and got == unfiltered_matches(d, pat)


class TestSteps:
    def test_alpha_forward(self, mon_polygraph):
        p = mon_polygraph
        alpha = p.rule("alpha")
        d = alpha.lhs
        step = Step(alpha, "forward", identity_context(alpha.lhs))
        validate_trace(Trace(d, (step,)))
        out = step.target()
        assert diagram_equal(out, parse_diagram("(id 1 * mu) ; mu", p.signature))

    def test_lambda_forward(self, mon_polygraph):
        p = mon_polygraph
        lam = p.rule("lambda")
        d = parse_diagram("(eta * id 1) ; mu", p.signature)
        step = Step(lam, "forward", identity_context(lam.lhs))
        validate_trace(Trace(d, (step,)))
        assert diagram_equal(step.target(), identity(1))

    def test_forward_then_backward(self, mon_polygraph):
        p = mon_polygraph
        alpha = p.rule("alpha")
        d = parse_diagram("(mu * id 2) ; (mu * id 1) ; mu", p.signature)
        m = find_matches(d, alpha.lhs)[0]
        fwd = Step(alpha, "forward", m.context)
        validate_trace(Trace(d, (fwd,)))
        out = fwd.target()
        validate_trace(Trace(out, (fwd.inverse(),)))
        back = fwd.inverse().target()
        assert diagram_equal(back, d)

    def test_bad_direction_rejected(self, mon_polygraph):
        alpha = mon_polygraph.rule("alpha")
        with pytest.raises(RewriteError, match="bad step direction 'up'"):
            Step(alpha, "up", identity_context(alpha.lhs))

    def test_negative_whisker_rejected(self):
        with pytest.raises(RewriteError, match="whiskers must be naturals"):
            Context(identity(1), -1, 0, identity(1))

    def test_stale_context(self, mon_polygraph):
        p = mon_polygraph
        alpha = p.rule("alpha")
        step = Step(alpha, "forward", identity_context(alpha.lhs))
        with pytest.raises(RewriteError, match="invalid trace"):
            validate_trace(Trace(identity(3), (step,)))

    def test_widths_preserved(self, mon_polygraph):
        p = mon_polygraph
        rng = random.Random(31)
        for _ in range(100):
            d = random_diagram(p.signature, rng)
            for rule in p.rules:
                for m in find_matches(d, rule.lhs):
                    step = Step(rule, "forward", m.context)
                    validate_trace(Trace(d, (step,)))
                    out = step.target()
                    assert out.input_width == d.input_width
                    assert out.output_width == d.output_width

    def test_boundaries_plugged_once(self, mon_polygraph):
        p = mon_polygraph
        alpha = p.rule("alpha")
        d = parse_diagram("(mu * id 2) ; (mu * id 1) ; mu", p.signature)
        ctx = find_matches(d, alpha.lhs)[0].context
        for direction in ("forward", "backward"):
            step = Step(alpha, direction, ctx)
            fresh = Step(alpha, direction, ctx)
            source, target = step.source(), step.target()
            assert source == ctx.plug(alpha.side(direction))
            assert target == ctx.plug(alpha.other_side(direction))
            assert step.source() is source
            assert step.target() is target
            # The plugged boundaries are no fields: equality, hashing and
            # printing read the step as if it had never been plugged.
            assert [f.name for f in dataclasses.fields(step)] == [
                "rule", "direction", "context"]
            assert step == fresh and hash(step) == hash(fresh)
            assert repr(step) == repr(fresh)

    def test_failed_plug_is_not_kept(self, mon_polygraph):
        alpha = mon_polygraph.rule("alpha")
        step = Step(alpha, "forward", Context(identity(2), 0, 0, identity(1)))
        for _ in range(2):
            with pytest.raises(RewriteError, match="does not frame"):
                step.source()
        assert "_source" not in vars(step)


def two_fold_plug(ctx, pattern):
    """``Context.plug`` as two binary vertical composites."""
    if ctx.top.output_width != ctx.left + pattern.input_width + ctx.right:
        raise RewriteError("context does not frame the pattern")
    middle = hcomp(identity(ctx.left), pattern, identity(ctx.right))
    return ctx.top.vcomp(middle).vcomp(ctx.bottom)


def diagram_from(sig, rng, width, max_slices=5):
    """A random diagram over ``sig`` with input width ``width``."""
    slices, w = [], width
    for _ in range(rng.randint(0, max_slices)):
        options = [Slice(off, g) for g in sig.all_generators()
                   for off in range(w - g.arity + 1)]
        if not options:
            break
        slices.append(rng.choice(options))
        w += slices[-1].gen.coarity - slices[-1].gen.arity
    return Diagram(width, tuple(slices))


class TestPlug:
    """``Context.plug`` builds the composite with one three-way ``vcomp``."""

    @pytest.mark.parametrize("preset", ["mon", "br"])
    def test_matches_two_fold_plug(self, preset):
        p = get_preset(preset).polygraph
        sig = p.signature
        rng = random.Random(preset)
        mismatches = 0
        for _ in range(300):
            pattern = rng.choice(p.rules).side(rng.choice(["forward", "backward"]))
            top = diagram_from(sig, rng, rng.randint(0, 6))
            while top.output_width < pattern.input_width:
                top = diagram_from(sig, rng, rng.randint(0, 6))
            left = rng.randint(0, top.output_width - pattern.input_width)
            right = top.output_width - pattern.input_width - left
            # Now and then a bottom of the wrong width.
            width = top.output_width - pattern.input_width + pattern.output_width
            if rng.random() < 0.2:
                width = rng.randint(0, 6)
            ctx = Context(top, left, right, diagram_from(sig, rng, width))
            try:
                want = two_fold_plug(ctx, pattern)
            except DiagramError as exc:
                mismatches += 1
                with pytest.raises(DiagramError) as got:
                    ctx.plug(pattern)
                assert str(got.value) == str(exc)
            else:
                assert ctx.plug(pattern) == want
        assert 0 < mismatches < 300

    def test_bottom_of_wrong_width(self, mon_polygraph):
        alpha = mon_polygraph.rule("alpha")
        ctx = Context(identity(4), 1, 0, identity(3))
        with pytest.raises(DiagramError) as exc:
            ctx.plug(alpha.lhs)
        assert str(exc.value) == (
            "vertical composition mismatch: output width 2 vs input width 3")


class TestNormalize:
    def test_alpha_one_step(self, as_polygraph):
        d = parse_diagram("(mu * id 1) ; mu", as_polygraph.signature)
        nf, trace = normalize(d, as_polygraph)
        assert diagram_equal(nf, parse_diagram("(id 1 * mu) ; mu", as_polygraph.signature))
        assert len(trace.steps) == 1

    def test_eta_eta_mu(self, mon_polygraph):
        # Both lambda and rho apply; the declaration order tries lambda
        # first, so the recorded step is the lambda one.
        p = mon_polygraph
        d = parse_diagram("(eta * eta) ; mu", p.signature)
        nf, trace = normalize(d, p)
        assert len(trace.steps) == 1
        assert trace.steps[0].rule.name == "lambda"
        assert diagram_equal(nf, parse_diagram("eta", p.signature))

    def test_identity_normal(self, mon_polygraph):
        nf, trace = normalize(identity(2), mon_polygraph)
        assert nf == identity(2)
        assert trace.steps == ()

    def test_no_matches_after(self, mon_polygraph):
        p = mon_polygraph
        rng = random.Random(47)
        for _ in range(40):
            d = random_diagram(p.signature, rng, max_slices=5, max_width=4)
            nf, _ = normalize(d, p)
            for rule in p.rules:
                assert find_matches(nf, rule.lhs) == []

    def test_confluence_smoke(self, mon_polygraph):
        """All exchange representatives of an input reach the same normal
        form."""
        p = mon_polygraph
        d = parse_diagram("(mu * id 2) ; (mu * id 1) ; mu", p.signature)
        nfs = set()
        for member in exchange_closure(d):
            nf, _ = normalize(Diagram(d.input_width, member), p)
            nfs.add(canonical_form(nf).slices)
        assert len(nfs) == 1

    def test_budget(self, mon_polygraph):
        sig = mon_polygraph.signature
        loop = Rule(
            "loop",
            parse_diagram("(mu * id 1) ; mu", sig),
            parse_diagram("(mu * id 1) ; mu", sig),
        )
        p = Polygraph(sig, (loop,))
        d = parse_diagram("(mu * id 1) ; mu", sig)
        with pytest.raises(BudgetExceededError) as exc:
            normalize(d, p, budget=7)
        assert len(exc.value.partial.steps) == 7


class TestTraces:
    def make_alpha_trace(self, p):
        alpha = p.rule("alpha")
        d = parse_diagram("(mu * id 2) ; (mu * id 1) ; mu", p.signature)
        _, trace = normalize(d, p)
        return d, trace

    def test_target(self, mon_polygraph):
        p = mon_polygraph
        alpha = p.rule("alpha")
        t = Trace(alpha.lhs, (Step(alpha, "forward", identity_context(alpha.lhs)),))
        assert diagram_equal(t.target(), alpha.rhs)

    def test_validate(self, mon_polygraph):
        d, t = self.make_alpha_trace(mon_polygraph)
        validate_trace(t)

    def test_validate_rejects_garbage(self, mon_polygraph):
        p = mon_polygraph
        alpha = p.rule("alpha")
        s = Step(alpha, "forward", identity_context(alpha.lhs))
        bad = Trace(identity(3), (s,))
        with pytest.raises(RewriteError):
            validate_trace(bad)

    def test_compose_and_invert(self, mon_polygraph):
        d, t = self.make_alpha_trace(mon_polygraph)
        inv = invert_trace(t)
        assert invert_trace(inv) == t
        round_trip = compose_traces(t, inv)
        validate_trace(round_trip)
        assert diagram_equal(round_trip.source, round_trip.target())

    def test_parallel(self, mon_polygraph):
        p = mon_polygraph
        d, t = self.make_alpha_trace(p)
        assert parallel(t, t)
        empty = Trace(p.rule("alpha").lhs)
        one = Trace(
            p.rule("alpha").lhs,
            (Step(p.rule("alpha"), "forward", identity_context(p.rule("alpha").lhs)),),
        )
        assert not parallel(one, empty)

    def test_aleph_legs_parallel(self, mon_polygraph):
        """The 2-step and 3-step completions of the aleph branching are
        parallel."""
        p = mon_polygraph
        alpha = p.rule("alpha")
        d = parse_diagram("(mu * id 2) ; (mu * id 1) ; mu", p.signature)
        m1, m2 = find_matches(d, alpha.lhs)
        legs = []
        for m in (m1, m2):
            first = Step(alpha, "forward", m.context)
            validate_trace(Trace(d, (first,)))
            nf, rest = normalize(first.target(), p)
            legs.append(Trace(d, (first,) + rest.steps))
        assert parallel(legs[0], legs[1])
        assert {len(legs[0].steps), len(legs[1].steps)} == {2, 3}


class TestFileFormats:
    MON_TEXT = """\
# the presentation of monoids
gen mu : 2 -> 1
gen eta : 0 -> 1
rule alpha : (mu * id 1) ; mu => (id 1 * mu) ; mu
rule lambda : (eta * id 1) ; mu => id 1
rule rho : (id 1 * eta) ; mu => id 1
"""

    def test_polygraph_round_trip(self):
        p = parse_polygraph(self.MON_TEXT, name="Mon")
        assert [r.name for r in p.rules] == ["alpha", "lambda", "rho"]
        again = parse_polygraph(print_polygraph(p), name="Mon")
        assert [r.name for r in again.rules] == [r.name for r in p.rules]
        for r1, r2 in zip(p.rules, again.rules):
            assert diagram_equal(r1.lhs, r2.lhs)
            assert diagram_equal(r1.rhs, r2.rhs)

    def test_prop_line(self):
        p = parse_polygraph("prop\ngen mu : 2 -> 1\n")
        assert p.signature.is_prop
        assert p.signature.has("tau")

    def test_trace_round_trip(self, mon_polygraph):
        p = mon_polygraph
        d = parse_diagram("(mu * id 2) ; (mu * id 1) ; mu", p.signature)
        _, t = normalize(d, p)
        text = print_trace(t, "demo")
        back = parse_trace(text, p)
        assert diagram_equal(back.source, t.source)
        assert len(back.steps) == len(t.steps)
        validate_trace(back)
        assert diagram_equal(back.target(), t.target())

    def test_bad_line(self):
        with pytest.raises(RewriteError, match="line 1"):
            parse_polygraph("nonsense here")

    def test_bad_rules_rejected(self, mon_polygraph):
        alpha, lam = mon_polygraph.rule("alpha"), mon_polygraph.rule("lambda")
        with pytest.raises(RewriteError, match="unknown rule family 'bogus'"):
            Rule("a", alpha.lhs, alpha.rhs, family="bogus")
        as_sig = Signature("As", (MU,))
        with pytest.raises(RewriteError,
                           match="rule lambda uses generator 'eta' outside "
                                 "signature 'As'"):
            Polygraph(as_sig, (lam,))

    @pytest.mark.parametrize("name", ["a b", "", "a;b", "x-y", "a\n", 1])
    def test_unreadable_names_rejected(self, mon_polygraph, name):
        # A rule or trace name is printed as one ``\w+`` token and read
        # back as one, so any other name could not round-trip.
        alpha = mon_polygraph.rule("alpha")
        with pytest.raises(RewriteError, match="not a rule name"):
            Rule(name, alpha.lhs, alpha.rhs)
        with pytest.raises(RewriteError, match="not a trace name"):
            print_trace(Trace(alpha.lhs, ()), name)

    @pytest.mark.parametrize("name", ["rule", "2x", "é"])
    def test_word_names_round_trip(self, mon_polygraph, name):
        alpha = mon_polygraph.rule("alpha")
        p = Polygraph(mon_polygraph.signature,
                      (Rule(name, alpha.lhs, alpha.rhs),))
        back = parse_polygraph(print_polygraph(p), name="Mon")
        assert [r.name for r in back.rules] == [name]
        step = Step(p.rules[0], "forward", identity_context(alpha.lhs))
        text = print_trace(Trace(alpha.lhs, (step,)), name)
        assert text.startswith(f"trace {name} on ")
        assert parse_trace(text, back).steps[0].rule.name == name

    def test_trace_shares_repeated_expressions(self, mon_polygraph):
        text = (
            "trace t on (mu * id 2) ; (mu * id 1) ; mu\n"
            "step alpha + top=(mu * id 2) left=0 right=0 bot=id 1\n"
            "step alpha - top=(mu * id 2) left=0 right=0 bot=id 1\n"
        )
        t = parse_trace(text, mon_polygraph)
        first, second = t.steps
        assert first.context.top is second.context.top
        assert first.context.bottom is second.context.bottom
        assert t.source == parse_diagram("(mu * id 2) ; (mu * id 1) ; mu",
                                         mon_polygraph.signature)
        validate_trace(t)

    def test_traces_share_parsed_lines(self, mon_polygraph, monkeypatch):
        # Fresh memos, so every expression below is parsed here.
        polyrew.rewrite._trace_expr.cache_clear()
        polyrew.rewrite._trace_step.cache_clear()
        parsed = []

        def counting(text, sig):
            parsed.append(text)
            return parse_diagram(text, sig)

        monkeypatch.setattr(polyrew.rewrite, "parse_diagram", counting)
        shared = "step alpha + top=(mu * id 2) left=0 right=0 bot=id 1"
        t1 = parse_trace(
            "trace t on (mu * id 2) ; (mu * id 1) ; mu\n"
            f"{shared}\n", mon_polygraph)
        t2 = parse_trace(
            "trace u on (mu * id 2) ; (mu * id 1) ; mu  # same source\n"
            f"  {shared}\n"
            "step alpha - top=(mu * id 2) left=0 right=0 bot=id 1\n",
            mon_polygraph)
        assert t2.source is t1.source
        assert t2.steps[0] is t1.steps[0]
        assert t2.steps[1] is not t1.steps[0]
        assert t2.steps[1].context.top is t1.steps[0].context.top
        assert t2.steps[1].context.bottom is t1.steps[0].context.bottom
        assert sorted(parsed) == [
            "(mu * id 2)", "(mu * id 2) ; (mu * id 1) ; mu", "id 1"]
        validate_trace(t1)
        validate_trace(t2)

    def test_memos_keyed_on_polygraph(self):
        br, mon = get_preset("br").polygraph, get_preset("mon").polygraph
        text = "trace t on tau ; mu"
        message = "unknown generator 'tau' at line 1, column 1"
        for order in ((br, mon), (mon, br)):
            polyrew.rewrite._trace_expr.cache_clear()
            for p in order + order:
                if p is br:
                    assert len(parse_trace(text, p).source) == 2
                else:
                    with pytest.raises(ParseError) as exc:
                        parse_trace(text, p)
                    assert str(exc.value) == message

    STEP = "step alpha + top=(mu * id 2) left=0 right=0 bot=id 1"

    @pytest.mark.parametrize("header, bad, message", [
        ("trace t on mu", "trace u on (mu * id 1) ; mu",
         "line {}: duplicate trace header"),
        ("", STEP, "line {}: step before trace header"),
        ("trace t on mu", "stp" + STEP[4:],
         "cannot parse trace line {}: " + repr("stp" + STEP[4:])),
    ])
    def test_errors_keep_their_line(self, mon_polygraph, header, bad, message):
        # A valid parse first, so the memos hold every expression of ``bad``
        # and its step.
        parse_trace(f"trace t on (mu * id 1) ; mu\n{self.STEP}\n", mon_polygraph)
        for lineno in (2, 4, 2):
            text = header + "\n" * (lineno - 1) + bad + "\n"
            with pytest.raises(RewriteError) as exc:
                parse_trace(text, mon_polygraph)
            assert str(exc.value) == message.format(lineno)

    def test_bad_expression_on_later_line(self, mon_polygraph):
        text = (
            "trace t on (mu * id 2) ; (mu * id 1) ; mu\n"
            "step alpha + top=(mu * id 2) left=0 right=0 bot=id 1\n"
            "\n"
            "step alpha - top=(mu * id 2) left=0 right=0 bot=id 1 ;\t; mu\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_trace(text, mon_polygraph)
        assert str(exc.value) == "unexpected token ';' at line 1, column 8"
