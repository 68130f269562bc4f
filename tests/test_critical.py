"""Tests for the S-construction, critical-branching enumeration, local
confluence, homotopy bases, the five-family classifier, and the pipeline.

The enumerator is heuristic-generation plus exact verification, so the
load-bearing tests here are the exhaustive-search cross-checks: brute-force
every small diagram, collect every minimal overlapping pair directly, and
compare against the enumerator's output.
"""

import hashlib
import itertools
import json
import random

import pytest

import polyrew.rewrite
from polyrew import critical
from polyrew.coherence import get_preset
from polyrew.diagram import (
    Diagram,
    DiagramError,
    GeneratorSym,
    Signature,
    Slice,
    TAU,
    _cuts,
    _ends,
    _reaches_end,
    canonical_form,
    canonical_form_with_ids,
    diagram_equal,
    exchange_closure_with_ids,
    hcomp,
    identity,
    parse_diagram,
    print_diagram,
    vcomp,
)
from polyrew.rewrite import (
    BudgetExceededError,
    Polygraph,
    RewriteError,
    Rule,
    _match_walk,
    _pattern_slots,
    _window_context,
    find_matches,
    normalize,
    parse_polygraph,
    print_trace,
    validate_trace,
)
from polyrew.critical import (
    Branching,
    CertificateFailedError,
    ConfluenceDiagram,
    ConfluenceError,
    CriticalError,
    FailureReport,
    FAMILY_TAGS,
    _stuck_splices,
    _tight,
    asphericity_pipeline,
    check_local_confluence,
    classify_branching,
    close_modulo_structure,
    critical_pairs_on,
    enumerate_critical_branchings,
    export_identity_generators,
    homotopy_basis,
    local_confluence,
    s_construction,
    structural_rules,
    tau_block_left,
    tau_block_right,
    tau_diagram,
)
from polyrew.termination import mon_interpretation

from conftest import cup_polygraph, make_as_polygraph, make_mon_polygraph
from exchange_oracle import (
    _commute, _fronts, _swap, exchange_closure, id_keyed_closure,
    occurrences_in, outer_whiskers, unfiltered_matches)
from test_diagram import all_diagrams as every_diagram


def _branching_key(b: Branching) -> tuple:
    """A branching up to the order of its two steps: source, and the rule
    and occurrence set of each step."""
    return (
        (b.source.input_width, b.source.slices),
        frozenset(
            {(b.step1.rule.name, b.occ1), (b.step2.rule.name, b.occ2)}
        ),
    )


# -- shared presets --------------------------------------------------------


@pytest.fixture(scope="module")
def mon():
    return make_mon_polygraph()


@pytest.fixture(scope="module")
def asp():
    return make_as_polygraph()


@pytest.fixture(scope="module")
def s_empty():
    return s_construction(Polygraph(Signature("Perm", ()), ()))


@pytest.fixture(scope="module")
def sym_prime(mon):
    """The commutative-monoid prop presentation: S(Mon) + beta + gamma."""
    smon = s_construction(mon)
    sig = smon.signature
    beta = Rule(
        "beta",
        parse_diagram("tau ; mu", sig),
        parse_diagram("mu", sig),
        family="algebraic",
    )
    gamma = Rule(
        "gamma",
        parse_diagram("(tau * id 1) ; (id 1 * mu) ; mu", sig),
        parse_diagram("(id 1 * mu) ; mu", sig),
        family="algebraic",
    )
    return Polygraph(sig, smon.rules + (beta, gamma))


@pytest.fixture(scope="module")
def sym_prime_branchings(sym_prime):
    return enumerate_critical_branchings(sym_prime)


def sources(branchings):
    return {print_diagram(canonical_form(b.source)) for b in branchings}


# -- the S-construction ----------------------------------------------------


class TestSConstruction:
    def test_empty_signature(self, s_empty):
        assert [r.name for r in s_empty.rules] == ["sym", "yb"]
        assert s_empty.signature.is_prop
        assert s_empty.signature.has("tau")

    def test_mon_rule_count_and_order(self, mon):
        smon = s_construction(mon)
        assert [r.name for r in smon.rules] == [
            "sym", "yb", "nat_mu_l", "nat_mu_r", "nat_eta_l", "nat_eta_r",
            "alpha", "lambda", "rho",
        ]
        assert all(r.family == "algebraic" for r in smon.rules[6:])
        assert len(structural_rules(smon)) == 6

    def test_tau_blocks(self):
        # tau_{1,1} is a single crossing; the inductive blocks stack one
        # crossing per strand passed over.
        assert diagram_equal(tau_block_left(1), tau_diagram())
        assert diagram_equal(tau_block_right(1), tau_diagram())
        assert len(tau_block_left(3).slices) == 3

    def test_tau_blocks_unfold_the_induction(self):
        def left(n):  # tau_{n+1,1} = (id_n * tau) ; (tau_{n,1} * id_1)
            if n == 0:
                return identity(1)
            return vcomp(hcomp(identity(n - 1), tau_diagram()),
                         hcomp(left(n - 1), identity(1)))

        def right(n):  # tau_{1,n+1} = (tau * id_n) ; (id_1 * tau_{1,n})
            if n == 0:
                return identity(1)
            return vcomp(hcomp(tau_diagram(), identity(n - 1)),
                         hcomp(identity(1), right(n - 1)))

        for n in range(9):
            assert tau_block_left(n) == left(n)
            assert tau_block_right(n) == right(n)
        assert tau_block_left(3).input_width == 4

    def test_mu_naturality_shapes(self, mon):
        smon = s_construction(mon)
        sig = smon.signature
        nat_l = smon.rule("nat_mu_l")
        assert diagram_equal(
            nat_l.lhs, parse_diagram("(mu * id 1) ; tau", sig)
        )
        assert diagram_equal(
            nat_l.rhs,
            parse_diagram("(id 1 * tau) ; (tau * id 1) ; (id 1 * mu)", sig),
        )
        nat_r = smon.rule("nat_mu_r")
        assert diagram_equal(
            nat_r.lhs, parse_diagram("(id 1 * mu) ; tau", sig)
        )
        assert diagram_equal(
            nat_r.rhs,
            parse_diagram("(tau * id 1) ; (id 1 * tau) ; (mu * id 1)", sig),
        )

    def test_eta_naturality_shapes(self, mon):
        smon = s_construction(mon)
        sig = smon.signature
        nat_l = smon.rule("nat_eta_l")
        assert diagram_equal(
            nat_l.lhs, parse_diagram("(eta * id 1) ; tau", sig)
        )
        assert diagram_equal(nat_l.rhs, parse_diagram("id 1 * eta", sig))

    def test_rejects_prop(self, s_empty):
        with pytest.raises(CriticalError, match="already a prop"):
            s_construction(s_empty)

    def test_rejects_higher_coarity(self):
        from polyrew.diagram import GeneratorSym

        sig = Signature("Bad", (GeneratorSym("delta", 1, 2),))
        with pytest.raises(CriticalError, match="coarity"):
            s_construction(Polygraph(sig, ()))


# -- enumeration: named presets -------------------------------------------


class TestEnumeration:
    def test_as_unique_branching(self, asp):
        bs = enumerate_critical_branchings(asp)
        assert len(bs) == 1
        assert sources(bs) == {"(mu * id 2) ; (mu * id 1) ; mu"}
        assert bs[0].rules == ("alpha", "alpha")

    def test_mon_five_branchings(self, mon):
        bs = enumerate_critical_branchings(mon)
        assert len(bs) == 5
        assert sources(bs) == {
            "(mu * id 2) ; (mu * id 1) ; mu",
            "(id 1 * eta * id 1) ; (mu * id 1) ; mu",
            "(eta * id 2) ; (mu * id 1) ; mu",
            "mu ; (id 1 * eta) ; mu",
            "eta ; (eta * id 1) ; mu",
        }

    def test_s_empty_five_branchings(self, s_empty):
        bs = enumerate_critical_branchings(s_empty)
        assert len(bs) == 5
        assert sources(bs) == {
            "tau ; tau ; tau",
            "(tau * id 1) ; (tau * id 1) ; (id 1 * tau) ; (tau * id 1)",
            "(tau * id 1) ; (id 1 * tau) ; (tau * id 1) ; (tau * id 1)",
            "(tau * id 1) ; (id 1 * tau) ; (tau * id 1) ; (id 1 * tau) ; "
            "(tau * id 1)",
            # The wide Yang-Baxter self-overlap: the two redexes share one
            # crossing and a fourth crossing is stuck between them.
            "(tau * id 2) ; (id 1 * tau * id 1) ; (tau * id 2) ; "
            "(id 2 * tau) ; (id 1 * tau * id 1) ; (tau * id 2)",
        }

    def test_entangled_source_has_stuck_slice(self, s_empty):
        bs = enumerate_critical_branchings(s_empty)
        wide = [b for b in bs if len(b.source.slices) == 6]
        assert len(wide) == 1
        b = wide[0]
        assert len(b.occ1 | b.occ2) == 5  # one slice in neither redex
        assert b.occ1 & b.occ2

    def test_rule_order_symmetry(self, mon):
        reversed_mon = Polygraph(mon.signature, tuple(reversed(mon.rules)))
        keys = {_branching_key(b) for b in enumerate_critical_branchings(mon)}
        keys_rev = {
            _branching_key(b)
            for b in enumerate_critical_branchings(reversed_mon)
        }
        assert keys == keys_rev

    def test_branchings_are_verified(self, mon):
        # Every emitted branching re-verifies on its own source.
        for b in enumerate_critical_branchings(mon):
            again = critical_pairs_on(mon, b.source)
            assert _branching_key(b) in {_branching_key(x) for x in again}

    def test_no_rules_no_branchings(self, mon):
        assert enumerate_critical_branchings(
            Polygraph(mon.signature, ())
        ) == []


#: ``len`` and SHA-256 of ``repr(enumerate_critical_branchings(p))`` per
#: preset, pinned before entangled sources came from stuck splices: any
#: change to a branching, its steps, its occurrences or their order shows.
GOLDEN_ENUMERATION = {
    "as": (1, "5ae4e408fea67db41740fd993299dbc2c4155173212aca1247a800b3be8e4943"),
    "mon": (5, "d1fde7c689d96180b8597e15a4de0b86b01c6db5cc8d9b74c0f0baaef54d5652"),
    "perm": (5, "e1b53fa71839f494068c2d943a20981c7c547cc79fdea574230494069a16980b"),
    "sym": (41, "ca87794b7f92890cec31b689e9ef11a0985153150612af1664d0dc7e97f40238"),
    "sym_prime": (
        54, "3f8586d889072921725ae902b802321d205f26956bad2de280afb4ecf598c3e5"),
    "br": (41, "ca87794b7f92890cec31b689e9ef11a0985153150612af1664d0dc7e97f40238"),
}


@pytest.mark.parametrize("preset", list(GOLDEN_ENUMERATION))
def test_golden_enumeration(preset):
    bs = enumerate_critical_branchings(get_preset(preset).polygraph)
    digest = hashlib.sha256(repr(bs).encode()).hexdigest()
    assert (len(bs), digest) == GOLDEN_ENUMERATION[preset]


#: Counts of ``closures`` and ``unclosed``, and SHA-256 of
#: ``repr((closures, unclosed))`` from the pipeline, per preset: the order of
#: the moves modulo structure decides which join the search returns.  The
#: digests are of the ``repr`` without a ``congruence`` field on ``Trace``.
GOLDEN_MODULO_STRUCTURE = {
    "sym": (3, 2, "06744d076583f3ded9a6cb281dd1fa4fe956c42663f0cebb05a74a9c88bcaa79"),
    "sym_prime": (
        5, 0, "8c46c5b562d67205fd30b028174f4700618fa1382404f6df626ce734f6781a75"),
}


@pytest.mark.parametrize("preset", list(GOLDEN_MODULO_STRUCTURE))
def test_golden_modulo_structure_joins(preset):
    report = asphericity_pipeline(get_preset(preset).polygraph)
    found = (report.closures, report.unclosed)
    digest = hashlib.sha256(repr(found).encode()).hexdigest()
    assert (len(found[0]), len(found[1]), digest) == (
        GOLDEN_MODULO_STRUCTURE[preset])


# -- enumeration: exhaustive cross-check ----------------------------------


def all_diagrams(sig, max_slices, max_width):
    """One representative per exchange class, bounded slices and width."""
    gens = list(sig.all_generators())
    seen, out = set(), []

    def rec(d):
        key = (d.input_width, canonical_form(d).slices)
        if key in seen:
            return
        seen.add(key)
        out.append(d)
        if len(d.slices) >= max_slices:
            return
        w = d.output_width
        for g in gens:
            if g.arity > w or w - g.arity + g.coarity > max_width:
                continue
            for off in range(w - g.arity + 1):
                rec(Diagram(d.input_width, d.slices + (Slice(off, g),)))

    for w0 in range(max_width + 1):
        rec(Diagram(w0, ()))
    return out


def brute_force_keys(p, max_slices, max_width):
    keys = set()
    for d in all_diagrams(p.signature, max_slices, max_width):
        for b in critical_pairs_on(p, d):
            keys.add(_branching_key(b))
    return keys


class TestExhaustiveOracle:
    def test_mon_matches_brute_force(self, mon):
        # Both Mon rule sources have <= 2 slices and width <= 3, so every
        # critical source fits in <= 4 slices (incl. one stuck slice).
        expected = brute_force_keys(mon, 4, 4)
        got = {_branching_key(b) for b in enumerate_critical_branchings(mon)}
        assert got == expected

    def test_s_empty_matches_brute_force(self, s_empty):
        expected = brute_force_keys(s_empty, 6, 4)
        got = {
            _branching_key(b)
            for b in enumerate_critical_branchings(s_empty)
        }
        assert got == expected

    def test_as_matches_brute_force(self, asp):
        expected = brute_force_keys(asp, 4, 4)
        got = {_branching_key(b) for b in enumerate_critical_branchings(asp)}
        assert got == expected


def two_stuck_search(p):
    """The branchings two stuck slices beyond an enumerated source that the
    enumerator misses: its phase-2 generator applied twice."""
    enumerated = enumerate_critical_branchings(p)
    known = {_branching_key(b) for b in enumerated}
    gens = p.signature.all_generators()
    seen_once, seen_twice, missed = set(), set(), {}
    for b in enumerated:
        for once in _stuck_splices(b.source, gens):
            once = canonical_form(once)
            if (once.input_width, once.slices) in seen_once:
                continue
            seen_once.add((once.input_width, once.slices))
            for twice in _stuck_splices(once, gens):
                u = canonical_form(twice)
                if (u.input_width, u.slices) in seen_twice:
                    continue
                seen_twice.add((u.input_width, u.slices))
                for x in critical_pairs_on(p, u):
                    if _branching_key(x) not in known:
                        missed.setdefault(_branching_key(x), x)
    return list(missed.values())


class TestTwoStuckSlices:
    def test_perm_misses_entangled_yang_baxter_pairs(self, s_empty):
        # The enumerator splices one stuck slice into each overlap; these
        # Yang-Baxter self-overlaps need two or three.  Each is still
        # locally confluent.
        missed = two_stuck_search(s_empty)
        assert sorted(
            (b.rules, print_diagram(b.source), tuple(sorted(b.occ1)),
             tuple(sorted(b.occ2)))
            for b in missed
        ) == [
            (("yb", "yb"),
             "(tau * id 2) ; (id 1 * tau * id 1) ; (tau * id 2) ; "
             "(id 2 * tau) ; (id 2 * tau) ; (id 1 * tau * id 1) ; "
             "(tau * id 2)",
             (0, 1, 2), (2, 5, 6)),
            (("yb", "yb"),
             "(tau * id 2) ; (id 1 * tau * id 1) ; (tau * id 2) ; "
             "(id 2 * tau) ; (id 2 * tau) ; (id 2 * tau) ; "
             "(id 1 * tau * id 1) ; (tau * id 2)",
             (0, 1, 2), (2, 6, 7)),
            (("yb", "yb"),
             "(tau * id 3) ; (id 1 * tau * id 2) ; (tau * id 3) ; "
             "(id 2 * tau * id 1) ; (id 3 * tau) ; (id 2 * tau * id 1) ; "
             "(id 1 * tau * id 2) ; (tau * id 3)",
             (0, 1, 2), (2, 6, 7)),
        ]
        for b in missed:
            result = check_local_confluence(s_empty, b)
            assert isinstance(result, ConfluenceDiagram)


# -- phase 1: closure-based superposition reference ------------------------


def superpose(rep1, rep2):
    """Phase-1 overlaps as first enumerated, over two exchange
    representatives: each block ``rep2[j:j+m]`` identified with each window
    ``rep1[i:i+m]`` under a uniform horizontal shift, giving the fused slice
    sequence (prefix of rep2, all of rep1, suffix of rep2)."""
    n1, n2 = len(rep1), len(rep2)
    out = []
    for m in range(1, min(n1, n2) + 1):
        for i in range(n1 - m + 1):
            for j in range(n2 - m + 1):
                if any(rep1[i + t].gen != rep2[j + t].gen for t in range(m)):
                    continue
                d0 = rep2[j].offset - rep1[i].offset
                if any(rep2[j + t].offset - rep1[i + t].offset != d0
                       for t in range(m)):
                    continue
                l1, l2 = (d0, 0) if d0 >= 0 else (0, -d0)
                out.append(
                    tuple(s.shifted(l2) for s in rep2[:j])
                    + tuple(s.shifted(l1) for s in rep1)
                    + tuple(s.shifted(l2) for s in rep2[j + m:])
                )
    return out


def closure_phase1_candidates(p):
    """The canonical phase-1 candidates of :func:`superpose` over every
    pair of members of the rule sources' exchange closures, both roles."""
    closures = {r.name: exchange_closure(r.lhs) for r in p.rules}
    out = set()
    for r1, r2 in itertools.combinations_with_replacement(p.rules, 2):
        for rep1 in closures[r1.name]:
            for rep2 in closures[r2.name]:
                for fused in superpose(rep1, rep2) + superpose(rep2, rep1):
                    out.add(canonical_form(_tight(fused)))
    return out


def phase1_candidates(p, monkeypatch):
    """The canonical candidates the enumerator passes to
    ``critical_pairs_on``; with none accepted, phase 2 has nothing to walk."""
    got = set()

    def record(_, u):
        got.add(u)
        return []

    with monkeypatch.context() as m:
        m.setattr(critical, "critical_pairs_on", record)
        enumerate_critical_branchings(p)
    return got


def random_rule_sources(rng, gens, rules, max_slices, max_width):
    """``rules`` random nonempty diagrams over ``gens``, each of at most
    ``max_slices`` slices and ``max_width`` wires at every level."""
    out = []
    while len(out) < rules:
        w = w0 = rng.randint(0, max_width)
        slices = []
        for _ in range(rng.randint(1, max_slices)):
            fit = [g for g in gens
                   if g.arity <= w and w - g.arity + g.coarity <= max_width]
            if not fit:
                break
            g = rng.choice(fit)
            slices.append(Slice(rng.randint(0, w - g.arity), g))
            w += g.coarity - g.arity
        if slices:
            out.append(Diagram(w0, tuple(slices)))
    return out


MU = GeneratorSym("mu", 2, 1)
ETA = GeneratorSym("eta", 0, 1)
DELTA = GeneratorSym("delta", 1, 2)
EPS = GeneratorSym("eps", 1, 0)


def random_polygraphs(seed, count):
    """Seeded polygraphs of 1-3 rules of 1-3 slices on at most 4 wires,
    with no coarity-0 generator; each rule rewrites its source to itself,
    which enumeration never reads."""
    sigs = [
        Signature("MuEta", (MU, ETA)),
        Signature("MuDelta", (MU, DELTA)),
        Signature("Ternary", (MU, GeneratorSym("t", 3, 1))),
        Signature("PropMuEta", (MU, ETA), is_prop=True),
        Signature("PropDeltaMu", (DELTA, MU), is_prop=True),
    ]
    rng = random.Random(seed)
    for _ in range(count):
        sig = rng.choice(sigs)
        sources = random_rule_sources(
            rng, sig.all_generators(), rng.randint(1, 3), 3, 4)
        yield Polygraph(sig, tuple(
            Rule(f"r{k}", lhs, lhs) for k, lhs in enumerate(sources)))


def coarity0_pair():
    """Two rule sources whose closures hold a placement of ``eta`` beside
    ``eps`` that the exchange cuts never read (the one-way ``_swap``)."""
    sig = Signature("Coarity0", (EPS, ETA, MU))
    q = lambda text: parse_diagram(text, sig)
    return Polygraph(sig, (
        Rule("r0", q("(eta * id 3) ; (id 2 * eps * id 1)"), q("id 3")),
        Rule("r1", q("(id 1 * eta * id 1) ; (eps * id 2) ; mu"), q("mu")),
    ))


class TestPhase1Blocks:
    """Phase 1 glues rule sources along blocks read off their exchange
    cuts; gluing windows of closure members is its oracle."""

    @pytest.mark.parametrize("preset", list(GOLDEN_ENUMERATION))
    def test_presets_match_closure(self, monkeypatch, preset):
        p = get_preset(preset).polygraph
        assert phase1_candidates(p, monkeypatch) == (
            closure_phase1_candidates(p))

    def test_random_polygraphs_match_closure(self, monkeypatch):
        for k, p in enumerate(random_polygraphs(2026, 150)):
            assert phase1_candidates(p, monkeypatch) == (
                closure_phase1_candidates(p)), k

    def test_coarity0_known_gap(self, monkeypatch):
        # The closure also reaches [eta@0, eps@1, mu@0] from r1's
        # [eta@1, eps@0, mu@0]; the cuts keep one placement per set of
        # slices above them, so 7 of the closure's 32 candidates and one
        # r0/r1 branching are missed.
        p = coarity0_pair()
        got = phase1_candidates(p, monkeypatch)
        expected = closure_phase1_candidates(p)
        assert got < expected
        assert (len(got), len(expected)) == (25, 32)
        found = enumerate_critical_branchings(p)
        assert len(found) == 4
        missed = "(eps * id 1) ; (eta * id 1) ; (eta * id 2) ; (id 1 * mu)"
        assert missed not in {print_diagram(b.source) for b in found}
        assert [b.rules for b in critical_pairs_on(
            p, parse_diagram(missed, p.signature))] == [("r0", "r1")]


def test_coarity0_normalize_known_gap():
    # The same one-way ``_swap``: the closure of the canonical subject
    # holds a member whose canonical form differs, and ``normalize`` takes
    # the ``unit`` match's context from it, so its step does not plug back
    # into the subject.  Once canonical forms are exact with coarity 0
    # (ROADMAP item 2), ``validate_trace`` passes here.
    p = parse_polygraph(
        "gen mu : 2 -> 1\ngen eta : 0 -> 1\ngen delta : 1 -> 2\n"
        "gen eps : 1 -> 0\nrule unit : eta ; eps => id 0\n"
        "rule counit : delta ; (eps * id 1) => id 1\n"
        "rule lam : (eta * id 1) ; mu => id 1\n")
    d = parse_diagram("mu ; (id 1 * eta) ; (id 1 * eps) ; eps", p.signature)
    nf, trace = normalize(d, p)
    assert print_diagram(nf) == "mu ; eps"
    assert print_trace(trace, "n").splitlines()[1:] == [
        "step unit + top=id 2 left=0 right=2 bot=mu ; eps"]
    source = trace.steps[0].source()
    assert print_diagram(source) == "(eta * id 2) ; (eps * id 2) ; mu ; eps"
    assert not diagram_equal(source, d)
    with pytest.raises(RewriteError, match=r"^invalid trace: step 0 "
                       r"\(unit forward\) expects '\(eta \* id 2\) ; "):
        validate_trace(trace)


# -- minimality: closure-based reference ----------------------------------


def closure_is_minimal(u, union):
    """Minimality decided over every exchange representative of ``u``.

    ``critical_pairs_on`` decides the whiskers on one representative and the
    peelable end slices once per source; this reference scans the whole
    closure for every pair, so it checks both shortcuts.
    """
    for slices, ids in exchange_closure_with_ids(u):
        if ids and (ids[0] not in union or ids[-1] not in union):
            return False
        if u.input_width >= 1 and slices:
            if all(s.offset >= 1 for s in slices):
                return False
            w = u.input_width
            right_whisker = True
            for s in slices:
                if s.offset + s.gen.arity > w - 1:
                    right_whisker = False
                    break
                w += s.gen.coarity - s.gen.arity
            if right_whisker:
                return False
    return True


def reference_keys(p, d):
    """The branching keys of every minimal overlapping pair of matches on
    ``d``, with minimality from :func:`closure_is_minimal`."""
    u = canonical_form(d)
    matches = [(r, m) for r in p.rules for m in find_matches(u, r.lhs)]
    keys = set()
    for (r1, m1), (r2, m2) in itertools.combinations(matches, 2):
        union = m1.occurrences | m2.occurrences
        if m1.occurrences & m2.occurrences and closure_is_minimal(u, union):
            keys.add((
                (u.input_width, u.slices),
                frozenset({(r1.name, m1.occurrences), (r2.name, m2.occurrences)}),
            ))
    return keys


def counit_polygraph():
    """Coassociative comultiplication with a counit ``eps : 1 -> 0`` and a
    unit ``eta`` that it cancels, leaving the empty diagram."""
    sig = Signature("Counit", (
        GeneratorSym("delta", 1, 2),
        GeneratorSym("eps", 1, 0),
        GeneratorSym("eta", 0, 1),
    ))

    def rule(name, lhs, rhs):
        return Rule(name, parse_diagram(lhs, sig), parse_diagram(rhs, sig))

    return Polygraph(sig, (
        rule("coassoc", "delta ; (delta * id 1)", "delta ; (id 1 * delta)"),
        rule("counit_l", "delta ; (eps * id 1)", "id 1"),
        rule("counit_r", "delta ; (id 1 * eps)", "id 1"),
        rule("cancel", "eta ; eps", "id 0"),
    ))


class TestMinimality:
    @pytest.mark.parametrize("preset, max_slices, max_width", [
        ("mon", 4, 4),
        ("s_empty", 6, 4),
        ("sym_prime", 4, 4),
        ("counit", 4, 3),
    ])
    def test_matches_closure_reference(
        self, request, preset, max_slices, max_width
    ):
        p = (counit_polygraph() if preset == "counit"
             else request.getfixturevalue(preset))
        for d in all_diagrams(p.signature, max_slices, max_width):
            whiskers = {
                outer_whiskers(Diagram(d.input_width, member))
                for member in exchange_closure(d)
            }
            assert len(whiskers) == 1, print_diagram(d)
            got = {_branching_key(b) for b in critical_pairs_on(p, d)}
            assert got == reference_keys(p, d), print_diagram(d)
            # ``critical_pairs_on`` decides whiskers by the tight form.
            if d.slices:
                assert (_tight(d.slices) != d) == any(outer_whiskers(d)), (
                    print_diagram(d))
            else:
                assert critical_pairs_on(p, d) == [], print_diagram(d)


class TestCutsAndEnds:
    """``_cuts`` and ``_ends`` walk an exchange class without building it;
    the brute-force closure is their oracle."""

    @pytest.mark.parametrize("preset, max_slices, max_width", [
        ("mon", 4, 4),
        ("s_empty", 6, 4),
        ("sym_prime", 4, 4),
        ("counit", 4, 3),
    ])
    def test_match_closure(self, request, preset, max_slices, max_width):
        p = (counit_polygraph() if preset == "counit"
             else request.getfixturevalue(preset))
        for d in all_diagrams(p.signature, max_slices, max_width):
            closure = exchange_closure_with_ids(d)
            prefixes = {
                frozenset(ids[:k])
                for _, ids in closure for k in range(len(ids) + 1)
            }
            members = dict(closure)
            # Per cut: whether top then rest is the closure's own member.
            as_member = {}
            for top, rest in _cuts(d):
                key = frozenset(i for _, i in top)
                assert key not in as_member, print_diagram(d)
                slices = tuple(s for s, _ in top + rest)
                assert slices in members, print_diagram(d)
                as_member[key] = (
                    members[slices] == tuple(i for _, i in top + rest)
                )
            assert prefixes <= as_member.keys(), print_diagram(d)
            # The closure keeps one id order per slice sequence, so over
            # ``eta ; eps ; eta ; eps`` it drops the loops' swapped order;
            # a cut it lacks must come from such a dropped order.
            assert not any(as_member[k] for k in as_member.keys() - prefixes)
            ends = {i for _, ids in closure for i in ids[:1] + ids[-1:]}
            assert _ends(d) == ends, print_diagram(d)


def fronts_ends(d):
    """``_ends`` as first written: the fronts ``_fronts`` yields, and the
    slices that walk down to the bottom."""
    ends = {i for _, i, _ in _fronts([(s, i) for i, s in enumerate(d.slices)])}
    for j, cur in enumerate(d.slices):
        for b in d.slices[j + 1:]:
            if not _commute(cur, b):
                break
            _, cur = _swap(cur, b)
        else:
            ends.add(j)
    return ends


def four_widening_splices(u, gens):
    """Stuck splices as first enumerated: ``u`` widened by at most one outer
    wire on each side, the cuts of each widening walked on their own, and a
    splice kept when ``fronts_ends`` puts the new slice at neither end and
    no outer wire passes untouched.  On every splice that builds, the
    one-slice walk ``_reaches_end`` must agree with ``fronts_ends``."""
    for extra_l, extra_r in ((0, 0), (0, 1), (1, 0), (1, 1)):
        base = hcomp(identity(extra_l), u, identity(extra_r))
        for top, rest in _cuts(base):
            above = tuple(s for s, _ in top)
            below = tuple(s for s, _ in rest)
            w = Diagram(base.input_width, above).output_width
            for g in gens:
                for off in range(w - g.arity + 1):
                    s = Slice(off, g)
                    try:
                        d = Diagram(base.input_width, above + (s,) + below)
                    except DiagramError:
                        continue
                    at_end = len(above) in fronts_ends(d)
                    assert _reaches_end(above, s, below) == at_end, (
                        print_diagram(d), len(above))
                    if not at_end and not any(outer_whiskers(d)):
                        yield d


@pytest.mark.parametrize("preset", ["as", "mon", "perm", "sym", "sym_prime"])
def test_stuck_splices_match_four_widenings(preset):
    # One padded walk, with untouched pads stripped and whiskered
    # candidates left to ``critical_pairs_on``, gives the same candidates
    # as the four widenings, up to exchange.
    p = get_preset(preset).polygraph
    gens = p.signature.all_generators()

    def classes(ds):
        return {(d.input_width, canonical_form(d).slices) for d in ds}

    for u in dict.fromkeys(b.source for b in enumerate_critical_branchings(p)):
        new = [d for d in _stuck_splices(u, gens) if not any(outer_whiskers(d))]
        assert classes(new) == classes(four_widening_splices(u, gens)), (
            print_diagram(u))


def padded_splices(u, gens):
    """Stuck splices as the padded walk enumerated them: ``u`` padded by one
    wire on each side, the cuts of the padded diagram walked, and each
    splice built, then stripped of the pads no slice touches."""
    base = hcomp(identity(1), u, identity(1))
    for top, rest in _cuts(base):
        above = tuple(s for s, _ in top)
        below = tuple(s for s, _ in rest)
        w = Diagram(base.input_width, above).output_width
        for g in gens:
            for off in range(w - g.arity + 1):
                s = Slice(off, g)
                if _reaches_end(above, s, below):
                    continue
                try:
                    d = Diagram(base.input_width, above + (s,) + below)
                except DiagramError:
                    continue
                left, right = outer_whiskers(d)
                yield Diagram(d.input_width - left - right,
                              tuple(t.shifted(-left) for t in d.slices))


def spliced_sources(p, monkeypatch):
    """The ``(source, generators)`` arguments phase 2 gives
    ``_stuck_splices``: the phase-1 sources."""
    calls = []
    splices = critical._stuck_splices

    def record(u, gens):
        calls.append((u, gens))
        return splices(u, gens)
    with monkeypatch.context() as m:
        m.setattr(critical, "_stuck_splices", record)
        enumerate_critical_branchings(p)
    return calls


def test_stuck_splices_match_the_padded_oracle(monkeypatch):
    # Splicing in the source's own wires yields the padded walk's splices,
    # pads stripped, in its order: the same diagrams, not only the same
    # classes.  counit, cup and coarity0_pair add arity-0 and coarity-0
    # generators, which sit at the edges differently.
    ps = [get_preset(name).polygraph for name in GOLDEN_ENUMERATION]
    ps += [counit_polygraph(), cup_polygraph(), coarity0_pair()]
    for k, p in enumerate(ps + list(random_polygraphs(2026, 150))):
        for u, gens in spliced_sources(p, monkeypatch):
            assert [(d.input_width, d.slices)
                    for d in _stuck_splices(u, gens)] == [
                (d.input_width, d.slices) for d in padded_splices(u, gens)
            ], (k, print_diagram(u))


# -- the wire walk that settles candidates ----------------------------------


def walk_pairs(d, patterns):
    """The ``(pattern, occurrence set)`` pairs ``_match_walk`` finds from
    every slice of ``d``, renumbered into ``d``'s canonical form."""
    walk = _match_walk(d, _pattern_slots(*patterns))
    canon = {x: k for k, x in enumerate(canonical_form_with_ids(d)[1])}
    return {(n, frozenset(canon[x] for x in occ))
            for anchor in range(len(d)) for n, occ in walk(anchor)}


def walk_contexts(d, patterns):
    """``(pattern, occurrences, context)`` of each match the walk finds on
    ``d``'s canonical form, framed as ``critical_pairs_on`` frames it: by
    the window the walk from the match's least slice finds."""
    u = canonical_form(d)
    pats = [canonical_form(pattern) for pattern in patterns]
    walk = _match_walk(u, _pattern_slots(*pats))
    keys = {key for anchor in range(len(u)) for key in walk(anchor)}
    return sorted(((n, occ, _window_context(u, walk(min(occ))[n, occ], pats[n]))
                   for n, occ in keys), key=lambda m: (m[0], sorted(m[1])))


def oracle_pairs(d, patterns):
    """The pairs the closure oracle reads off every order of ``d``'s
    exchange class, in ``d``'s canonical numbering."""
    u = canonical_form(d)
    return occurrences_in(id_keyed_closure(u), u, patterns)


def undecided_enumeration(p, monkeypatch):
    """The enumeration with no wire walk: every candidate's pairs are read
    off the matcher's matches, and every context is the matcher's."""
    with monkeypatch.context() as m:
        m.setattr(critical, "_match_walk", lambda *args: None)
        return enumerate_critical_branchings(p)


def recording_splices(raw):
    """``_stuck_splices``, appending each splice it yields to ``raw``."""
    splices = critical._stuck_splices

    def record(u, gens):
        for d in splices(u, gens):
            raw.append(d)
            yield d
    return record


def enumeration_candidates(p, monkeypatch):
    """The raw stuck splices and the canonical candidates the enumeration
    hands ``critical_pairs_on`` when the walk decides nothing."""
    raw, canon = [], []
    pairs_on = critical.critical_pairs_on

    def record(p, u):
        canon.append(u)
        return pairs_on(p, u)

    with monkeypatch.context() as m:
        m.setattr(critical, "_stuck_splices", recording_splices(raw))
        m.setattr(critical, "critical_pairs_on", record)
        undecided_enumeration(p, monkeypatch)
    return raw + canon


class TestMatchWalk:
    """The wire walk finds the closure oracle's pairs wherever it applies."""

    @pytest.mark.parametrize("preset, max_slices, count", [
        ("mon", 5, 1360), ("sym_prime", 4, 2988), ("br", 4, 2988)])
    def test_small_diagrams_match_the_matcher(self, preset, max_slices, count):
        p = get_preset(preset).polygraph
        patterns = [r.lhs for r in p.rules]
        ds = [d for d in all_diagrams(p.signature, max_slices, 4)
              if all(s.gen.coarity for s in d.slices)]
        assert len(ds) == count
        for d in ds:
            assert walk_pairs(d, patterns) == oracle_pairs(d, patterns), (
                print_diagram(d))
            # The window framed as ``critical_pairs_on`` frames it gives the
            # closure scan's context, on one component or several.
            assert walk_contexts(d, patterns) == unfiltered_matches(
                d, *patterns), print_diagram(d)

    @pytest.mark.parametrize("preset", list(GOLDEN_ENUMERATION))
    def test_enumeration_candidates_match_the_matcher(
            self, monkeypatch, preset):
        p = get_preset(preset).polygraph
        patterns = [r.lhs for r in p.rules]
        for d in enumeration_candidates(p, monkeypatch):
            assert walk_pairs(d, patterns) == oracle_pairs(d, patterns), (
                print_diagram(d))

    def test_generic_generators_match_the_oracle(self):
        # Every closed pattern of up to 3 slices over a 2 -> 2, a 1 -> 2
        # and a 2 -> 1 generator, at once, on every subject of up to 4
        # slices: patterns with undirected cycles through 2 -> 2 slices,
        # and subjects a fold or a leak of the walk's image would need.
        sig = Signature("Generic", (GeneratorSym("s", 2, 2),
                                    GeneratorSym("delta", 1, 2),
                                    GeneratorSym("mu", 2, 1)))
        patterns = [d for d in all_diagrams(sig, 3, 4)
                    if d.slices and _pattern_slots(d) is not None]
        subjects = all_diagrams(sig, 4, 3)
        assert (len(patterns), len(subjects)) == (204, 606)
        for d in subjects:
            assert walk_pairs(d, patterns) == oracle_pairs(d, patterns), (
                print_diagram(d))

    def test_undecided_with_coarity0_or_open_patterns(self):
        p = counit_polygraph()
        d = parse_diagram("delta ; (eps * id 1)", p.signature)
        assert _match_walk(d, _pattern_slots(*(r.lhs for r in p.rules))) is None
        mon = get_preset("mon").polygraph
        assert _pattern_slots(parse_diagram("mu * mu", mon.signature)) is None
        assert _pattern_slots(parse_diagram("mu * id 1", mon.signature)) is None


S22 = GeneratorSym("s", 2, 2)
SF = Signature("SF", (S22, GeneratorSym("f", 1, 1)))


@pytest.mark.parametrize("subject, steps, outputs", [
    # Pattern slice 1 hangs below output 0 of slice 0, and slice 2 above
    # input 1 of slice 1; in ``s ; s`` that wire comes from slice 0, so
    # pattern slices 0 and 2 land on one slice.
    ("s ; s", [(0, True, 0, 1, 0, S22), (1, False, 1, 2, 1, S22)], []),
    # Output 0 of slice 0 is an output wire of the pattern, and feeds
    # slice 1.
    ("s ; s", [(0, True, 1, 1, 1, S22)], [(0, 0)]),
    # Output 0 of slice 0 feeds ``f``, outside the image, which feeds
    # slice 1.
    ("s ; (f * id 1) ; s", [(0, True, 1, 1, 1, S22)], [(0, 0)]),
], ids=["fold", "output_returns", "path_returns"])
def test_walk_rejects_hand_built_images(subject, steps, outputs):
    # No closed pattern's own layout leads the walk to these rejections,
    # so each is fed a hand-built slot, ``(pattern, slice, steps, checks,
    # outputs)``, whose first step holds and whose image only that test
    # rejects.  The single slice ``s`` beside it shows the walk running.
    d = parse_diagram(subject, SF)
    single = _pattern_slots(parse_diagram("s", SF))[S22]
    slots = {S22: single + [(1, 0, steps, [], outputs)]}
    assert _match_walk(d, slots)(0) == {(0, frozenset({0})): (0,)}


def test_walk_decision_keeps_enumeration(monkeypatch):
    # Without the walk, every candidate goes to the matcher, as before the
    # walk: the branchings, their steps, contexts and order must agree.
    for k, p in enumerate([counit_polygraph(), cup_polygraph(),
                           coarity0_pair(), *random_polygraphs(2026, 150)]):
        assert repr(enumerate_critical_branchings(p)) == repr(
            undecided_enumeration(p, monkeypatch)), k


@pytest.mark.parametrize("preset", list(GOLDEN_ENUMERATION))
def test_enumeration_never_runs_the_matcher(monkeypatch, preset):
    # Every preset rule source is closed and no preset generator has
    # coarity 0, so the walk reads every candidate's pairs and windows,
    # splices included: no match list and no exchange closure is built.
    p = get_preset(preset).polygraph
    raw, calls = [], []

    def counting(name, f):
        def count(*args):
            calls.append(name)
            return f(*args)
        return count

    monkeypatch.setattr(critical, "_stuck_splices", recording_splices(raw))
    monkeypatch.setattr(critical, "find_matches",
                        counting("find_matches", critical.find_matches))
    monkeypatch.setattr(polyrew.rewrite, "exchange_closure_with_ids", counting(
        "closure", polyrew.rewrite.exchange_closure_with_ids))
    assert enumerate_critical_branchings(p)
    assert raw and not calls


@pytest.mark.parametrize("preset, walks, raw", [
    ("sym", 383, 454), ("sym_prime", 543, 636), ("perm", 28, 38)])
def test_phase2_walks_each_splice_once(monkeypatch, preset, walks, raw):
    # A raw splice built again, from another cut or source, has the same
    # gate result and canonical class, so phase 2 walks only its first.
    p = get_preset(preset).polygraph
    spliced, walked, framing = [], [], []
    pairs_on, match_walk = critical.critical_pairs_on, critical._match_walk

    def marking(p, u):
        framing.append(u)
        try:
            return pairs_on(p, u)
        finally:
            framing.pop()

    def counting(d, slots):
        if not framing:  # phase 2's gate, not critical_pairs_on
            walked.append((d.input_width, d.slices))
        return match_walk(d, slots)

    monkeypatch.setattr(critical, "_stuck_splices", recording_splices(spliced))
    monkeypatch.setattr(critical, "critical_pairs_on", marking)
    monkeypatch.setattr(critical, "_match_walk", counting)
    enumerate_critical_branchings(p)
    assert (len(walked), len(spliced)) == (walks, raw)
    assert walked == list(dict.fromkeys(
        (d.input_width, d.slices) for d in spliced))


def slice_orders(d):
    """Every slice order of ``d``'s exchange class as ``(slice, index)``
    entries: one per path through ``_fronts``, so none is deduplicated."""
    orders, stack = [], [([], [(s, i) for i, s in enumerate(d.slices)])]
    while stack:
        done, rest = stack.pop()
        if not rest:
            orders.append(done)
        for f, f_id, tail in _fronts(rest):
            stack.append((done + [(f, f_id)], tail))
    return orders


def occurrences_over_orders(d, pattern):
    """The occurrence sets of ``pattern`` read off every slice order of ``d``."""
    pat = canonical_form(pattern)
    k = len(pat)
    found = set()
    for order in slice_orders(d):
        w = d.input_width
        for i, (s, _) in enumerate(order[:len(order) - k + 1]):
            shift = s.offset - pat.slices[0].offset
            window = order[i: i + k]
            if 0 <= shift <= w - pat.input_width and all(
                ws == Slice(ps.offset + shift, ps.gen)
                for (ws, _), ps in zip(window, pat.slices)
            ):
                found.add(frozenset(j for _, j in window))
            w += s.gen.coarity - s.gen.arity
    return found


def test_find_matches_reads_every_slice_order():
    # The closure keeps one id order per slice sequence; over
    # ``eta ; eps ; eta ; eps`` it drops one.  Matching must not lose an
    # occurrence set that only a dropped order shows.
    p = counit_polygraph()
    seen = set()
    for d in every_diagram(p.signature, 4, 1):
        u = canonical_form(d)
        if u in seen:
            continue
        seen.add(u)
        for r in p.rules:
            got = {m.occurrences for m in find_matches(u, r.lhs)}
            assert got == occurrences_over_orders(u, r.lhs), (
                r.name, print_diagram(u))


# -- local confluence ------------------------------------------------------


def non_confluent_toy(sig):
    """Two rules with the same source and distinct irreducible targets."""
    a = parse_diagram("(eta * id 1) ; mu", sig)
    return Polygraph(
        sig,
        (
            Rule("r1", a, parse_diagram("id 1", sig)),
            Rule("r2", a, parse_diagram("(id 1 * eta) ; mu", sig)),
        ),
    )


def alpha_reversed(mon):
    """Mon's associativity alone, oriented the wrong way: one branching
    that closes, and a grid certificate under mon's interpretation that
    fails."""
    alpha = mon.rule("alpha")
    return Polygraph(mon.signature, (Rule("alpha_rev", alpha.rhs, alpha.lhs),))


class TestLocalConfluence:
    @pytest.mark.parametrize("confluent", [True, False])
    def test_one_result_per_branching_in_order(self, mon, confluent):
        p = mon if confluent else non_confluent_toy(mon.signature)
        results, failures = local_confluence(p)
        assert ([r.branching for r in results]
                == enumerate_critical_branchings(p))
        assert failures == [r for r in results if isinstance(r, FailureReport)]
        assert bool(failures) is not confluent

    def test_as_completions(self, asp):
        (b,) = enumerate_critical_branchings(asp)
        result = check_local_confluence(asp, b)
        assert isinstance(result, ConfluenceDiagram)
        assert len(result.completion1.steps) == 2
        assert len(result.completion2.steps) == 1

    def test_as_legs_are_parallel(self, asp):
        (b,) = enumerate_critical_branchings(asp)
        result = check_local_confluence(asp, b)
        leg1, leg2 = result.leg(1), result.leg(2)
        validate_trace(leg1)
        validate_trace(leg2)
        assert diagram_equal(leg1.source, leg2.source)
        assert diagram_equal(leg1.target(), leg2.target())

    def test_mon_all_confluent(self, mon):
        shapes = {}
        for b in enumerate_critical_branchings(mon):
            result = check_local_confluence(mon, b)
            assert isinstance(result, ConfluenceDiagram)
            shapes[print_diagram(canonical_form(b.source))] = (
                len(result.completion1.steps),
                len(result.completion2.steps),
            )
        # The unit-unit branching closes immediately; the mixed ones need
        # one extra step on the associativity side.
        assert shapes["eta ; (eta * id 1) ; mu"] == (0, 0)
        assert shapes["(mu * id 2) ; (mu * id 1) ; mu"] == (2, 1)
        assert all(s in {(0, 0), (1, 0), (2, 1)} for s in shapes.values())

    def test_constructed_failure(self, mon):
        p = non_confluent_toy(mon.signature)
        a = p.rule("r1").lhs
        branchings = [
            x for x in critical_pairs_on(p, a) if x.rules == ("r1", "r2")
        ]
        assert branchings
        result = check_local_confluence(p, branchings[0])
        assert isinstance(result, FailureReport)
        assert not diagram_equal(result.normal_form1, result.normal_form2)

    def test_failure_report_serializes(self, mon):
        p = non_confluent_toy(mon.signature)
        a = p.rule("r1").lhs
        (b,) = [
            x for x in critical_pairs_on(p, a) if x.rules == ("r1", "r2")
        ]
        d = check_local_confluence(p, b).to_dict()
        json.dumps(d)
        assert d["normal_form1"] != d["normal_form2"]

    def test_no_structure_no_closure(self, mon):
        # Without structural rules the normal forms admit no move at all.
        p = non_confluent_toy(mon.signature)
        a = p.rule("r1").lhs
        (b,) = [
            x for x in critical_pairs_on(p, a) if x.rules == ("r1", "r2")
        ]
        assert close_modulo_structure(p, check_local_confluence(p, b)) is None


# -- homotopy bases --------------------------------------------------------


class TestHomotopyBasis:
    def test_needs_termination_evidence(self, mon):
        with pytest.raises(CriticalError, match="termination evidence"):
            homotopy_basis(mon)

    def test_mon_basis(self, mon):
        basis = homotopy_basis(mon, interp=mon_interpretation())
        assert len(basis) == 5

    def test_as_basis_assumed_terminating(self, asp):
        basis = homotopy_basis(asp, assume_terminating=True)
        assert len(basis) == 1

    def test_empty_rules_empty_basis(self, mon):
        p = Polygraph(mon.signature, ())
        assert homotopy_basis(p, assume_terminating=True) == []

    def test_failed_certificate_rejected(self, mon):
        alpha = mon.rule("alpha")
        p = Polygraph(
            mon.signature, (Rule("alpha_rev", alpha.rhs, alpha.lhs),)
        )
        with pytest.raises(CriticalError, match="termination evidence"):
            homotopy_basis(p, interp=mon_interpretation())

    def test_failed_certificate_carries_report(self, mon):
        with pytest.raises(CertificateFailedError) as exc:
            homotopy_basis(alpha_reversed(mon), interp=mon_interpretation())
        assert not exc.value.certificate.passed
        assert str(exc.value) == (
            f"termination evidence failed: {exc.value.certificate.verdict}")

    def test_non_confluent_raises_with_failures(self, mon):
        p = non_confluent_toy(mon.signature)
        with pytest.raises(ConfluenceError) as exc:
            homotopy_basis(p, assume_terminating=True)
        assert exc.value.failures

    def test_identity_generators_are_closed(self, mon):
        basis = homotopy_basis(mon, interp=mon_interpretation())
        for trace in export_identity_generators(basis):
            validate_trace(trace)
            assert diagram_equal(trace.source, trace.target())

    def test_as_identity_generator_length(self, asp):
        (gen,) = export_identity_generators(
            homotopy_basis(asp, assume_terminating=True)
        )
        # 1 + 2 forward steps and 1 + 1 backward steps around the pentagon.
        assert len(gen.steps) == 5


# -- the classifier --------------------------------------------------------


class TestClassifier:
    def test_needs_s_constructed(self, mon, s_empty):
        bs = enumerate_critical_branchings(s_empty)
        with pytest.raises(CriticalError, match="S-constructed"):
            classify_branching(mon, bs[0])

    def test_s_empty_all_sym_yb(self, s_empty):
        for b in enumerate_critical_branchings(s_empty):
            assert classify_branching(s_empty, b) == "sym_yb"

    def test_family_tags_cover(self, sym_prime, sym_prime_branchings):
        for b in sym_prime_branchings:
            assert classify_branching(sym_prime, b) in FAMILY_TAGS


# -- the commutative-monoid prop: frozen landscape -------------------------


# Canonical-form sources of the ten named coherence cells whose underlying
# minimal branchings are proper (not absorbed by the structural families).
GIMEL_SOURCE = "tau ; tau ; mu"
OMEGA_SOURCE = "(tau * id 1) ; (mu * id 1) ; mu"
OMEGA1_SOURCE = "(tau * id 1) ; (id 1 * tau) ; (tau * id 1) ; (mu * id 1)"
OMEGA2_SOURCE = "(eta * id 1) ; tau ; mu"
OMEGA3_SOURCE = "(id 1 * eta) ; tau ; mu"
OMEGA4_SOURCE = "(mu * id 1) ; tau ; mu"
OMEGA5_CORE_SOURCE = "(id 1 * mu) ; tau ; mu"


class TestSymPrime:
    def test_branching_count(self, sym_prime_branchings):
        assert len(sym_prime_branchings) == 54

    def test_family_tally(self, sym_prime, sym_prime_branchings):
        tally = {tag: 0 for tag in FAMILY_TAGS}
        for b in sym_prime_branchings:
            tally[classify_branching(sym_prime, b)] += 1
        # Families 2-4 match the parametric classification exactly:
        # 5 per generator, 1 per generator pair, 2 per algebraic rule.
        assert tally["naturality_vs_sym"] == 10
        assert tally["left_vs_right_naturality"] == 4
        assert tally["algebraic_vs_naturality"] == 10
        # Family 1 holds the five tau-only branchings plus two entangled
        # Yang-Baxter self-overlaps with a mu or eta slice stuck between
        # the redexes (critical under the shared-occurrence definition,
        # although their sources are not tau-only).
        assert tally["sym_yb"] == 7
        assert tally["proper"] == 23

    def test_fam1_contains_tau_only_five(self, sym_prime, sym_prime_branchings):
        tau_only = {
            print_diagram(canonical_form(b.source))
            for b in sym_prime_branchings
            if classify_branching(sym_prime, b) == "sym_yb"
            and all(s.gen.name == "tau" for s in b.source.slices)
        }
        s_empty = s_construction(
            Polygraph(Signature("Perm", ()), ())
        )
        assert tau_only == sources(enumerate_critical_branchings(s_empty))

    def test_fam3_is_one_per_generator_pair(
        self, sym_prime, sym_prime_branchings
    ):
        fam3 = [
            b
            for b in sym_prime_branchings
            if classify_branching(sym_prime, b) == "left_vs_right_naturality"
        ]
        # One source per ordered pair of generators: (mu,mu), (mu,eta),
        # (eta,mu), (eta,eta) side by side over a crossing.
        assert sources(fam3) == {
            "(mu * id 2) ; (id 1 * mu) ; tau",
            "mu ; (id 1 * eta) ; tau",
            "(eta * id 2) ; (id 1 * mu) ; tau",
            "eta ; (eta * id 1) ; tau",
        }

    def test_proper_contains_named_cells(
        self, sym_prime, sym_prime_branchings
    ):
        proper = sources(
            b
            for b in sym_prime_branchings
            if classify_branching(sym_prime, b) == "proper"
        )
        for src in (
            GIMEL_SOURCE,
            OMEGA_SOURCE,
            OMEGA1_SOURCE,
            OMEGA2_SOURCE,
            OMEGA3_SOURCE,
            OMEGA4_SOURCE,
            OMEGA5_CORE_SOURCE,
        ):
            assert src in proper, src

    def test_five_confluence_failures(self, sym_prime, sym_prime_branchings):
        """The five branchings mixing beta/gamma with Yang-Baxter or the
        right mu-naturality are genuinely not joinable: both reducts
        normalize to distinct normal forms.  Their joins require a
        *backward* Yang-Baxter step (the crossing pattern above mu must be
        rewritten against the rule's orientation before the commutativity
        rule applies), so the rule set is not locally confluent as
        oriented.  This is a deviation logged in the project notes; the
        failing pairs are frozen here so any change is noticed.
        """
        failing = []
        for b in sym_prime_branchings:
            result = check_local_confluence(sym_prime, b)
            if isinstance(result, FailureReport):
                failing.append((b, result))
        assert sorted(b.rules for b, _ in failing) == [
            ("beta", "nat_mu_r"),
            ("beta", "yb"),
            ("gamma", "nat_mu_r"),
            ("gamma", "yb"),
            ("gamma", "yb"),
        ]
        # Every failure is semantically sound: the two normal forms compute
        # the same commutative-monoid operation (so the defect is in the
        # orientation of the rules, not in the rewriting engine).
        for _, report in failing:
            assert commutative_cell(
                report.normal_form1
            ) == commutative_cell(report.normal_form2)
            assert not diagram_equal(
                report.normal_form1, report.normal_form2
            )

    def test_omega1_failure_shape(self, sym_prime, sym_prime_branchings):
        (b,) = [
            x for x in sym_prime_branchings if x.rules == ("beta", "yb")
        ]
        assert print_diagram(canonical_form(b.source)) == OMEGA1_SOURCE
        report = check_local_confluence(sym_prime, b)
        assert isinstance(report, FailureReport)
        nfs = {
            print_diagram(report.normal_form1),
            print_diagram(report.normal_form2),
        }
        assert nfs == {
            "(tau * id 1) ; (id 1 * tau) ; (mu * id 1)",
            "(id 1 * tau) ; (tau * id 1) ; (id 1 * tau) ; (mu * id 1)",
        }

    def test_omega1_closes_modulo_structure(
        self, sym_prime, sym_prime_branchings
    ):
        # One backward Yang-Baxter step exposes a beta redex above mu,
        # and beta then reaches the other normal form.
        (b,) = [
            x for x in sym_prime_branchings if x.rules == ("beta", "yb")
        ]
        failure = check_local_confluence(sym_prime, b)
        closure = close_modulo_structure(sym_prime, failure)
        added1 = closure.completion1.steps[len(failure.completion1.steps):]
        added2 = closure.completion2.steps[len(failure.completion2.steps):]
        assert [(s.rule.name, s.direction) for s in added1 + added2] == [
            ("yb", "backward"),
            ("beta", "forward"),
        ]
        for leg in (closure.leg(1), closure.leg(2)):
            validate_trace(leg)
        assert diagram_equal(
            closure.leg(1).target(), closure.leg(2).target()
        )


def commutative_cell(d):
    """Semantic invariant: which inputs end up merged into each output."""
    values = [frozenset([i]) for i in range(d.input_width)]
    for s in d.slices:
        args = values[s.offset: s.offset + s.gen.arity]
        if s.gen.name == "tau":
            out = [args[1], args[0]]
        elif s.gen.name == "mu":
            out = [args[0] | args[1]]
        else:  # eta
            out = [frozenset()]
        values[s.offset: s.offset + s.gen.arity] = out
    return (d.input_width, tuple(values))


# -- the pipeline ----------------------------------------------------------


class TestPipeline:
    def test_as_aspherical(self, asp):
        report = asphericity_pipeline(asp)
        assert report.verdict == "aspherical (by convergent presentation)"
        assert report.confluent and report.ok
        assert len(report.branchings) == 1

    def test_mon_aspherical_with_certificate(self, mon):
        report = asphericity_pipeline(mon, interp=mon_interpretation())
        assert report.verdict == "aspherical (by convergent presentation)"
        assert report.termination is not None and report.termination.passed

    def test_s_empty_prop_verdict(self, s_empty):
        report = asphericity_pipeline(s_empty)
        assert report.is_prop
        assert report.verdict == "aspherical modulo Tietze step"
        assert report.family_counts["sym_yb"] == 5

    def test_sym_prime_honest_failure(self, sym_prime):
        report = asphericity_pipeline(sym_prime, expected_proper=10)
        assert not report.confluent
        assert len(report.failures) == 5
        assert report.proper_count == 23
        assert report.expected_proper_count == 10
        assert report.discrepancy
        assert "not established" in report.verdict
        assert "local confluence" in report.verdict

    def test_discrepancy_is_not_ok(self, s_empty):
        # Every branching closes and the smoke test passes: only the
        # flagged count keeps the run from passing.
        expected = asphericity_pipeline(s_empty).proper_count + 1
        report = asphericity_pipeline(s_empty, expected_proper=expected)
        assert report.confluent and report.termination_smoke
        assert report.discrepancy and not report.ok
        assert report.verdict == (
            f"aspherical modulo Tietze step [DISCREPANCY: {expected - 1} "
            f"proper branchings, expected {expected}]")

    def test_failed_certificate_is_not_ok(self, mon):
        report = asphericity_pipeline(alpha_reversed(mon),
                                      interp=mon_interpretation())
        assert report.confluent and not report.ok
        assert report.verdict == (
            "not established (termination certificate failed)")
        assert report.to_dict()["status"] == "failed"

    def test_failed_smoke_test_raises(self):
        # Running out of budget in the smoke test is no verdict: it raises,
        # as it does in the confluence pass.
        r = parse_polygraph("gen a : 1 -> 1\nrule r : a => a\n")
        with pytest.raises(BudgetExceededError, match="budget of 5 steps"):
            asphericity_pipeline(r, budget=5)

    def test_both_reasons(self, mon):
        p = non_confluent_toy(mon.signature)
        report = asphericity_pipeline(p, interp=mon_interpretation())
        assert not report.termination.passed and report.failures
        assert report.verdict == (
            f"not established ({len(report.failures)} branching(s) fail "
            "local confluence; termination certificate failed)")

    def test_report_json_round_trip(self, mon):
        report = asphericity_pipeline(mon, interp=mon_interpretation())
        blob = json.dumps(report.to_dict())
        back = json.loads(blob)
        assert back["status"] == "ok"
        assert back["branching_count"] == 5
