"""Critical branchings, local confluence, homotopy bases, the S-construction.

``enumerate_critical_branchings`` finds every minimal overlapping pair of
rule applications.  Sources are built by gluing two rule sources along a
common block: wherever blocks read off the exchange cuts of the two are
equal modulo exchange and a horizontal shift, one whole source replaces
the block in the other.  Entangled sources, where a slice outside both
redexes is stuck between them, come from splicing into each overlap, on
its own wires or one more on either side, one slice that stays stuck
between its neighbours.  A candidate's
pairs are read off a walk along its wires from its end slices: two
distinct, overlapping matches whose union covers the ends.  A splice with
none is neither canonicalized nor framed; the matcher, and its exchange
closure, run only where the walk does not apply.  The others are trimmed
and deduplicated by canonical form, and validated against an independent
exhaustive search on the small presets in the test suite.

``s_construction`` extends an algebraic presentation (all generators of
coarity 1) to a prop presentation: it adjoins the symmetry ``tau`` together
with the symmetry and Yang–Baxter rules and two naturality rules per
generator, built from the inductive crossings ``tau_{n,1}`` and
``tau_{1,n}``.  ``classify_branching`` sorts the critical branchings of an
S-constructed prop into the five families; everything not accounted for by
the structural bookkeeping is *proper* and contributes a generator to the
homotopy basis of the quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

from .diagram import (
    Diagram,
    PolyrewError,
    Signature,
    Slice,
    TAU,
    _blocks,
    _cuts,
    _ends,
    _reaches_end,
    canonical_form,
    diagram_equal,
    generator_diagram,
    hcomp,
    identity,
    print_diagram,
    vcomp,
)
from .rewrite import (
    DEFAULT_BUDGET,
    Polygraph,
    Rule,
    Step,
    Trace,
    _match_walk,
    _pattern_slots,
    _window_context,
    compose_traces,
    find_matches,
    invert_trace,
    normalize,
    print_trace,
)
from .termination import CertificateReport, Interpretation, check_decrease


class CriticalError(PolyrewError):
    """Raised for invalid inputs to the critical-branching machinery."""


# -- the S-construction ---------------------------------------------------


def tau_diagram() -> Diagram:
    return generator_diagram(TAU)


def tau_block_left(n: int) -> Diagram:
    """The crossing ``tau_{n,1}``: a block of ``n`` wires over one wire.

    Inductively ``tau_{0,1} = id`` and
    ``tau_{n+1,1} = (id_n ⋆₀ tau) ⋆₁ (tau_{n,1} ⋆₀ id_1)``: one crossing per
    wire of the block, from the right.
    """
    return Diagram(n + 1, tuple(Slice(i, TAU) for i in reversed(range(n))))


def tau_block_right(n: int) -> Diagram:
    """The crossing ``tau_{1,n}``: one wire over a block of ``n`` wires.

    Inductively ``tau_{1,0} = id`` and
    ``tau_{1,n+1} = (tau ⋆₀ id_n) ⋆₁ (id_1 ⋆₀ tau_{1,n})``: one crossing per
    wire of the block, from the left.
    """
    return Diagram(n + 1, tuple(Slice(i, TAU) for i in range(n)))


def s_construction(p: Polygraph) -> Polygraph:
    """The prop presentation of the free symmetric theory over ``p``.

    Adds ``tau`` with the symmetry and Yang–Baxter rules, plus left/right
    naturality rules for every generator.  The input must be algebraic:
    every generator of coarity 1 and not already a prop.
    """
    if p.signature.is_prop:
        raise CriticalError("polygraph is already a prop")
    for g in p.signature.generators:
        if g.coarity != 1:
            raise CriticalError(
                f"S-construction needs an algebraic presentation; "
                f"generator {g.name} has coarity {g.coarity}"
            )
    sig = Signature(p.signature.name, p.signature.generators, is_prop=True)
    tau = tau_diagram()
    structural: list[Rule] = [
        Rule("sym", vcomp(tau, tau), identity(2), family="symmetry"),
        Rule(
            "yb",
            vcomp(
                hcomp(tau, identity(1)),
                hcomp(identity(1), tau),
                hcomp(tau, identity(1)),
            ),
            vcomp(
                hcomp(identity(1), tau),
                hcomp(tau, identity(1)),
                hcomp(identity(1), tau),
            ),
            family="yang_baxter",
        ),
    ]
    for g in p.signature.generators:
        gd = generator_diagram(g)
        m = g.arity
        # Naturality rewrites the single-crossing side (g above one tau) to
        # the tau-block side (the block of m crossings above 1 * g): the
        # generator slides down-through the crossing.  This orientation is
        # forced by the branching classification: the left/right overlap on
        # a shared tau exists only when both single-crossing sides are rule
        # sources.
        left_single = vcomp(hcomp(gd, identity(1)), tau)
        left_block = vcomp(tau_block_left(m), hcomp(identity(1), gd))
        right_single = vcomp(hcomp(identity(1), gd), tau)
        right_block = vcomp(tau_block_right(m), hcomp(gd, identity(1)))
        nat_l = Rule(f"nat_{g.name}_l", left_single, left_block,
                     family="naturality")
        nat_r = Rule(f"nat_{g.name}_r", right_single, right_block,
                     family="naturality")
        structural.append(nat_l)
        structural.append(nat_r)
    algebraic = tuple(
        Rule(r.name, r.lhs, r.rhs, family="algebraic") for r in p.rules
    )
    return Polygraph(sig, tuple(structural) + algebraic)


def structural_rules(p: Polygraph) -> tuple[Rule, ...]:
    return p.rules_of_family("symmetry", "yang_baxter", "naturality")


def is_s_constructed(p: Polygraph) -> bool:
    return p.signature.is_prop and len(structural_rules(p)) >= 2


# -- branchings -----------------------------------------------------------


@dataclass(frozen=True)
class Branching:
    """A minimal overlapping pair of forward rule applications."""

    source: Diagram
    step1: Step
    step2: Step
    occ1: frozenset[int]
    occ2: frozenset[int]

    @property
    def rules(self) -> tuple[str, str]:
        return (self.step1.rule.name, self.step2.rule.name)

    def shared_occurrences(self) -> frozenset[int]:
        return self.occ1 & self.occ2

    def to_dict(self) -> dict:
        return {
            "source": print_diagram(self.source),
            "rules": list(self.rules),
        }

    def __str__(self) -> str:
        return f"{self.rules[0]} / {self.rules[1]} on {print_diagram(self.source)}"


def _tight(slices) -> Diagram:
    """``slices`` on the fewest wires, so that no outer wire passes
    untouched: shifted until one touches the left edge, over the least
    input width for which they chain.  So a diagram with a slice has an
    outer whisker exactly when it is not its own tight form, and so has each
    exchange representative: an exchange never moves a slice onto an edge."""
    m = min(s.offset for s in slices)
    slices = tuple(s.shifted(-m) for s in slices)
    w0 = delta = 0
    for s in slices:
        w0 = max(w0, s.offset + s.gen.arity - delta)
        delta += s.gen.coarity - s.gen.arity
    return Diagram(w0, slices)


@lru_cache(maxsize=1 << 6)
def _source_slots(p: Polygraph) -> tuple[tuple[Diagram, ...], dict | None]:
    """The canonical forms of ``p``'s rule sources and their slots."""
    sources = tuple(canonical_form(r.lhs) for r in p.rules)
    return sources, _pattern_slots(*sources)


def _pairs(holding, ends):
    """Each pair of distinct, overlapping matches whose union covers
    ``ends``, as ``(pattern index, occurrence set)`` keys, where
    ``holding(x)`` gives the keys of the matches that hold slice ``x``.

    One match of such a pair holds the least end.  The other holds the
    least end the first misses or, when it misses none, overlaps it, and so
    holds one of its slices.  A pair may come more than once, either way.
    ``ends`` is never empty: callers pass the ends of a diagram with a slice.
    """
    for first in holding(min(ends)):
        occ = first[1]
        missed = ends - occ
        for x in (min(missed),) if missed else occ:
            for second in holding(x):
                if (second != first and occ & second[1]
                        and ends <= occ | second[1]):
                    yield first, second


def critical_pairs_on(p: Polygraph, u: Diagram) -> list[Branching]:
    """The critical branchings of ``p`` whose source is (the canonical form
    of) ``u``.

    A pair of matches is a critical branching when the matches share at
    least one generator occurrence (disjoint-support branchings are always
    confluent) and the source admits no nontrivial context factorization
    around both redexes.  The source is non-minimal when an outer identity
    wire passes untouched (a peelable whisker) or when some exchange
    representative starts or ends with a slice outside the union of the two
    matches (a peelable top/bottom context).  Slices outside the union that
    are stuck *between* the redexes are allowed: they make the branching
    entangled, not reducible.  Neither test depends on the pair, so both are
    decided once for ``u`` (and only here): there is no whisker when ``u``
    is its own tight form (:func:`_tight`), and the ``ends`` (occurrences
    some representative puts first or last) come from walking each slice
    alone up and down through its neighbours (``_ends``); a pair is minimal
    when its union covers ``ends``.  A ``u`` with no slice has no match.

    The pairs are read off the walk along ``u``'s wires (:func:`_pairs`),
    each chosen match framed by its window from its least slice, as in
    :func:`find_matches`; where the walk does not apply, off the slices of
    :func:`find_matches`' matches.  Pairs keep the order of the matches.
    """
    u = canonical_form(u)
    if not u.slices or _tight(u.slices) != u:
        return []
    sources, slots = _source_slots(p)
    walk = _match_walk(u, slots)
    if walk is None:
        held: dict[int, dict] = {}
        for m in find_matches(u, *(r.lhs for r in p.rules)):
            for x in m.occurrences:
                held.setdefault(x, {})[m.pattern, m.occurrences] = m
        holding = lambda x: held.get(x, {})
        frame = lambda key: holding(min(key[1]))[key].context
    else:
        holding = cache(walk)
        frame = lambda key: _window_context(
            u, holding(min(key[1]))[key], sources[key[0]])
    order = lambda key: (key[0], sorted(key[1]))
    pairs = {tuple(sorted(pair, key=order))
             for pair in _pairs(holding, _ends(u))}
    out = []
    for pair in sorted(pairs, key=lambda pair: list(map(order, pair))):
        first, second = sorted(
            pair, key=lambda key: (p.rules[key[0]].name, sorted(key[1])))
        steps = (Step(p.rules[key[0]], "forward", frame(key))
                 for key in (first, second))
        out.append(Branching(u, *steps, first[1], second[1]))
    return out


def _stuck_splices(u: Diagram, gens):
    """Candidate entangled sources: a slice spliced in at a cut of ``u``
    where no representative puts it first or last (else it is a peelable
    context), on ``u``'s wires or on one more on either side.

    The cuts are ``u``'s own, walked once.  At a cut of width ``w`` the new
    slice takes every offset from -1, on a wire left of ``u``, to the one
    that ends it on wire ``w``, right of the cut.  The left wire is kept
    only at offset -1; the right one only when the new slice, or a slice
    below it on the wires the new slice leaves, reaches it.  Which slices
    below fit, and which reach that wire, depends on the new slice's
    generator alone, so it is read once per cut.  The new slice alone is
    walked up and down (:func:`_reaches_end`) before any diagram is built.
    A whisker of ``u``'s own may remain: :func:`critical_pairs_on` rejects
    it."""
    n = u.input_width
    for top, rest in _cuts(u):
        above = tuple(s for s, _ in top)
        below = tuple(s for s, _ in rest)
        w = n + sum(g.coarity - g.arity for _, g in above)
        # Per slice below: the least width just under the new slice on
        # which it fits; on exactly that width it ends on the last wire.
        reach, grown = [], 0
        for o, g in below:
            reach.append(o + g.arity - grown)
            grown += g.coarity - g.arity
        for g in gens:
            a = g.arity
            room = w + 1 + g.coarity - a  # the right wire included
            if any(r > room for r in reach):
                continue
            edge = room in reach
            for o in range(-1, w + 2 - a):
                if _reaches_end(above, (o, g), below):
                    continue
                right = edge or o + a == w + 1
                if o < 0:
                    yield Diagram(n + 1 + right, tuple(
                        Slice(t + 1, h) for t, h in above + ((-1, g),) + below))
                else:
                    yield Diagram(n + right, above + (Slice(o, g),) + below)


def enumerate_critical_branchings(p: Polygraph) -> list[Branching]:
    """All critical branchings of ``p``, deduplicated and in canonical order.

    Candidate sources are generated in two phases.  Every candidate is
    settled by :func:`critical_pairs_on`, whose pairs the walk along wires
    reads (:func:`_pairs`) with the minimality test, so generation is
    heuristic but acceptance is not.  Phase 1 glues pairs of rule sources
    along a common block (all overlap-type branchings, where the source is
    the union of the two redexes): the splits of every rule source
    (``_blocks``) are grouped by tight block modulo exchange, and each
    ordered pair of splits in a group gives
    ``above2 ; above1 ; block1 ; below1 ; below2``, shifted so that the
    blocks coincide.  Phase 2 walks the cuts of each phase-1 source once
    and splices in one stuck slice (``_stuck_splices``), on the source's
    wires or one more on either side, to catch entangled branchings whose
    source strictly contains the union — e.g. the wide Yang–Baxter
    self-overlap.  Each splice is tested as built (:func:`_pairs` on its
    own walk), so one with no covering pair is neither canonicalized nor
    framed.  The same splice can come from more than one cut or source; it
    is walked only the first time, since a repeat has the same test result
    and canonical class.  Completeness is bounded: branchings
    needing two or more stuck slices are missed, and such branchings exist
    (perm has three ``yb``/``yb`` ones, pinned in the test suite).  With a
    coarity-0 generator in a rule source, an exchange can have two results
    that ``_cuts`` reads as one, so phase 1 can miss a gluing and its
    branching (pinned in the test suite); no preset has such a generator.
    """
    found: list[Branching] = []
    seen: set = set()

    def consider(candidate: Diagram) -> None:
        candidate = canonical_form(candidate)
        ckey = (candidate.input_width, candidate.slices)
        if ckey not in seen:
            seen.add(ckey)
            found.extend(critical_pairs_on(p, candidate))

    # Phase 1: rule sources glued along a common block.
    groups: dict[Diagram, list] = {}
    for r in p.rules:
        for split in _blocks(r.lhs):
            key = canonical_form(_tight(split[1]))
            groups.setdefault(key, []).append(split)
    for splits in groups.values():
        for above1, block1, below1 in splits:
            inner = above1 + block1 + below1
            m1 = min(s.offset for s in block1)
            for above2, block2, below2 in splits:
                d0 = min(s.offset for s in block2) - m1
                l1, l2 = max(d0, 0), max(-d0, 0)
                consider(_tight(
                    tuple(s.shifted(l2) for s in above2)
                    + tuple(s.shifted(l1) for s in inner)
                    + tuple(s.shifted(l2) for s in below2)
                ))
    # Phase 2: entangled sources, one stuck slice beyond the union.
    gens, slots = p.signature.all_generators(), _source_slots(p)[1]
    walked: set = set()
    for br in list(found):
        for variant in _stuck_splices(br.source, gens):
            key = (variant.input_width, variant.slices)
            if key in walked:
                continue
            walked.add(key)
            walk = _match_walk(variant, slots)
            if walk is None or any(_pairs(walk, _ends(variant))):
                consider(variant)
    found.sort(
        key=lambda br: (
            len(br.source.slices),
            br.source.input_width,
            print_diagram(br.source),
            br.rules,
            tuple(sorted(br.occ1)),
            tuple(sorted(br.occ2)),
        )
    )
    return found


# -- local confluence and homotopy bases ----------------------------------


@dataclass(frozen=True)
class ConfluenceDiagram:
    """A branching closed by two completions with a common target.

    ``completion1`` starts at the target of ``step1`` (and likewise for
    ``completion2``); the composites ``step_i`` then ``completion_i`` form
    the boundary of a generating-confluence 4-cell.
    """

    branching: Branching
    completion1: Trace
    completion2: Trace

    def leg(self, which: int) -> Trace:
        step = self.branching.step1 if which == 1 else self.branching.step2
        completion = self.completion1 if which == 1 else self.completion2
        return Trace(self.branching.source, (step,) + completion.steps)

    def to_dict(self) -> dict:
        return {
            "branching": self.branching.to_dict(),
            "completion1": print_trace(self.completion1, "completion1"),
            "completion2": print_trace(self.completion2, "completion2"),
        }


@dataclass(frozen=True)
class FailureReport:
    """Local confluence failed: the two reducts have distinct normal forms.

    The normal forms are those reached by the fixed normalization strategy
    (see :func:`check_local_confluence`); ``completion1`` and
    ``completion2`` are the forward traces from the reducts to them.
    Distinct normal forms prove the branching unjoinable by forward
    rewriting only when each reduct has a single normal form.  With the
    structural cells used in both directions it may still close: see
    :func:`close_modulo_structure`.
    """

    branching: Branching
    normal_form1: Diagram
    normal_form2: Diagram
    completion1: Trace
    completion2: Trace

    def to_dict(self) -> dict:
        return {
            "branching": self.branching.to_dict(),
            "normal_form1": print_diagram(self.normal_form1),
            "normal_form2": print_diagram(self.normal_form2),
        }


def check_local_confluence(
    p: Polygraph, b: Branching, budget: int = DEFAULT_BUDGET
):
    """Close the branching by normalizing both reducts.

    Returns a :class:`ConfluenceDiagram` on success, a
    :class:`FailureReport` when the normal forms differ.  Both reducts are
    normalized with the one fixed strategy of
    :func:`~polyrew.rewrite.normalize`, so a failure shows distinct normal
    forms under that strategy; it proves the branching unjoinable by
    forward rewriting only when each reduct has a single normal form.
    """
    reduct1 = b.step1.target()
    reduct2 = b.step2.target()
    nf1, t1 = normalize(reduct1, p, budget)
    nf2, t2 = normalize(reduct2, p, budget)
    if diagram_equal(nf1, nf2):
        return ConfluenceDiagram(b, t1, t2)
    return FailureReport(b, nf1, nf2, t1, t2)


#: Steps searched from each normal form by :func:`close_modulo_structure`.
MODULO_SEARCH_DEPTH = 3


def _moves_modulo_structure(d: Diagram, p: Polygraph):
    """Forward steps of every rule, then backward steps of the structural
    rules, on the canonical diagram ``d``.

    A rule whose right side is an identity (``sym``) is not reversed: its
    backward step could insert a crossing pair on any two wires.
    """
    moves = [(r, "forward") for r in p.rules] + [
        (r, "backward") for r in structural_rules(p) if len(r.rhs)]
    for m in find_matches(d, *(r.side(way) for r, way in moves)):
        rule, way = moves[m.pattern]
        yield Step(rule, way, m.context)


def close_modulo_structure(
    p: Polygraph, failure: FailureReport
) -> ConfluenceDiagram | None:
    """Close a forward failure with the structural cells invertible.

    The structural cells (Yang–Baxter, naturality) present equalities of
    the free prop, so they may be used in both directions: a branching is
    locally confluent modulo the structural congruence when its two normal
    forms can be joined by forward steps of any rule and backward steps of
    the structural rules (rewriting modulo, after Jouannaud–Kirchner and
    Dupont–Malbos).  No algebraic cell is ever reversed.  The
    search is breadth-first from both normal forms, at most
    :data:`MODULO_SEARCH_DEPTH` steps on each side, in rule declaration
    order; the result extends the two forward completions of ``failure`` to
    a common target.  ``None`` means no join within that depth, not a proof
    that none exists.
    """
    b = failure.branching
    starts = (canonical_form(failure.normal_form1),
              canonical_form(failure.normal_form2))
    paths = ({starts[0]: ()}, {starts[1]: ()})
    frontiers = [[starts[0]], [starts[1]]]
    for _ in range(MODULO_SEARCH_DEPTH):
        for side in (0, 1):
            seen, other = paths[side], paths[1 - side]
            grown = []
            for d in frontiers[side]:
                for s in _moves_modulo_structure(d, p):
                    t = canonical_form(s.target())
                    if t in seen:
                        continue
                    seen[t] = seen[d] + (s,)
                    if t in other:
                        return ConfluenceDiagram(
                            b,
                            Trace(b.step1.target(),
                                  failure.completion1.steps + paths[0][t]),
                            Trace(b.step2.target(),
                                  failure.completion2.steps + paths[1][t]),
                        )
                    grown.append(t)
            frontiers[side] = grown
    return None


def local_confluence(p: Polygraph, budget: int = DEFAULT_BUDGET):
    """Every critical branching of ``p`` closed by
    :func:`check_local_confluence`, in branching order.

    Returns ``(results, failures)``: one :class:`ConfluenceDiagram` or
    :class:`FailureReport` per branching, and the failures among them.
    """
    results = [check_local_confluence(p, b, budget)
               for b in enumerate_critical_branchings(p)]
    return results, [r for r in results if isinstance(r, FailureReport)]


class ConfluenceError(CriticalError):
    """Raised when a homotopy basis is requested for a non-confluent system;
    ``failures`` are the branchings that do not close."""

    def __init__(self, failures: list[FailureReport]):
        super().__init__(f"{len(failures)} critical branching(s) are not "
                         "locally confluent")
        self.failures = failures

    def to_dict(self) -> dict:
        return {"error": str(self),
                "failures": [f.to_dict() for f in self.failures]}


class CertificateFailedError(CriticalError):
    """Raised when the termination certificate given for a homotopy basis
    fails; ``certificate`` is its report."""

    def __init__(self, certificate: CertificateReport):
        super().__init__(f"termination evidence failed: {certificate.verdict}")
        self.certificate = certificate

    def to_dict(self) -> dict:
        return {"error": str(self), "termination": self.certificate.to_dict()}


def homotopy_basis(
    p: Polygraph,
    interp: Interpretation | None = None,
    assume_terminating: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> list[ConfluenceDiagram]:
    """One confluence diagram per critical branching — a homotopy basis for
    a convergent presentation.

    Termination evidence is a precondition: pass an interpretation for a
    grid certificate, or set ``assume_terminating`` explicitly.  A failed
    certificate raises :class:`CertificateFailedError`, and a branching that
    does not close :class:`ConfluenceError`; both carry what failed.
    """
    if interp is not None:
        certificate = check_decrease(p, interp)
        if not certificate.passed:
            raise CertificateFailedError(certificate)
    elif not assume_terminating:
        raise CriticalError(
            "homotopy_basis needs termination evidence: provide an "
            "interpretation or set assume_terminating=True"
        )
    basis, failures = local_confluence(p, budget)
    if failures:
        raise ConfluenceError(failures)
    return basis


def export_identity_generators(basis: list[ConfluenceDiagram]) -> list[Trace]:
    """The closed traces ``s(γ) ⋆₂ t(γ)⁻`` of the basis 4-cells."""
    out = []
    for cd in basis:
        out.append(compose_traces(cd.leg(1), invert_trace(cd.leg(2))))
    return out


# -- the five-family classifier -------------------------------------------


FAMILY_TAGS = (
    "sym_yb",
    "naturality_vs_sym",
    "left_vs_right_naturality",
    "algebraic_vs_naturality",
    "proper",
)


def classify_branching(p: Polygraph, b: Branching) -> str:
    """The family tag of a critical branching of an S-constructed prop.

    Both rules structural (symmetry/Yang–Baxter) → ``sym_yb``; a naturality
    rule against either structural rule → ``naturality_vs_sym``; two
    naturality rules → ``left_vs_right_naturality``; an algebraic rule
    against a naturality rule overlapping only on the generator (the
    crossing stays outside the algebraic match) → ``algebraic_vs_naturality``;
    everything else is ``proper``.
    """
    if not is_s_constructed(p):
        raise CriticalError("classification needs an S-constructed prop")
    fams = {b.step1.rule.family, b.step2.rule.family}
    structural = {"symmetry", "yang_baxter"}
    if fams <= structural:
        return "sym_yb"
    if "naturality" in fams and (fams & structural):
        return "naturality_vs_sym"
    if fams == {"naturality"}:
        return "left_vs_right_naturality"
    if fams == {"algebraic", "naturality"}:
        canon = canonical_form(b.source)
        shared = b.shared_occurrences()
        if all(canon.slices[i].gen.name != "tau" for i in shared):
            return "algebraic_vs_naturality"
    return "proper"


# -- the pipeline ---------------------------------------------------------


@dataclass
class PipelineReport:
    """The aggregated output of the asphericity pipeline.

    ``confluent`` is the forward verdict: every branching closes under the
    fixed rule orientations.  Each forward failure is then searched for a
    join modulo the structural congruence: ``closures`` holds the
    confluence diagrams found, ``unclosed`` the failures without one.
    ``ok`` holds when the branchings close, the termination evidence holds
    and no discrepancy is flagged; the verdict names what failed.
    """

    polygraph: str
    is_prop: bool
    termination: CertificateReport | None
    branchings: list[Branching]
    failures: list[FailureReport]
    closures: list[ConfluenceDiagram]
    unclosed: list[FailureReport]
    family_counts: dict
    proper_count: int | None
    expected_proper_count: int | None
    discrepancy: bool
    verdict: str
    ok: bool

    def to_dict(self) -> dict:
        return {
            "polygraph": self.polygraph,
            "is_prop": self.is_prop,
            "termination": self.termination.to_dict() if self.termination else None,
            "termination_smoke": self.termination_smoke,
            "branchings": [b.to_dict() for b in self.branchings],
            "branching_count": len(self.branchings),
            "confluent": self.confluent,
            "failures": [f.to_dict() for f in self.failures],
            "confluent_modulo_structure": self.confluent_modulo_structure,
            "family_counts": dict(self.family_counts),
            "proper_count": self.proper_count,
            "expected_proper_count": self.expected_proper_count,
            "discrepancy": self.discrepancy,
            "verdict": self.verdict,
            "status": "ok" if self.ok else "failed",
        }

    @property
    def termination_smoke(self) -> bool | None:
        """True without a certificate, since a failed smoke test raises."""
        return True if self.termination is None else None

    @property
    def confluent(self) -> bool:
        return not self.failures

    @property
    def confluent_modulo_structure(self) -> bool:
        return not self.unclosed


def _smoke_terminates(p: Polygraph, budget: int) -> None:
    """Budgeted-normalization smoke test: normalize every rule side, which
    raises ``BudgetExceededError`` on running out, as it does anywhere."""
    for r in p.rules:
        normalize(r.lhs, p, budget)
        normalize(r.rhs, p, budget)


def asphericity_pipeline(
    p: Polygraph,
    interp: Interpretation | None = None,
    expected_proper: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> PipelineReport:
    """Termination evidence, enumeration, local confluence, classification.

    Termination evidence is the grid certificate of ``interp``, or else a
    budgeted smoke test.  Running out of budget there, as in the confluence
    pass, raises ``BudgetExceededError``.  When the evidence holds and every
    branching closes, a pro gets the verdict "aspherical (by convergent
    presentation)".  A prop's report lists the proper-branching basis and
    the verdict is "aspherical modulo Tietze step": Tietze equivalence of a
    declared 4-cell basis with the computed one is an obligation, not a
    machine-checked fact.  When ``expected_proper`` is given and the count
    differs, the report flags the discrepancy instead of absorbing it, and
    the run is not ok.  Otherwise the verdict is "not established", with
    its reasons.  It rests on forward local confluence; the modulo-structure
    verdict (``confluent_modulo_structure``) is reported beside it.
    """
    termination = check_decrease(p, interp) if interp is not None else None
    if interp is None:
        _smoke_terminates(p, budget)
    results, failures = local_confluence(p, budget)
    joins = [close_modulo_structure(p, f) for f in failures]
    counts = {}
    if is_s_constructed(p):
        tags = [classify_branching(p, r.branching) for r in results]
        counts = {tag: tags.count(tag) for tag in FAMILY_TAGS}
    proper = counts.get("proper")
    discrepancy = proper is not None and expected_proper not in (None, proper)
    reasons = []
    if failures:
        reasons.append(f"{len(failures)} branching(s) fail local confluence")
    if termination is not None and not termination.passed:
        reasons.append("termination certificate failed")
    if reasons:
        verdict = "not established (" + "; ".join(reasons) + ")"
    elif proper is None:
        verdict = "aspherical (by convergent presentation)"
    else:
        verdict = "aspherical modulo Tietze step"
        if discrepancy:
            verdict += (f" [DISCREPANCY: {proper} proper branchings, "
                        f"expected {expected_proper}]")
    return PipelineReport(
        polygraph=p.signature.name,
        is_prop=p.signature.is_prop,
        termination=termination,
        branchings=[r.branching for r in results],
        failures=failures,
        closures=[c for c in joins if c is not None],
        unclosed=[f for f, c in zip(failures, joins) if c is None],
        family_counts=counts,
        proper_count=proper,
        expected_proper_count=expected_proper if proper is not None else None,
        discrepancy=discrepancy,
        verdict=verdict,
        ok=not reasons and not discrepancy,
    )
