"""Coherence deciders and the preset catalogue.

Two decision modes.  In *aspherical* mode every parallel pair of traces is
equal — the content is the parallelism check, performed modulo the structural
congruence.  In *braided* mode a trace ``t`` gets a braid invariant
``braid_of_trace(t)``: each commutativity step contributes a block crossing
of the leaf bundles it swaps, every other step contributes nothing, and two
parallel traces are equal exactly when their braids are.

The bridge between diagrams and braids is the unique decomposition of an
algebraic 2-cell into a permutation of its inputs followed by a crossing-free
part (``decompose_algebraic``): the strands of the braid are the input wires,
and a ``beta`` step at some context crosses the bundle of leaves feeding the
left wire of its redex over the bundle feeding the right wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .braid import BraidWord, block_crossing, garside_nf
from .critical import s_construction, structural_rules
from .diagram import (
    Diagram,
    GeneratorSym,
    PolyrewError,
    Signature,
    Slice,
    TAU,
    canonical_form,
    parse_diagram,
    print_diagram,
    vcomp,
)
from .rewrite import (
    DEFAULT_BUDGET,
    Polygraph,
    Rule,
    RewriteError,
    Step,
    Trace,
    compose_traces,
    normalize,
    validate_trace,
)
from .termination import Interpretation, as_interpretation, mon_interpretation


class CoherenceError(PolyrewError):
    """Raised for invalid inputs to the coherence machinery."""


# -- presets ---------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    """A named presentation together with its decision policy.

    ``expected_proper`` pins the proper-branching count the pipeline should
    flag deviations from.
    """

    name: str
    polygraph: Polygraph
    decision_mode: str  # "aspherical" | "braided"
    interp: Interpretation | None = None
    expected_proper: int | None = None

    def __post_init__(self) -> None:
        if self.decision_mode not in ("aspherical", "braided"):
            raise CoherenceError(f"bad decision mode {self.decision_mode!r}")


MU = GeneratorSym("mu", 2, 1)
ETA = GeneratorSym("eta", 0, 1)


def _mon_polygraph(name: str = "Mon") -> Polygraph:
    sig = Signature(name, (MU, ETA))
    q = lambda text: parse_diagram(text, sig)
    return Polygraph(
        sig,
        (
            Rule("alpha", q("(mu * id 1) ; mu"), q("(id 1 * mu) ; mu")),
            Rule("lambda", q("(eta * id 1) ; mu"), q("id 1")),
            Rule("rho", q("(id 1 * eta) ; mu"), q("id 1")),
        ),
    )


def _with_commutativity(base: Polygraph, name: str, with_gamma: bool) -> Polygraph:
    sig = Signature(name, base.signature.generators, is_prop=True)
    q = lambda text: parse_diagram(text, sig)
    extra = [Rule("beta", q("tau ; mu"), q("mu"), family="algebraic")]
    if with_gamma:
        extra.append(
            Rule(
                "gamma",
                q("(tau * id 1) ; (id 1 * mu) ; mu"),
                q("(id 1 * mu) ; mu"),
                family="algebraic",
            )
        )
    return Polygraph(sig, s_construction(base).rules + tuple(extra))


def _build_preset(name: str) -> Preset:
    if name == "as":
        sig = Signature("As", (MU,))
        q = lambda text: parse_diagram(text, sig)
        p = Polygraph(
            sig,
            (Rule("alpha", q("(mu * id 1) ; mu"), q("(id 1 * mu) ; mu")),),
        )
        return Preset("as", p, "aspherical", interp=as_interpretation())
    if name == "mon":
        p = _mon_polygraph()
        return Preset("mon", p, "aspherical", interp=mon_interpretation())
    if name == "perm":
        p = s_construction(Polygraph(Signature("Perm", ()), ()))
        return Preset("perm", p, "aspherical")
    if name in ("sym", "br"):
        p = _with_commutativity(
            _mon_polygraph("Sym" if name == "sym" else "Br"),
            "Sym" if name == "sym" else "Br",
            with_gamma=False,
        )
        mode = "aspherical" if name == "sym" else "braided"
        return Preset(name, p, mode)
    # ``get_preset`` has checked the name, so only sym_prime is left.
    p = _with_commutativity(_mon_polygraph("SymPrime"), "SymPrime",
                            with_gamma=True)
    return Preset("sym_prime", p, "aspherical", expected_proper=10)


PRESET_NAMES = ("as", "mon", "sym", "sym_prime", "br", "perm")


@lru_cache(maxsize=None)
def get_preset(name: str) -> Preset:
    if name not in PRESET_NAMES:
        raise CoherenceError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    return _build_preset(name)


# -- the structural congruence ---------------------------------------------


def structural_normal_form(d: Diagram, p: Polygraph) -> Diagram:
    """The canonical form of ``d``'s normal form under the structural rules.

    For a pro that is ``canonical_form(d)``.  In general it depends only on
    ``canonical_form(d)``, since ``normalize`` matches on the canonical
    subject, and is memoized on it; a ``BudgetExceededError`` is not.
    """
    return _structural_normal_form(canonical_form(d), p)


@lru_cache(maxsize=1 << 12)
def _structural_normal_form(d: Diagram, p: Polygraph) -> Diagram:
    rules = structural_rules(p)
    if not rules:
        return d
    nf, _ = normalize(d, p, DEFAULT_BUDGET, rules=rules)
    return canonical_form(nf)


def congruence_equiv(p: Polygraph):
    """2-cell equality for ``p``: ``==`` of structural normal forms, so
    modulo exchange for pros and modulo the S-rules as well for props.
    That is ``diagram_equal`` on them unless a prop with structural rules
    has a coarity-0 generator, which ``s_construction`` excludes."""
    return lambda d1, d2: (
        structural_normal_form(d1, p) == structural_normal_form(d2, p))


# -- leaf bundles and the algebraic decomposition --------------------------


def _evaluate_trees(d: Diagram):
    """Per output wire of ``d``: the expression tree it carries.

    A tree is ``(gen, children, leaves)``, where ``leaves`` lists the input
    wires under it from left to right; input wire ``i`` is
    ``(None, (), (i,))``.  The crossing permutes trees; every other
    generator must have coarity 1 and combines its argument trees into a
    node.
    """
    values = [(None, (), (i,)) for i in range(d.input_width)]
    for s in d.slices:
        args = values[s.offset: s.offset + s.gen.arity]
        if s.gen.name == "tau":
            out = [args[1], args[0]]
        elif s.gen.coarity == 1:
            leaves = tuple(x for arg in args for x in arg[2])
            out = [(s.gen, tuple(args), leaves)]
        else:
            raise CoherenceError(
                f"not an algebraic 2-cell: generator {s.gen.name} has "
                f"coarity {s.gen.coarity}"
            )
        values[s.offset: s.offset + s.gen.arity] = out
    return values


def leaf_bundles(d: Diagram) -> tuple[tuple[int, ...], ...]:
    """Per output wire of ``d``: the input strands feeding it, in
    left-to-right order.

    Seeded with singleton bundles; a coarity-1 generator concatenates its
    argument bundles (so ``eta`` emits an empty one) and ``tau`` swaps two.
    The result is invariant under exchange and under all structural S-rules,
    which is what makes the braid of a step well defined.
    """
    return tuple(t[2] for t in _evaluate_trees(d))


def perm_diagram(perm: tuple[int, ...]) -> Diagram:
    """The crossing-only 2-cell placing input ``perm[j]`` at position ``j``."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise CoherenceError(f"not a permutation: {perm}")
    arr = list(range(n))
    slices = []
    for j in range(n):
        k = arr.index(perm[j])
        for m in range(k - 1, j - 1, -1):
            arr[m], arr[m + 1] = arr[m + 1], arr[m]
            slices.append(Slice(m, TAU))
    return Diagram(n, tuple(slices))


def decompose_algebraic(d: Diagram) -> tuple[tuple[int, ...], Diagram]:
    """The unique factorization of an algebraic 2-cell into a permutation of
    its inputs followed by a crossing-free part.

    Returns ``(sigma, pure)`` where ``sigma[j]`` is the input wire arriving
    at position ``j`` of ``pure``; ``pure`` is tau-free and
    ``perm_diagram(sigma) ⋆₁ pure`` equals ``d`` modulo the structural
    congruence.
    """
    trees = _evaluate_trees(d)
    sigma = tuple(x for t in trees for x in t[2])
    # ``pure`` fires each tree's generators children first, left to right,
    # a node at the offset of its leftmost child: the reverse of a walk that
    # visits each node before its children, right to left.
    stack = [(t, j) for j, t in enumerate(trees)]
    slices = []
    while stack:
        (gen, children, _), offset = stack.pop()
        if gen is not None:
            slices.append(Slice(offset, gen))
            stack.extend((c, offset + j) for j, c in enumerate(children))
    return sigma, canonical_form(Diagram(len(sigma), slices[::-1]))


# -- the braid invariant ---------------------------------------------------


BRAIDING_RULE = "beta"


def _braid_of_redex(s: Step, source: Diagram) -> BraidWord:
    """The braid word of one step on the strands of ``source = s.source()``.

    Steps of any rule other than the commutativity cell contribute the empty
    word.  A commutativity step crosses the leaf bundle feeding the left
    wire of its redex over the bundle feeding the right wire, with the sign
    of the step's direction.
    """
    n = source.input_width
    if s.rule.name != BRAIDING_RULE:
        return BraidWord(n)
    bundles = leaf_bundles(s.context.top)
    wire = s.context.left
    left, right = bundles[wire], bundles[wire + 1]
    a, b = len(left), len(right)
    if a == 0 or b == 0:
        return BraidWord(n)
    # Positions are leaf positions of the step's source: the bottom context
    # may move the merged bundle around, but never splits or reorders it, so
    # the two swapped blocks sit consecutively in the source's leaf order.
    # A forward step removes the redex crossing, so its source reads the
    # right bundle first.
    sigma = tuple(x for bundle in leaf_bundles(source) for x in bundle)
    if s.direction == "forward":
        combined = right + left
        sign, first, second = 1, b, a
    else:
        combined = left + right
        sign, first, second = -1, a, b
    p = sigma.index(combined[0])
    if sigma[p: p + a + b] != combined:
        raise CoherenceError(
            f"redex bundles not contiguous in leaf order of "
            f"'{print_diagram(source)}'"
        )
    return block_crossing(p, first, second, sign, n)


def braid_of_trace(t: Trace, p: Polygraph | None = None,
                   chain: list[Diagram] | None = None) -> BraidWord:
    """The concatenated braid of a trace, in step order.

    ``chain`` is what ``validate_trace`` returned for ``t``, when the caller
    has already checked it.  Otherwise the boundary chain is checked here
    under the congruence of ``p``, which defaults to the ``br`` preset's
    polygraph.
    """
    if chain is None:
        if p is None:
            p = get_preset("br").polygraph
        chain = validate_trace(t, congruence_equiv(p))
    # One word from every step's letters: every step's source has the
    # trace's input width, so its word has the same strands.
    letters = []
    for s, source in zip(t.steps, chain):
        letters += _braid_of_redex(s, source).letters
    return BraidWord(t.source.input_width, letters)


# -- the deciders ----------------------------------------------------------


@dataclass(frozen=True)
class Decision:
    """A coherence decision plus its machine-readable evidence."""

    outcome: str  # "Equal" | "NotEqual" | "NotParallel"
    evidence: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"outcome": self.outcome, "evidence": dict(self.evidence)}


def decide_coherence(preset: Preset, t1: Trace, t2: Trace) -> Decision:
    """Decide whether two traces of the preset are equal 3-cells.

    ``NotParallel`` when sources or targets differ under the preset's 2-cell
    congruence.  Otherwise: aspherical mode answers ``Equal``; braided mode
    only then builds the braid invariants and compares them.
    """
    equiv = congruence_equiv(preset.polygraph)
    # Each chain ends with its trace's target, so no target is plugged again.
    chain1 = validate_trace(t1, equiv)
    chain2 = validate_trace(t2, equiv)
    target1, target2 = chain1[-1], chain2[-1]
    evidence = {
        "preset": preset.name,
        "source1": print_diagram(t1.source),
        "source2": print_diagram(t2.source),
        "target1": print_diagram(target1),
        "target2": print_diagram(target2),
    }
    if not (equiv(t1.source, t2.source) and equiv(target1, target2)):
        return Decision("NotParallel", evidence)
    if preset.decision_mode == "aspherical":
        return Decision("Equal", evidence)
    b1, b2 = braid_of_trace(t1, chain=chain1), braid_of_trace(t2, chain=chain2)
    nf1, nf2 = garside_nf(b1), garside_nf(b2)
    evidence.update(
        braid1=str(b1),
        braid2=str(b2),
        garside1=str(nf1),
        garside2=str(nf2),
    )
    return Decision("Equal" if nf1 == nf2 else "NotEqual", evidence)


def initial_algebra_compose(a1: Trace, a2: Trace,
                            preset: Preset | None = None) -> Trace:
    """The aligned ⋆₂ composite: boundaries matched under the structural
    congruence, braids concatenated."""
    if preset is None:
        preset = get_preset("br")
    try:
        return compose_traces(a1, a2, congruence_equiv(preset.polygraph))
    except RewriteError as exc:
        raise CoherenceError(f"misaligned composite: {exc}") from exc


def whisker_top(t: Trace, top: Diagram) -> Trace:
    """The trace ``top ⋆₁ t``: every step pushed under the extra 2-cell."""
    from .rewrite import Context

    if top.output_width != t.source.input_width:
        raise CoherenceError(
            f"whisker width mismatch: {top.output_width} vs "
            f"{t.source.input_width}"
        )
    steps = []
    for s in t.steps:
        c = s.context
        steps.append(
            Step(s.rule, s.direction,
                 Context(vcomp(top, c.top), c.left, c.right, c.bottom))
        )
    return Trace(vcomp(top, t.source), tuple(steps))
