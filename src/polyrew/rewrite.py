"""Rules, matching, rewriting steps, normalization, and traces.

A :class:`Rule` is a generating 3-cell ``lhs => rhs`` between parallel
diagrams; a :class:`Polygraph` bundles a signature with an ordered rule list.
A :class:`Step` is a whiskered application of a rule (or of its inverse) in a
one-hole :class:`Context`, and a :class:`Trace` — a source diagram plus a
sequence of steps — represents a 3-cell of the free track 3-category.

Matching works modulo exchange: the closure of the subject diagram is
enumerated once, and every pattern's canonical slice sequence is looked up
in each member as a consecutive window under a uniform offset shift, so one
closure pass serves all the rules of a polygraph.  This is exponential in the
number of commuting slices but complete, which is what the critical-pair
machinery needs; diagrams in scope stay small.  Before the closure is built,
each pattern is tested against the subject's *wire kinds*: its generator
names, and which output port of which generator feeds which input port of
which.  Exchange keeps those, so a pattern with a kind the subject lacks
cannot match and is skipped; when every pattern is skipped, no closure is
built.  A match builds its context only when it is read.

Normalization applies the first match of the first applicable rule in
declaration order.  Matches are ordered by their occurrence sets in canonical
slice numbering, so "first" means the leftmost-uppermost redex; this strategy
choice makes completions and homotopy bases reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .diagram import (
    Diagram,
    GeneratorSym,
    Signature,
    Slice,
    canonical_form,
    diagram_equal,
    exchange_closure_with_ids,
    identity,
    parse_diagram,
    print_diagram,
    vcomp,
)


class RewriteError(Exception):
    """Base for rewriting errors."""


class BudgetExceededError(RewriteError):
    """Normalization ran out of budget; carries the partial trace."""

    def __init__(self, message: str, partial: "Trace"):
        super().__init__(message)
        self.partial = partial


FAMILIES = ("algebraic", "symmetry", "yang_baxter", "naturality")


@dataclass(frozen=True)
class Rule:
    """A 3-cell ``name : lhs => rhs`` between parallel 2-cells."""

    name: str
    lhs: Diagram
    rhs: Diagram
    family: str = "algebraic"

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise RewriteError(f"unknown rule family {self.family!r}")
        if self.lhs.input_width != self.rhs.input_width:
            raise RewriteError(f"rule {self.name}: input widths differ")
        if self.lhs.output_width != self.rhs.output_width:
            raise RewriteError(f"rule {self.name}: output widths differ")
        if len(self.lhs) < 1:
            raise RewriteError(f"rule {self.name}: lhs must contain a generator")

    def side(self, direction: str) -> Diagram:
        return self.lhs if direction == "forward" else self.rhs

    def other_side(self, direction: str) -> Diagram:
        return self.rhs if direction == "forward" else self.lhs


@dataclass(frozen=True)
class Polygraph:
    """A 3-polygraph: signature plus ordered rewriting rules."""

    signature: Signature
    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        names = [r.name for r in self.rules]
        if len(set(names)) != len(names):
            raise RewriteError("duplicate rule names")
        for r in self.rules:
            for d in (r.lhs, r.rhs):
                for s in d.slices:
                    if not self.signature.has(s.gen.name):
                        raise RewriteError(
                            f"rule {r.name} uses generator {s.gen.name!r} "
                            f"outside signature {self.signature.name!r}"
                        )

    def __hash__(self) -> int:
        # Cached: memos keyed on a polygraph hash it on every lookup, and
        # the rules' diagrams hash recursively.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.signature, self.rules))
            object.__setattr__(self, "_hash", h)
        return h

    def rule(self, name: str) -> Rule:
        for r in self.rules:
            if r.name == name:
                return r
        raise RewriteError(f"unknown rule {name!r}")

    def rules_of_family(self, *families: str) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.family in families)


@dataclass(frozen=True)
class Context:
    """A one-hole context: top diagram, left/right whiskers, bottom diagram."""

    top: Diagram
    left: int
    right: int
    bottom: Diagram

    def __post_init__(self) -> None:
        if self.left < 0 or self.right < 0:
            raise RewriteError("context whiskers must be naturals")

    def plug(self, pattern: Diagram) -> Diagram:
        """Reconstitute the whole diagram with ``pattern`` in the hole."""
        if self.top.output_width != self.left + pattern.input_width + self.right:
            raise RewriteError(
                f"context top width {self.top.output_width} does not frame "
                f"pattern width {pattern.input_width} with whiskers "
                f"({self.left}, {self.right})"
            )
        # The pattern whiskered by ``left`` and ``right`` identity wires.
        shifted = (tuple(s.shifted(self.left) for s in pattern.slices)
                   if self.left else pattern.slices)
        middle = Diagram(self.top.output_width, shifted)
        return vcomp(self.top, middle, self.bottom)


def identity_context(pattern: Diagram) -> Context:
    return Context(
        identity(pattern.input_width), 0, 0, identity(pattern.output_width)
    )


@dataclass(frozen=True)
class Match:
    """A found occurrence of a pattern: the matched slots, and its context.

    ``occurrences`` are indices into the canonical form of the subject
    diagram, identifying which generator occurrences the pattern covers; they
    are what branching enumeration overlaps on.  ``pattern`` is the index of
    the matched pattern among those given to :func:`find_matches`.

    The :attr:`context` is built on first read, since most callers read few
    (``normalize`` only the first match's): the match keeps the closure
    ``member`` it was found in, the subject's ``input_width``, the window's
    start ``at``, the whiskers ``left`` and ``right``, and the width
    ``bottom_width`` below the hole.
    """

    occurrences: frozenset[int]
    pattern: int
    member: tuple[Slice, ...] = field(repr=False)
    input_width: int = field(repr=False)
    at: int = field(repr=False)
    left: int = field(repr=False)
    right: int = field(repr=False)
    bottom_width: int = field(repr=False)

    @cached_property
    def context(self) -> Context:
        end = self.at + len(self.occurrences)
        return Context(
            Diagram(self.input_width, self.member[:self.at]),
            self.left,
            self.right,
            Diagram(self.bottom_width, self.member[end:]),
        )

    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.occurrences))


def _wire_kinds(d: Diagram) -> frozenset:
    """The generator names of ``d``, plus ``(g, p, h, q)`` for each inner
    wire from output ``p`` of a ``g`` to input ``q`` of an ``h``."""
    kinds = set()
    wires = [None] * d.input_width  # per wire, the output that feeds it
    for s in d.slices:
        g, o = s.gen, s.offset
        kinds.add(g.name)
        for q in range(g.arity):
            if wires[o + q] is not None:
                kinds.add(wires[o + q] + (g.name, q))
        wires[o: o + g.arity] = [(g.name, p) for p in range(g.coarity)]
    return frozenset(kinds)


@lru_cache(maxsize=1 << 12)
def _pattern_form(pattern: Diagram) -> tuple[Diagram, frozenset]:
    """A pattern's canonical form and wire kinds, built once per pattern."""
    return canonical_form(pattern), _wire_kinds(pattern)


def find_matches(d: Diagram, *patterns: Diagram) -> list[Match]:
    """Every occurrence of each of ``patterns`` in ``d`` modulo exchange.

    One pass over the exchange closure of ``d`` serves every pattern.
    Deduplicated by pattern and matched-occurrence set; ordered by pattern,
    then by occurrence positions in the canonical slice numbering of ``d``
    (leftmost-uppermost first).  No patterns, no matches.

    A pattern whose wire kinds (:func:`_wire_kinds`) are not all kinds of
    ``d`` is skipped, and if every pattern is, the closure is not built.
    That is sound: exchange moves slices past others they share no wire
    with, so it keeps which output port feeds which input port and every
    closure member has ``d``'s kinds; and a window equal to a pattern has
    that pattern's kinds.
    """
    if any(len(pattern) < 1 for pattern in patterns):
        raise RewriteError("pattern must contain at least one generator")
    kinds = _wire_kinds(d)
    pats = []
    for n, pattern in enumerate(patterns):
        canon, needs = _pattern_form(pattern)
        if needs <= kinds:
            pats.append((n, canon))
    if not pats:
        return []
    subject = canonical_form(d)
    found: dict[tuple[int, frozenset[int]], Match] = {}
    for slices, ids in exchange_closure_with_ids(subject):
        widths = [subject.input_width]
        for s in slices:
            widths.append(widths[-1] - s.gen.arity + s.gen.coarity)
        for n, pat in pats:
            k = len(pat)
            for i in range(len(slices) - k + 1):
                shift = slices[i].offset - pat.slices[0].offset
                if shift < 0:
                    continue
                if any(
                    slices[i + j].gen != pat.slices[j].gen
                    or slices[i + j].offset != pat.slices[j].offset + shift
                    for j in range(k)
                ):
                    continue
                right = widths[i] - shift - pat.input_width
                if right < 0:
                    continue
                occ = frozenset(ids[i: i + k])
                if (n, occ) not in found:
                    found[n, occ] = Match(
                        occ, n, slices, subject.input_width, i, shift, right,
                        widths[i] - pat.input_width + pat.output_width,
                    )
    matches = list(found.values())
    matches.sort(key=lambda m: (m.pattern, m.key()))
    return matches


@dataclass(frozen=True)
class Step:
    """One directed, whiskered rule application."""

    rule: Rule
    direction: str  # "forward" | "backward"
    context: Context

    def __post_init__(self) -> None:
        if self.direction not in ("forward", "backward"):
            raise RewriteError(f"bad step direction {self.direction!r}")

    def source(self) -> Diagram:
        return self.context.plug(self.rule.side(self.direction))

    def target(self) -> Diagram:
        return self.context.plug(self.rule.other_side(self.direction))

    def inverse(self) -> "Step":
        flipped = "backward" if self.direction == "forward" else "forward"
        return Step(self.rule, flipped, self.context)


@dataclass(frozen=True)
class Trace:
    """A 3-cell of the free track 3-category: a source plus directed steps."""

    source: Diagram
    steps: tuple[Step, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    def target(self) -> Diagram:
        return self.steps[-1].target() if self.steps else self.source


def validate_trace(t: Trace, equiv=diagram_equal) -> list[Diagram]:
    """Check the boundary chain of ``t`` under the 2-cell congruence
    ``equiv``; return each step's source followed by the trace's target, so
    callers need not plug them again."""
    current = t.source
    chain = []
    for i, s in enumerate(t.steps):
        source = s.source()
        if not equiv(source, current):
            raise RewriteError(
                f"invalid trace: step {i} ({s.rule.name} {s.direction}) expects "
                f"'{print_diagram(source)}' but the current 2-cell is "
                f"'{print_diagram(current)}'"
            )
        chain.append(source)
        current = s.target()
    chain.append(current)
    return chain


def compose_traces(t1: Trace, t2: Trace, equiv=diagram_equal) -> Trace:
    """The ⋆₂ composite; targets and sources must agree under ``equiv``."""
    if not equiv(t1.target(), t2.source):
        raise RewriteError(
            f"trace composition mismatch: '{print_diagram(t1.target())}' vs "
            f"'{print_diagram(t2.source)}'"
        )
    return Trace(t1.source, t1.steps + t2.steps)


def invert_trace(t: Trace) -> Trace:
    """The inverse 3-cell: reversed step order, flipped directions."""
    return Trace(t.target(), tuple(s.inverse() for s in reversed(t.steps)))


def parallel(t1: Trace, t2: Trace, equiv=diagram_equal) -> bool:
    """Whether the two traces form a 3-sphere (equal sources and targets)."""
    return equiv(t1.source, t2.source) and equiv(t1.target(), t2.target())


DEFAULT_BUDGET = 10_000


def normalize(
    d: Diagram, p: Polygraph, budget: int = DEFAULT_BUDGET, rules: tuple[Rule, ...] | None = None
) -> tuple[Diagram, Trace]:
    """Rewrite ``d`` to a normal form under ``p``'s rules.

    Strategy: rules in declaration order, leftmost-uppermost match first.
    Returns the normal form and the witnessing forward trace.  Raises
    :class:`BudgetExceededError` (carrying the partial trace) if more than
    ``budget`` steps are needed — the diagnosable stand-in for
    nontermination.
    """
    if rules is None:
        rules = p.rules
    lhss = [rule.lhs for rule in rules]
    current = d
    steps: list[Step] = []
    while True:
        ms = find_matches(current, *lhss)
        if not ms:
            return current, Trace(d, tuple(steps))
        if len(steps) >= budget:
            raise BudgetExceededError(
                f"normalization exceeded budget of {budget} steps "
                f"(nontermination suspected)",
                Trace(d, tuple(steps)),
            )
        chosen = Step(rules[ms[0].pattern], "forward", ms[0].context)
        steps.append(chosen)
        current = chosen.target()


# -- file formats ---------------------------------------------------------


def parse_polygraph(text: str, name: str = "polygraph") -> Polygraph:
    """Parse the line-oriented polygraph format.

    ``prop`` (optional), ``gen <name> : <arity> -> <coarity>``,
    ``rule <name> : <expr> => <expr>``, ``#`` comments.
    """
    is_prop = False
    gens: list[GeneratorSym] = []
    rule_lines: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "prop":
            is_prop = True
            continue
        m = re.fullmatch(r"gen\s+(\w+)\s*:\s*(\d+)\s*->\s*(\d+)", line)
        if m:
            gens.append(GeneratorSym(m.group(1), int(m.group(2)), int(m.group(3))))
            continue
        m = re.fullmatch(r"rule\s+(\w+)\s*:\s*(.*?)\s*=>\s*(.*)", line)
        if m:
            rule_lines.append((m.group(1), m.group(2), m.group(3)))
            continue
        raise RewriteError(f"cannot parse polygraph line {lineno}: {raw!r}")
    sig = Signature(name, tuple(g for g in gens if g.name != "tau"), is_prop=is_prop)
    rules = tuple(
        Rule(rname, parse_diagram(lhs, sig), parse_diagram(rhs, sig))
        for rname, lhs, rhs in rule_lines
    )
    return Polygraph(sig, rules)


def print_polygraph(p: Polygraph) -> str:
    lines = []
    if p.signature.is_prop:
        lines.append("prop")
    for g in p.signature.generators:
        lines.append(f"gen {g.name} : {g.arity} -> {g.coarity}")
    for r in p.rules:
        lines.append(f"rule {r.name} : {print_diagram(r.lhs)} => {print_diagram(r.rhs)}")
    return "\n".join(lines) + "\n"


_STEP_RE = re.compile(
    r"step\s+(\w+)\s+([+-])\s+top=(.*?)\s+left=(\d+)\s+right=(\d+)\s+bot=(.*)"
)


def parse_trace(text: str, p: Polygraph) -> Trace:
    """Parse the trace file format over polygraph ``p``.

    Header ``trace <name> on <expr>``; body lines
    ``step <rule> <+|-> top=<expr> left=<nat> right=<nat> bot=<expr>``.
    Each distinct expression text is parsed once per call; its repeats
    share the one (immutable) ``Diagram``.
    """
    source: Diagram | None = None
    steps: list[Step] = []
    parsed: dict[str, Diagram] = {}

    def parse(expr: str) -> Diagram:
        d = parsed.get(expr)
        if d is None:
            d = parsed[expr] = parse_diagram(expr, p.signature)
        return d

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"trace\s+(\w+)\s+on\s+(.*)", line)
        if m:
            if source is not None:
                raise RewriteError(f"line {lineno}: duplicate trace header")
            source = parse(m.group(2))
            continue
        m = _STEP_RE.fullmatch(line)
        if m:
            if source is None:
                raise RewriteError(f"line {lineno}: step before trace header")
            rule = p.rule(m.group(1))
            direction = "forward" if m.group(2) == "+" else "backward"
            ctx = Context(
                parse(m.group(3)), int(m.group(4)), int(m.group(5)), parse(m.group(6))
            )
            steps.append(Step(rule, direction, ctx))
            continue
        raise RewriteError(f"cannot parse trace line {lineno}: {raw!r}")
    if source is None:
        raise RewriteError("trace file has no 'trace ... on ...' header")
    return Trace(source, tuple(steps))


def print_trace(t: Trace, name: str = "t") -> str:
    lines = [f"trace {name} on {print_diagram(t.source)}"]
    for s in t.steps:
        sign = "+" if s.direction == "forward" else "-"
        lines.append(
            f"step {s.rule.name} {sign} top={print_diagram(s.context.top)} "
            f"left={s.context.left} right={s.context.right} "
            f"bot={print_diagram(s.context.bottom)}"
        )
    return "\n".join(lines) + "\n"
