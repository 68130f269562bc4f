"""Rules, matching, rewriting steps, normalization, and traces.

A :class:`Rule` is a generating 3-cell ``lhs => rhs`` between parallel
diagrams; a :class:`Polygraph` bundles a signature with an ordered rule list.
A :class:`Step` is a whiskered application of a rule (or of its inverse) in a
one-hole :class:`Context`, and a :class:`Trace` — a source diagram plus a
sequence of steps — represents a 3-cell of the free track 3-category.

Matching works modulo exchange.  Each pattern is first tested against the
subject's *wire kinds*: its generator names, and which output port of which
generator feeds which input port of which.  Exchange keeps those, so a
pattern with a kind the subject lacks cannot match and is skipped.  The
subject's kinds and components are read off ``_ports``.  When every
pattern left is closed (connected, with no pass-through wire) and no slice
has coarity 0, each match is a convex, wire-connected set of slices, so a
walk along wires from one slice lists the matches that hold it.  One
cached layout per pattern tuple holds each pattern's canonical form, kinds
and closedness; the walk decides the coarity condition.  A subject of more
than one component is matched that way, so generators beside a redex cost
no orders, and critical-pair enumeration settles its candidates that way.
The fallback is the exchange closure: it is enumerated once, and every
pattern's canonical slice sequence is looked up in each member as a
consecutive window under a uniform offset shift, so one pass serves all the
rules of a polygraph.  It is exponential in the number of commuting slices,
but complete.  Either way, a match builds its context only when read.

Normalization applies the first match of the first applicable rule in
declaration order.  Matches are ordered by their occurrence sets in canonical
slice numbering, so "first" means the leftmost-uppermost redex; this strategy
choice makes completions and homotopy bases reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable

from .diagram import (
    Diagram,
    GeneratorSym,
    PolyrewError,
    Signature,
    _lex_min,
    _ports,
    canonical_form,
    diagram_equal,
    exchange_closure_with_ids,
    parse_diagram,
    print_diagram,
    vcomp,
)


class RewriteError(PolyrewError):
    """Base for rewriting errors."""


class BudgetExceededError(RewriteError):
    """Normalization ran out of budget; carries the partial trace."""

    def __init__(self, message: str, partial: "Trace"):
        super().__init__(message)
        self.partial = partial


FAMILIES = ("algebraic", "symmetry", "yang_baxter", "naturality")


def _check_name(name: object, kind: str) -> None:
    """Require one ``\\w+`` word, the name token the file formats read back."""
    if type(name) is not str or not re.fullmatch(r"\w+", name):
        raise RewriteError(f"{name!r} is not a {kind} name the file formats read")


@dataclass(frozen=True)
class Rule:
    """A 3-cell ``name : lhs => rhs`` between parallel 2-cells."""

    name: str
    lhs: Diagram
    rhs: Diagram
    family: str = "algebraic"

    def __post_init__(self) -> None:
        _check_name(self.name, "rule")
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
        # the signature and each rule hash in a Python frame of their own
        # (a rule's diagrams add two more).
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


@dataclass(frozen=True, eq=False)
class Match:
    """A found occurrence of a pattern: the matched slots, and its context.

    ``occurrences`` are indices into the canonical form of the subject
    diagram, identifying which generator occurrences the pattern covers; they
    are what branching enumeration overlaps on.  ``pattern`` is the index of
    the matched pattern among those given to :func:`find_matches`.

    The :attr:`context` is built on first read, by ``frame``, since most
    callers read few (``normalize`` only the first match's).  Two matches
    are equal when their pattern, occurrences and context are, whichever
    way :func:`find_matches` found them.
    """

    occurrences: frozenset[int]
    pattern: int
    frame: Callable[[], Context] = field(repr=False)

    @cached_property
    def context(self) -> Context:
        return self.frame()

    def __eq__(self, other):
        if not isinstance(other, Match):
            return NotImplemented
        return ((self.pattern, self.occurrences, self.context)
                == (other.pattern, other.occurrences, other.context))

    def __hash__(self):
        return hash((self.pattern, self.occurrences))

    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.occurrences))


def _kinds(d: Diagram, feeds) -> set:
    """The wire kinds of ``d``, read off its ``feeds`` (:func:`_ports`): its
    generator names, plus ``(g, p, h, q)`` for each inner wire from output
    ``p`` of a ``g`` to input ``q`` of an ``h``."""
    names = [s.gen.name for s in d.slices]
    kinds = set(names)
    for i, ins in enumerate(feeds):
        for q, w in enumerate(ins):
            if w is not None:
                kinds.add((names[w[0]], w[1], names[i], q))
    return kinds


def _connected(feeds, consumers) -> bool:
    """Whether the slices with these ``feeds`` and ``consumers``
    (:func:`_ports`) are one wire-connected component."""
    order = [0] if feeds else []
    reached = set(order)
    for a in order:  # grows as the walk reaches slices
        for w in feeds[a] + consumers[a]:
            if w is not None and w[0] not in reached:
                reached.add(w[0])
                order.append(w[0])
    return 0 < len(order) == len(feeds)


@lru_cache(maxsize=1 << 8)
def _pattern_slots(*patterns: Diagram) -> tuple[tuple, dict]:
    """``(forms, slots)``, built once per tuple of ``patterns``: each
    pattern's canonical form, wire kinds (:func:`_kinds`) and whether it is
    closed (a slice feeds each output wire, and the slices are one
    wire-connected component, :func:`_connected`, so a walk from one reaches
    all); and where each generator sits in the closed ones, for the walk.

    A slot is ``(pattern index, slice, steps, checks, outputs)``: the
    pattern's wires (:func:`_ports`) walked breadth first from that slice.
    A step ``(a, down, port, u, uport, gen)`` reaches slice ``u``, a
    ``gen``, at its port ``uport`` from ``port`` of slice ``a``, down to a
    consumer or up to a feed; a check ``(a, down, port, u, uport)`` is a
    wire no step took.  ``outputs`` are the ``(slice, port)`` pairs that
    feed the output wires of the pattern, in wire order.
    """
    forms, slots = [], {}
    for n, pattern in enumerate(patterns):
        canon = canonical_form(pattern)
        gens = [s.gen for s in canon.slices]
        feeds, consumers, outputs = _ports(canon)
        closed = None not in outputs and _connected(feeds, consumers)
        forms.append((canon, frozenset(_kinds(canon, feeds)), closed))
        for t, g in enumerate(gens if closed else ()):
            steps, checks, order, taken = [], [], [t], set()
            for a in order:  # grows as the walk reaches slices
                for down, links in ((False, feeds[a]), (True, consumers[a])):
                    for port, w in enumerate(links):
                        if w is None:
                            continue
                        # A wire is named by the output that feeds it.
                        wire = (a, port) if down else w
                        if wire in taken:
                            continue
                        taken.add(wire)
                        u, uport = w
                        if u in order:
                            checks.append((a, down, port, u, uport))
                        else:
                            order.append(u)
                            steps.append((a, down, port, u, uport, gens[u]))
            slots.setdefault(g, []).append((n, t, steps, checks, outputs))
    return tuple(forms), slots


def _match_walk(d: Diagram, slots: dict | None):
    """A walk along the wires of ``d`` that maps, for a slice of ``d``, the
    ``(pattern index, occurrence set)`` pair of each match that holds it,
    of the closed patterns laid out in ``slots`` (:func:`_pattern_slots`),
    to the match's window: its occurrences, indices into ``d.slices``, in
    the order of the pattern's canonical slices.  ``None`` where it does not
    apply: ``slots`` is None, or a slice of ``d`` has coarity 0, with which
    exchange is not symmetric.  Otherwise each match is a convex,
    wire-connected set of slices of ``d``, so a walk along wires finds it.

    It reads each slice's feeds and consumers once (:func:`_ports`).  From
    the anchor, set on each pattern slice of its generator in turn, the
    walk follows the pattern's inner wires, each to the same port of the
    same generator; most slots fail at the first wire, which leaves the
    anchor, and are dropped there.  It accepts the image when it is
    one-to-one, no boundary output wire of the pattern comes back into it,
    and no path leaves it and returns (it is convex).  Each of the last two
    tests is made where its wire is followed, so neither covers for the
    other.  Such an image is a window of some exchange representative, so
    the pairs are those of :func:`find_matches` on ``d``'s canonical form,
    renumbered.
    """
    if slots is None or not all(s.gen.coarity for s in d.slices):
        return None
    gens = [s.gen for s in d.slices]
    feeds, consumers, _ = _ports(d)

    def image(t, x, steps, checks, outputs):
        """The slice of ``d`` that each pattern slice reaches along wires
        from pattern slice ``t`` on slice ``x``, or None."""
        to = [x] * (len(steps) + 1)  # the walk reaches every pattern slice
        for a, down, port, u, uport, g in steps:
            w = (consumers if down else feeds)[to[a]][port]
            if w is None or w[1] != uport or gens[w[0]] is not g:
                return None
            to[u] = w[0]
        for a, down, port, u, uport in checks:
            if (consumers if down else feeds)[to[a]][port] != (to[u], uport):
                return None
        occ = set(to)
        if len(occ) < len(to):
            return None
        out = []  # slices outside the image that its outputs feed
        for a, p in outputs:
            w = consumers[to[a]][p]
            if w is not None:
                if w[0] in occ:
                    return None
                out.append(w[0])
        # A path that returns passes only slices above the image's last.
        last, seen = max(occ), set()
        while out:
            y = out.pop()
            if y < last and y not in seen:
                seen.add(y)
                for w in consumers[y]:
                    if w is not None:
                        if w[0] in occ:
                            return None
                        out.append(w[0])
        return to

    def walk(anchor: int) -> dict[tuple[int, frozenset[int]], tuple]:
        found = {}
        for n, t, steps, checks, outputs in slots.get(gens[anchor], ()):
            if steps:
                # The first step leaves the anchor: most slots end there.
                _, down, port, _, uport, g = steps[0]
                w = (consumers if down else feeds)[anchor][port]
                if w is None or w[1] != uport or gens[w[0]] is not g:
                    continue
            to = image(t, anchor, steps, checks, outputs)
            if to is not None:
                found.setdefault((n, frozenset(to)), tuple(to))
        return found

    return walk


def _windows(members, width: int, pats):
    """``(pattern index, pattern, slices, ids, start)`` for each window of
    each exchange closure member ``(slices, ids)`` of a diagram of input
    width ``width`` that equals the canonical slices of one of ``pats``,
    ``(index, canonical pattern)`` pairs, under a uniform offset shift with
    room for the pattern's wires; ``ids`` are the window's."""
    for slices, ids in members:
        widths = None
        for n, pat in pats:
            ps = pat.slices
            k = len(ps)
            first = ps[0]
            for i in range(len(slices) - k + 1):
                # Most windows differ from the pattern in their first name.
                if slices[i].gen.name != first.gen.name:
                    continue
                shift = slices[i].offset - first.offset
                if shift < 0 or any(
                    slices[i + j].gen != ps[j].gen
                    or slices[i + j].offset != ps[j].offset + shift
                    for j in range(k)
                ):
                    continue
                if widths is None:
                    widths = [width]
                    for s in slices:
                        widths.append(widths[-1] - s.gen.arity + s.gen.coarity)
                if widths[i] - shift - pat.input_width >= 0:
                    yield n, pat, slices, ids[i: i + k], i


def _context(slices, width: int, at: int, pat: Diagram) -> Context:
    """The context of ``pat``'s window at ``at`` in ``slices``, a sequence
    of input width ``width``."""
    top = Diagram(width, slices[:at])
    w = top.output_width
    shift = slices[at].offset - pat.slices[0].offset
    return Context(
        top, shift, w - shift - pat.input_width,
        Diagram(w - pat.input_width + pat.output_width,
                slices[at + len(pat.slices):]),
    )


def _window_context(subject: Diagram, window: tuple[int, ...],
                    pat: Diagram) -> Context:
    """The context of ``pat``'s window at the positions ``window`` of
    ``subject``, a canonical form, in the least member of its exchange class
    that has it: ``subject`` itself when the window is already in place.
    Precondition, :func:`_lex_min`'s for a window: ``pat`` is closed and no
    slice of ``subject`` has coarity 0, as :func:`_match_walk` ensures."""
    at, slices = window[0], subject.slices
    if window != tuple(range(at, at + len(window))):
        entries = _lex_min(subject, window)
        slices = tuple(s for s, _ in entries)
        at = [x for _, x in entries].index(at)
    return _context(slices, subject.input_width, at, pat)


def find_matches(d: Diagram, *patterns: Diagram) -> list[Match]:
    """Every occurrence of each of ``patterns`` in ``d`` modulo exchange.

    Deduplicated by pattern and matched-occurrence set; ordered by pattern,
    then by occurrence positions in the canonical slice numbering of ``d``
    (leftmost-uppermost first).  No patterns, no matches.  Each match's
    context is the prefix and suffix of the lexicographically least
    exchange representative of ``d`` in which its occurrences form the
    pattern's canonical slices.

    A pattern whose wire kinds (:func:`_kinds`) are not all kinds of ``d``
    is skipped, and if every pattern is, ``d`` is not even canonicalized:
    both are read off ``d``'s own wiring (:func:`_ports`).  That is
    sound: exchange moves slices past others they share no wire with, so it
    keeps which output port feeds which input port and every closure member
    has ``d``'s kinds; and a window equal to a pattern has that pattern's
    kinds.

    When ``d`` has more than one wire-connected component, every pattern
    left is closed (read off the one layout of ``patterns``,
    :func:`_pattern_slots`) and no slice of ``d`` has coarity 0, a walk
    along the wires of ``d``'s canonical form from every slice finds the
    matches (:func:`_match_walk`; a skipped pattern finds none) with no
    closure, so bystanders in other components cost no orders; a match's
    context is then built by the window-constrained :func:`_lex_min`.  The
    exchange closure is the fallback: any other subject is matched on it,
    one pass serving every pattern left, and a context is read off the
    first member, in closure order, that holds the match.
    """
    if any(len(pattern) < 1 for pattern in patterns):
        raise RewriteError("pattern must contain at least one generator")
    feeds, consumers, _ = _ports(d)
    kinds = _kinds(d, feeds)
    forms, slots = _pattern_slots(*patterns)
    live = [n for n, (_, needs, _) in enumerate(forms) if needs <= kinds]
    if not live:
        return []
    subject = canonical_form(d)
    found: dict[tuple[int, frozenset[int]], Match] = {}
    walk = None
    if not _connected(feeds, consumers) and all(forms[n][2] for n in live):
        walk = _match_walk(subject, slots)
    if walk is not None:
        for anchor in range(len(subject)):
            for (n, occ), window in walk(anchor).items():
                if (n, occ) not in found:
                    found[n, occ] = Match(occ, n, partial(
                        _window_context, subject, window, forms[n][0]))
    else:
        for n, pat, slices, ids, i in _windows(
                exchange_closure_with_ids(subject), subject.input_width,
                [(n, forms[n][0]) for n in live]):
            occ = frozenset(ids)
            if (n, occ) not in found:
                found[n, occ] = Match(occ, n, partial(
                    _context, slices, subject.input_width, i, pat))
    matches = list(found.values())
    matches.sort(key=lambda m: (m.pattern, m.key()))
    return matches


@dataclass(frozen=True)
class Step:
    """One directed, whiskered rule application.

    :meth:`source` and :meth:`target` plug the context once each and keep
    the result on the instance, outside the fields, so ``==``, ``hash``
    and ``repr`` read the rule, direction and context alone.  A failed
    plug is not kept.
    """

    rule: Rule
    direction: str  # "forward" | "backward"
    context: Context

    def __post_init__(self) -> None:
        if self.direction not in ("forward", "backward"):
            raise RewriteError(f"bad step direction {self.direction!r}")

    def source(self) -> Diagram:
        # Kept in ``__dict__`` as ``Polygraph.__hash__`` keeps its hash:
        # a ``cached_property`` takes a lock on every read before 3.12.
        d = self.__dict__.get("_source")
        if d is None:
            d = self.context.plug(self.rule.side(self.direction))
            object.__setattr__(self, "_source", d)
        return d

    def target(self) -> Diagram:
        d = self.__dict__.get("_target")
        if d is None:
            d = self.context.plug(self.rule.other_side(self.direction))
            object.__setattr__(self, "_target", d)
        return d

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
    ``rule <name> [<family>] : <expr> => <expr>`` (the family optional,
    ``algebraic`` when absent), ``#`` comments.
    """
    is_prop = False
    gens: list[GeneratorSym] = []
    rule_lines: list[tuple[str, str | None, str, str]] = []
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
        m = re.fullmatch(r"rule\s+(\w+)\s*(?:\[(\w+)\]\s*)?:\s*(.*?)\s*=>\s*(.*)", line)
        if m:
            rule_lines.append(m.groups())
            continue
        raise RewriteError(f"cannot parse polygraph line {lineno}: {raw!r}")
    sig = Signature(name, tuple(g for g in gens if not is_prop or g.name != "tau"),
                    is_prop=is_prop)
    rules = tuple(
        Rule(rname, parse_diagram(lhs, sig), parse_diagram(rhs, sig),
             family or "algebraic")
        for rname, family, lhs, rhs in rule_lines
    )
    return Polygraph(sig, rules)


def print_polygraph(p: Polygraph) -> str:
    lines = []
    if p.signature.is_prop:
        lines.append("prop")
    for g in p.signature.generators:
        lines.append(f"gen {g.name} : {g.arity} -> {g.coarity}")
    for r in p.rules:
        family = "" if r.family == "algebraic" else f" [{r.family}]"
        lines.append(f"rule {r.name}{family} : "
                     f"{print_diagram(r.lhs)} => {print_diagram(r.rhs)}")
    return "\n".join(lines) + "\n"


_HEADER_RE = re.compile(r"trace\s+(\w+)\s+on\s+(.*)")
_STEP_RE = re.compile(
    r"step\s+(\w+)\s+([+-])\s+top=(.*?)\s+left=(\d+)\s+right=(\d+)\s+bot=(.*)"
)


@lru_cache(maxsize=1 << 12)
def _trace_expr(text: str, p: Polygraph) -> Diagram:
    """The diagram of one expression text of a trace file over ``p``."""
    return parse_diagram(text, p.signature)


@lru_cache(maxsize=1 << 12)
def _trace_step(line: str, p: Polygraph) -> Step:
    """The step of one stripped step line of a trace file over ``p``."""
    rule, sign, top, left, right, bot = _STEP_RE.fullmatch(line).groups()
    rule = p.rule(rule)
    direction = "forward" if sign == "+" else "backward"
    ctx = Context(_trace_expr(top, p), int(left), int(right), _trace_expr(bot, p))
    return Step(rule, direction, ctx)


def parse_trace(text: str, p: Polygraph) -> Trace:
    """Parse the trace file format over polygraph ``p``.

    Header ``trace <name> on <expr>``; body lines
    ``step <rule> <+|-> top=<expr> left=<nat> right=<nat> bot=<expr>``.
    Each distinct expression text and each distinct step line is parsed
    once per process and polygraph, in two bounded memos: the traces of a
    ``decide`` share the (immutable) ``Diagram`` and ``Step`` objects of
    their common lines, and so the boundaries each step has plugged.  An
    error is never memoized: a bad line raises again wherever it appears,
    and an error that names a line names the one it is on.
    """
    source: Diagram | None = None
    steps: list[Step] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _HEADER_RE.fullmatch(line)
        if m:
            if source is not None:
                raise RewriteError(f"line {lineno}: duplicate trace header")
            source = _trace_expr(m.group(2), p)
            continue
        if _STEP_RE.fullmatch(line):
            if source is None:
                raise RewriteError(f"line {lineno}: step before trace header")
            steps.append(_trace_step(line, p))
            continue
        raise RewriteError(f"cannot parse trace line {lineno}: {raw!r}")
    if source is None:
        raise RewriteError("trace file has no 'trace ... on ...' header")
    return Trace(source, tuple(steps))


def print_trace(t: Trace, name: str = "t") -> str:
    _check_name(name, "trace")
    lines = [f"trace {name} on {print_diagram(t.source)}"]
    for s in t.steps:
        sign = "+" if s.direction == "forward" else "-"
        lines.append(
            f"step {s.rule.name} {sign} top={print_diagram(s.context.top)} "
            f"left={s.context.left} right={s.context.right} "
            f"bot={print_diagram(s.context.bottom)}"
        )
    return "\n".join(lines) + "\n"
