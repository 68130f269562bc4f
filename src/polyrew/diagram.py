"""String diagrams for free 2-pros: slices, composition, exchange and equality.

A 2-cell of the free 2-category over a one-wire signature is stored as an
``input_width`` together with an ordered list of *slices*.  Each slice is a
single generator whiskered by identity wires: ``id_offset *0 g *0 id_rest``.
Reading the slice list top to bottom gives a sliced (generic) form of the
string diagram.

Two slice lists represent the same 2-cell precisely when they are related by
the exchange relations: adjacent slices with disjoint supports may be swapped.
One exchange state, ``_Branch``, serves every walk of a class: it keeps each
unemitted slice's upward walk between emissions, and an emission redoes only
the walks it can change.  ``canonical_form`` picks a unique representative of
each class, the left-greedy (lexicographically least) slice sequence, in one
loop that emits the least front and keeps every branch that ties, so a comb
of n slices costs n - 1 exchange tests; ``_cuts`` and ``_blocks``, the cut
walks of critical-branching enumeration, search breadth-first over the same
states.  Given a *window* of slices, the same loop gives the least
representative that emits them consecutively, in order; matching builds a
context that way when the match was found by a walk along wires, which
needs no closure.  An input already in canonical order is recognised by
one upward walk per slice and skips the loop.  ``diagram_equal`` compares
canonical forms.  This is exact only when no generator has coarity 0: with
one, the single-swap relation is not symmetric, and equal 2-cells can get
different canonical forms.  Over ``eta : 0 -> 1``, ``delta : 1 -> 2`` and
``eps : 1 -> 0``, the closure of ``eta ; delta ; (eta * id 2) ; (eps * id
2)`` holds ``eta ; eps ; eta ; delta``, whose own closure does not hold the
first, and ``diagram_equal`` calls the two different.
``exchange_closure_with_ids`` computes the full class by brute force; it is
the matcher's fallback where the walk along wires does not apply.

Generators are interned: one ``GeneratorSym`` exists per ``(name, arity,
coarity)``, kept in a plain dict that grows only with the distinct
declarations a process reads.  A slice is a named ``(offset, gen)`` pair.
So hashing or comparing a diagram, which every memo and canonical-form
lookup does, runs one Python frame and leaves the rest to C.

Conventions: offsets are 0-based internally, wires are numbered from the left,
and ``;`` in the textual grammar is vertical composition read top to bottom.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple


class PolyrewError(Exception):
    """The base of every error polyrew raises; the CLI maps it to exit 2."""


class DiagramError(PolyrewError):
    """Raised for ill-formed diagrams or failed compositions."""


class ParseError(DiagramError):
    """Raised on syntax errors in the diagram expression grammar."""


#: Every generator built so far, keyed by ``(name, arity, coarity)``.  A
#: plain dict: it holds one entry per distinct declaration the process has
#: read, and signatures are small.
_GENERATORS: dict[tuple[str, int, int], "GeneratorSym"] = {}


class GeneratorSym:
    """A generating 2-cell ``name : arity => coarity`` of the signature.

    Interned: one object exists per ``(name, arity, coarity)``, so two
    generators are equal exactly when they are the same object, and
    equality and hashing are the identity operations of ``object``, done in
    C.  The checks run before a new generator enters the table, so a
    failed construction leaves nothing behind.  Instances are immutable;
    copying or unpickling one returns the interned object.
    """

    __slots__ = ("name", "arity", "coarity")

    def __new__(cls, name: str, arity: int, coarity: int) -> "GeneratorSym":
        # Checked before the lookup: ``True`` and ``1.0`` hash and compare
        # as ``1``, so they would find the entry of the int declaration, and
        # a name that is not a ``str`` would be interned and then break the
        # ``(offset, name)`` order of canonical forms.
        if type(name) is not str:
            raise DiagramError("generator name must be a string")
        if type(arity) is not int or type(coarity) is not int:
            raise DiagramError("arity and coarity must be naturals")
        key = name, arity, coarity
        g = _GENERATORS.get(key)
        if g is None:
            # One identifier token, as ``_tokenize`` reads one, and not the
            # keyword ``id``: so a printed diagram names it and parses back.
            if (name == "id" or not re.fullmatch(r"\w+", name)
                    or not (name[0].isalpha() or name[0] == "_")):
                raise DiagramError(f"{name!r} is not a generator name the grammar reads")
            if arity < 0 or coarity < 0:
                raise DiagramError("arity and coarity must be naturals")
            if name == "tau" and (arity, coarity) != (2, 2):
                raise DiagramError("'tau' is reserved for the symmetry (2 => 2)")
            g = object.__new__(cls)
            for field, value in zip(cls.__slots__, key):
                object.__setattr__(g, field, value)
            # One atomic step, so two threads building the same generator
            # still get one object.
            g = _GENERATORS.setdefault(key, g)
        return g

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return GeneratorSym, (self.name, self.arity, self.coarity)

    def __repr__(self) -> str:
        return (f"GeneratorSym(name={self.name!r}, arity={self.arity!r}, "
                f"coarity={self.coarity!r})")

    def __str__(self) -> str:
        return f"{self.name} : {self.arity} -> {self.coarity}"


#: The prop symmetry generator.  The name "tau" is reserved for it.
TAU = GeneratorSym("tau", 2, 2)


@dataclass(frozen=True)
class Signature:
    """A 2-polygraph with one 0-cell and one 1-cell: a list of generators.

    When ``is_prop`` is set the symmetry ``tau`` is an implicit member and
    need not be listed in ``generators``.
    """

    name: str
    generators: tuple[GeneratorSym, ...]
    is_prop: bool = False

    def __post_init__(self) -> None:
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise DiagramError(f"duplicate generator names in signature {self.name!r}")
        if "tau" in names and not self.is_prop:
            raise DiagramError("tau present but signature is not a prop")
        gens = self.generators
        if self.is_prop and "tau" not in names:
            gens = gens + (TAU,)
        # Built once: the parser looks up every generator token.
        object.__setattr__(self, "_all_generators", gens)
        object.__setattr__(self, "_by_name", {g.name: g for g in gens})

    def all_generators(self) -> tuple[GeneratorSym, ...]:
        return self._all_generators

    def lookup(self, name: str) -> GeneratorSym:
        g = self._by_name.get(name)
        if g is None:
            raise DiagramError(f"unknown generator {name!r} in signature {self.name!r}")
        return g

    def has(self, name: str) -> bool:
        return name in self._by_name


class _SliceFields(NamedTuple):
    offset: int
    gen: GeneratorSym


class Slice(_SliceFields):
    """One whiskered generator: ``offset`` identity wires, then ``gen``.

    A named pair, so hashing and comparing slices (and the diagrams that
    hold them) runs in C.  Every way of building one, ``_make`` and
    ``_replace`` included, checks that the offset is a natural.  As a
    tuple, a slice equals the plain pair ``(offset, gen)`` and orders as
    one: slices sort by offset, and two with equal offsets and different
    generators raise ``TypeError`` when ordered, since generators have no
    order.  Code that wants an order on slices uses ``(offset, gen.name)``.
    """

    __slots__ = ()

    def __new__(cls, offset: int, gen: GeneratorSym) -> "Slice":
        if offset < 0:
            raise DiagramError("slice offset must be a natural")
        return tuple.__new__(cls, (offset, gen))

    @classmethod
    def _make(cls, iterable) -> "Slice":
        return cls(*iterable)

    def shifted(self, delta: int) -> "Slice":
        return Slice(self.offset + delta, self.gen)


@dataclass(frozen=True)
class Diagram:
    """A 2-cell of the free 2-pro: an input width plus a list of slices.

    The width chain ``w_0 = input_width``,
    ``w_{i+1} = w_i - arity(g_i) + coarity(g_i)`` must be well defined, with
    each slice fitting its width: ``offset_i + arity(g_i) <= w_i``.  The
    constructor checks it and keeps the last width as ``output_width``, an
    attribute that no field, ``==``, ``hash`` or ``repr`` reads.
    """

    input_width: int
    slices: tuple[Slice, ...] = ()

    def __post_init__(self) -> None:
        if self.input_width < 0:
            raise DiagramError("input width must be a natural")
        object.__setattr__(self, "slices", tuple(self.slices))
        w = self.input_width
        for i, s in enumerate(self.slices):
            if s.offset + s.gen.arity > w:
                raise DiagramError(
                    f"slice {i} ({s.gen.name} at offset {s.offset}) does not fit "
                    f"width {w}"
                )
            w += s.gen.coarity - s.gen.arity
        object.__setattr__(self, "output_width", w)

    # -- width bookkeeping ------------------------------------------------

    def widths(self) -> list[int]:
        """The width chain, with ``len(slices) + 1`` entries."""
        ws = [self.input_width]
        for s in self.slices:
            ws.append(ws[-1] - s.gen.arity + s.gen.coarity)
        return ws

    def __len__(self) -> int:
        return len(self.slices)

    # -- composition ------------------------------------------------------

    def vcomp(self, other: "Diagram") -> "Diagram":
        """Vertical composite ``self ⋆₁ other`` (self on top)."""
        return vcomp(self, other)

    def hcomp(self, other: "Diagram") -> "Diagram":
        """Horizontal composite ``self ⋆₀ other`` (self on the left)."""
        return hcomp(self, other)


def identity(n: int) -> Diagram:
    """The identity 2-cell on ``n`` wires."""
    return Diagram(n)


def generator_diagram(gen: GeneratorSym) -> Diagram:
    """The one-slice diagram of a single generator."""
    return Diagram(gen.arity, (Slice(0, gen),))


def vcomp(*ds: Diagram) -> Diagram:
    """Vertical composite of any number of diagrams, top to bottom, built
    once; the first adjacent pair whose widths differ raises."""
    if not ds:
        raise DiagramError("vcomp needs at least one diagram")
    for upper, lower in zip(ds, ds[1:]):
        if upper.output_width != lower.input_width:
            raise DiagramError(
                f"vertical composition mismatch: output width "
                f"{upper.output_width} vs input width {lower.input_width}"
            )
    return Diagram(ds[0].input_width, sum((d.slices for d in ds), ()))


def hcomp(*ds: Diagram) -> Diagram:
    """Horizontal composite of any number of diagrams, left to right, built
    once: each operand is shifted by the output widths to its left."""
    slices, left = [], 0
    for d in ds:
        slices.extend(s.shifted(left) for s in d.slices)
        left += d.output_width
    return Diagram(sum(d.input_width for d in ds), slices)


# -- exchange -------------------------------------------------------------


def _exchange(a: Slice, b: Slice) -> tuple[Slice, Slice] | None:
    """Adjacent slices ``a`` then ``b`` exchanged into ``b'`` then ``a'``, or
    None when their supports meet.

    ``b``'s input interval (in the wire coordinates between the two slices)
    must lie entirely left of ``a``'s output interval, or entirely right of
    it.  A zero-arity slice has a zero-width input interval; sitting at
    either edge of ``a``'s outputs counts as disjoint, strictly inside does
    not.  The slice passing on the right shifts by the other's width change.
    The walks below run this step inline.
    """
    (ao, ag), (bo, bg) = a, b
    if bo + bg.arity <= ao:
        # b acts left of a: its wires keep their positions above a.
        return b, Slice(ao - bg.arity + bg.coarity, ag)
    if bo >= ao + ag.coarity:
        # b acts right of a's outputs: shift back through a's width change.
        return Slice(bo - ag.coarity + ag.arity, bg), a
    return None


def _reaches_end(above, s, below) -> bool:
    """Whether slice ``s``, an ``(offset, gen)`` pair, between ``above`` and
    ``below``, walked alone, exchanges up through every slice above or down
    through every one below, each step :func:`_exchange`'s, inline.  Only
    offsets relative to each other are read, so ``s`` may sit at offset -1,
    on a wire left of the others."""
    start, g = s
    o = start
    for ao, ag in reversed(above):
        if o + g.arity <= ao:
            continue
        if o < ao + ag.coarity:
            break
        o += ag.arity - ag.coarity
    else:
        return True
    o = start
    for bo, bg in below:
        if bo + bg.arity <= o:
            o += bg.coarity - bg.arity
        elif bo < o + g.coarity:
            return False
    return True


def _ports(d: Diagram) -> tuple[list, list, list]:
    """Which port feeds which in ``d``, in one pass over its slices: what
    feeds each input port and what consumes each output port of each slice,
    and what feeds each output wire of ``d``.  Each is ``(slice, port)``, or
    ``None`` for a wire of ``d``'s own input or output."""
    feeds, consumers = [], []
    wires = [None] * d.input_width  # per wire, the output that feeds it
    for i, (o, g) in enumerate(d.slices):
        ins = wires[o: o + g.arity]
        for q, w in enumerate(ins):
            if w is not None:
                consumers[w[0]][w[1]] = i, q
        feeds.append(ins)
        consumers.append([None] * g.coarity)
        # Most generators have coarity 1; a comprehension costs a frame.
        wires[o: o + g.arity] = ([(i, 0)] if g.coarity == 1
                                 else [(i, p) for p in range(g.coarity)])
    return feeds, consumers, wires


def _ends(d: Diagram) -> set[int]:
    """The indices of the slices some exchange representative of ``d`` puts
    first or last."""
    ss = d.slices
    return {j for j, s in enumerate(ss) if _reaches_end(ss[:j], s, ss[j + 1:])}


class _Branch:
    """One exchange state: some slices emitted, each remaining slice's upward
    walk kept between emissions.

    ``emitted`` is the emitted ``(rest, slice, position)`` chain, newest
    first; ``slices`` holds the current slice at each input position;
    ``remaining`` lists the positions not yet emitted, in input order (the
    remainder is always a subsequence of it).  Each remaining position's
    upward walk either stops under a blocker, and is listed in
    ``blocked[blocker]``, or reaches the top: ``fronts`` maps those, in
    input order, to ``(top slice, moved)``, where ``moved`` holds the
    slices it passed, which are all the remaining ones above it, nearest
    first, as the swaps leave them: one a swap shifted is a plain
    ``(offset, gen)`` pair until the front is emitted.  ``tied`` lists the
    fronts with the least ``(offset, name)``, ``best``.
    """

    __slots__ = ("emitted", "slices", "remaining", "blocked",
                 "fronts", "best", "tied")

    def __init__(self, emitted, slices, remaining, blocked):
        self.emitted, self.slices = emitted, slices
        self.remaining, self.blocked = remaining, blocked

    @classmethod
    def start(cls, slices) -> "_Branch":
        """The state of ``slices`` with nothing emitted, walked."""
        n = len(slices)
        b = cls(None, list(slices), list(range(n)), {})
        b.walk(range(n))
        return b

    def split(self) -> "_Branch":
        """A copy that can emit another front."""
        c = _Branch(self.emitted, self.slices[:], self.remaining[:],
                    {a: xs[:] for a, xs in self.blocked.items()})
        c.fronts = self.fronts
        return c

    def cut(self) -> tuple[list, list]:
        """The emitted ``(slice, position)`` entries, in emission order, and
        the remaining ones, in input order."""
        top, emitted = [], self.emitted
        while emitted:
            emitted, s, x = emitted
            top.append((s, x))
        top.reverse()
        return top, [(self.slices[x], x) for x in self.remaining]

    def walk(self, todo) -> None:
        """Walk each position of ``todo`` (ascending) up through the
        remaining slices above it.  The fronts found replace ``fronts``,
        ``best`` and ``tied``: every front is in ``todo``.  Each exchange
        step is :func:`_exchange`'s, inline."""
        sl, pos, blocked = self.slices, self.remaining, self.blocked
        fronts, tied, best = {}, [], None
        j = 0
        for x in todo:
            o, g = cur = sl[x]
            arity, grow, moved = g.arity, g.coarity - g.arity, []
            j = bisect_left(pos, x, j)
            for k in range(j - 1, -1, -1):
                ao, ag = a = sl[pos[k]]
                if o + arity <= ao:
                    moved.append((ao + grow, ag) if grow else a)
                elif o >= ao + ag.coarity:
                    o += ag.arity - ag.coarity
                    moved.append(a)
                else:
                    blocked.setdefault(pos[k], []).append(x)
                    break
            else:
                if o != cur.offset:
                    cur = Slice(o, g)
                fronts[x] = cur, moved
                key = o, g.name
                if not tied or key < best:
                    best, tied = key, [x]
                elif key == best:
                    tied.append(x)
        self.fronts, self.best, self.tied = fronts, best, tied

    def emit(self, x) -> None:
        """Exchange front ``x`` to the top and emit it; walk again the other
        fronts and the positions blocked by it.  Every other walk stands: one
        stopped below ``x`` passes only slices the emission left alone, and
        one stopped at a slice ``x`` passed stops there still, since
        exchanging a commuting slice upward leaves unchanged which slices
        above it commute with the walks below it.  The pairs ``x``'s walk
        shifted become slices here."""
        cur, moved = self.fronts[x]
        sl, pos = self.slices, self.remaining
        i = bisect_left(pos, x)
        for k, a2 in enumerate(moved, 1):
            if a2 is not sl[pos[i - k]]:
                sl[pos[i - k]] = Slice(*a2)
        todo = self.blocked.pop(x, [])
        del pos[i]
        self.emitted = (self.emitted, cur, x)
        todo += self.fronts
        todo.remove(x)
        todo.sort()
        self.walk(todo)


def _states(start: "_Branch") -> Iterator["_Branch"]:
    """``start`` and every state its fronts lead to, by number emitted: a
    breadth-first search in which states with the same emitted set are
    merged, keeping the first reached.  ``start`` is not changed."""
    level = [start]
    while level:
        yield from level
        grown = {}
        for b in level:
            remaining = frozenset(b.remaining)
            for x in b.fronts:
                key = remaining - {x}
                if key not in grown:
                    grown[key] = c = b.split()
                    c.emit(x)
        level = list(grown.values())


def _cuts(d: Diagram) -> Iterator[tuple[list, list]]:
    """One split ``(top, rest)`` of ``d``'s ``(slice, index)`` entries per
    set of slices some exchange representative puts above a cut, by size;
    each cut grows one above it by a front of its ``rest``."""
    return (b.cut() for b in _states(_Branch.start(d.slices)))


def _blocks(d: Diagram) -> Iterator[tuple[tuple[Slice, ...], ...]]:
    """One split ``(above, block, below)`` of an exchange representative of
    ``d`` per pair of slice sets with a nonempty block: each cut of ``d``,
    then each cut of its rest, searched on from the cut's state."""
    for b in _states(_Branch.start(d.slices)):
        top, _ = b.cut()
        above = tuple(s for s, _ in top)
        for c in _states(b):
            block, below = c.cut()
            if len(block) > len(top):
                yield (above, tuple(s for s, _ in block[len(top):]),
                       tuple(s for s, _ in below))


def _lex_min(d: Diagram, window=()) -> list[tuple[Slice, int]]:
    """The lexicographically least representative of the exchange class of
    ``d``, as ``(slice, input position)`` entries.

    One loop over ordered branches.  Each round keeps every front with the
    least ``(offset, name)``, in branch order then slice order, which is the
    order a depth-first search tries them; so the first branch left at the
    end carries the positions that search would pick among its least tails.

    An emission redoes only the walks it can change (``_Branch.emit`` says
    why every other walk stands), with the same exchange steps.  So the
    forms and ids are those of the loop that walks every remaining slice
    each round, for arity-0 and coarity-0 generators too, and a comb of n
    slices makes n - 1 exchange tests instead of n(n - 1)/2.  A branch is
    copied only when it splits on a tie.

    A tie among free units does not split (:func:`_free_units`): the
    branch emits only the one whose wire reaches the output furthest right.
    A free unit blocks no walk, so emitting it unlocks no front and only
    shifts the fronts right of it.  With m units tied at ``(o, name)``,
    emitting the rightmost leaves the others at ``o``, so that child emits
    ``(o, name)`` in each of the next m rounds; a child that emits another
    one first shifts the rightmost past ``o``, loses one of those rounds,
    and never lowers a round's best.  So the first branch left at the end
    is the one the full search keeps, and k parallel ``eta`` emit k times,
    not 2^k - 1.  Ties that still split: units some slice consumes (which
    one goes first decides what that slice can meet), and arity-0 fronts
    of other coarities, such as ``eta ; eps`` loops.

    A ``window``, a tuple of input positions, asks for the least
    representative in which they are emitted consecutively, in that order:
    each round keeps only the fronts :func:`_window_fronts` allows, and a
    tie of free units settles as above only when none of them is in the
    window.  The map of free units is built on the first round that has a
    tie, so calls without one pay nothing for it.  Precondition: the window
    is a match of a closed pattern and no slice of ``d`` has coarity 0, as
    in matching; otherwise the entries can give a wrong context, such as a
    right whisker of -1, or none.
    """
    branch = _Branch.start(d.slices)
    branches = [branch]
    units = None
    for _ in range(len(d)):
        if window:
            ties = [_window_fronts(b, window) for b in branches]
        # The common round: one branch with one least front.
        elif len(branches) == 1 and len(branch.tied) == 1:
            branch.emit(branch.tied[0])
            continue
        else:
            ties = [(b.best, b.tied) for b in branches]
        best = min(key for key, _ in ties)
        grown = []
        for b, (key, tied) in zip(branches, ties):
            if key == best:
                if len(tied) > 1:
                    if units is None:
                        units = _free_units(d)
                    if all(x in units and x not in window for x in tied):
                        tied = [max(tied, key=units.get)]
                for t in tied[:-1]:
                    c = b.split()
                    c.emit(t)
                    grown.append(c)
                b.emit(tied[-1])
                grown.append(b)
        branches = grown
        branch = branches[0]
    return branch.cut()[0]


def _free_units(d: Diagram) -> dict[int, int]:
    """The free units of ``d``, each mapped to the output wire it feeds
    (:func:`_ports`): the arity-0, coarity-1 slices whose wire no slice
    consumes."""
    units = {x for x, (_, g) in enumerate(d.slices)
             if (g.arity, g.coarity) == (0, 1)}
    return {w[0]: k for k, w in enumerate(_ports(d)[2])
            if w is not None and w[0] in units}


def _window_fronts(b: _Branch, window) -> tuple[tuple, list]:
    """The least ``(offset, name)`` among the fronts of ``b`` that keep
    ``window`` consecutive and in order, and the fronts that have it.

    Once the window's first position is emitted, only the next one may
    follow.  Before that, no later position may be emitted, and the first
    only when the rest can follow it as fronts, one after another."""
    last = b.emitted[2] if b.emitted else None
    if last in window[:-1]:
        x = window[window.index(last) + 1]
        s = b.fronts[x][0]
        return (s.offset, s.gen.name), [x]
    best, tied = None, []
    for x, (s, _) in b.fronts.items():
        key = s.offset, s.gen.name
        if x in window[1:] or (tied and key > best):
            continue
        if x == window[0] and not _follows(b, window):
            continue
        if not tied or key < best:
            best, tied = key, [x]
        else:
            tied.append(x)
    return best, tied


def _follows(b: _Branch, window) -> bool:
    """Whether ``window`` can be emitted from ``b``, each a front once the
    ones before it are emitted; ``b`` is not changed."""
    c = b.split()
    for x in window:
        if x not in c.fronts:
            return False
        c.emit(x)
    return True


def _in_canonical_order(slices) -> bool:
    """Whether ``slices`` is its own canonical form, each slice where it is.

    Each slice ``j`` walks up through slices ``j - 1, j - 2, ...``, each
    step :func:`_Branch.walk`'s, inline, until a blocker stops it; every
    slice ``k`` it passes must have a key ``(offset, name)`` strictly less
    than the walked slice's key just above ``k``.  Then ``_lex_min`` keeps
    one branch and emits slice ``k`` in round ``k``: that slice's walk
    moves nothing, so the fronts of round ``k`` are slice ``k`` and the
    slices whose walks pass it, and none ties with it.  This holds for
    arity-0 and coarity-0 generators too; a tie answers False, and
    ``_lex_min`` settles it.
    """
    for j in range(1, len(slices)):
        o, g = slices[j]
        arity, name = g.arity, g.name
        for k in range(j - 1, -1, -1):
            ao, ag = slices[k]
            if o + arity <= ao:
                # Passed on the left: the key is not greater unless an
                # arity-0 slice sits at ``ao`` with a greater name.
                if o < ao or name <= ag.name:
                    return False
            elif o >= ao + ag.coarity:
                o += ag.arity - ag.coarity
                if o == ao and name <= ag.name:
                    return False
            else:
                break
    return True


@lru_cache(maxsize=1 << 17)
def canonical_form_with_ids(d: Diagram) -> tuple[Diagram, tuple[int, ...]]:
    """Canonical form plus the permutation of original slice indices.

    Returns ``(canon, ids)`` where ``ids[k]`` is the index in ``d.slices`` of
    the generator occurrence that ends up as slice ``k`` of the canonical
    form.  A diagram already in canonical order (:func:`_in_canonical_order`)
    is its own form, with ids in order, and builds no ``_Branch``.
    """
    if _in_canonical_order(d.slices):
        return d, tuple(range(len(d)))
    entries = _lex_min(d)
    canon = Diagram(d.input_width, tuple(s for s, _ in entries))
    return canon, tuple(i for _, i in entries)


def canonical_form(d: Diagram) -> Diagram:
    """The unique left-greedy representative of ``d``'s exchange class."""
    return canonical_form_with_ids(d)[0]


def diagram_equal(d1: Diagram, d2: Diagram) -> bool:
    """Equality of 2-cells modulo exchange (canonical forms coincide)."""
    if d1.input_width != d2.input_width or len(d1) != len(d2):
        return False
    return canonical_form(d1).slices == canonical_form(d2).slices


def exchange_closure_with_ids(d: Diagram) -> list[tuple[tuple[Slice, ...], tuple[int, ...]]]:
    """All exchange representatives of ``d``, each with its slice-index permutation.

    Brute-force breadth-first closure under single adjacent swaps.  The
    search space of pattern matching where the walk along wires does not
    apply; intended for diagrams of modest size (≲ 10 slices).
    """
    start = (tuple(d.slices), tuple(range(len(d.slices))))
    seen: dict[tuple[Slice, ...], tuple[int, ...]] = {start[0]: start[1]}
    frontier = [start]
    while frontier:
        nxt = []
        for slices, ids in frontier:
            for i in range(len(slices) - 1):
                swapped = _exchange(slices[i], slices[i + 1])
                if swapped is None:
                    continue
                b2, a2 = swapped
                new_slices = slices[:i] + (b2, a2) + slices[i + 2:]
                if new_slices not in seen:
                    new_ids = ids[:i] + (ids[i + 1], ids[i]) + ids[i + 2:]
                    seen[new_slices] = new_ids
                    nxt.append((new_slices, new_ids))
        frontier = nxt
    return sorted(
        seen.items(),
        key=lambda item: tuple((s.offset, s.gen.name) for s in item[0]),
    )


# -- parsing and printing -------------------------------------------------


# One match per token, after any whitespace: a punctuation mark, a natural
# (decimal digits, as ``str.isdecimal``), a word (as ``str.isalnum``, plus
# ``_``) or any other character, alone.
_TOKEN = re.compile(r"\s*(?:([;*()])|(\d+)|(\w+)|(\S))")
_KINDS = (None, "punct", "nat", "ident")


def _where(text: str, start: int) -> str:
    """``line N, column M`` of index ``start`` of ``text``, both 1-based."""
    line = text.count("\n", 0, start) + 1
    column = start - text.rfind("\n", 0, start)
    return f"line {line}, column {column}"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Every token of ``text`` as ``(kind, value, start index)``.

    A word is an identifier only if it starts with a letter or ``_``; a
    word that starts otherwise (``²``, ``Ⅷ``), like any character no class
    takes, raises at its first character.
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        value = m.group(kind)
        if kind == 4 or (kind == 3 and not (value[0].isalpha() or value[0] == "_")):
            raise ParseError(
                f"unexpected character {value[0]!r} at {_where(text, m.start(kind))}"
            )
        tokens.append((_KINDS[kind], value, m.start(kind)))
    return tokens


def parse_diagram(text: str, sig: Signature) -> Diagram:
    """Parse a diagram expression over ``sig``.

    Grammar: ``expr := term (';' term)*``, ``term := atom ('*' atom)*``,
    ``atom := 'id' nat | ident | '(' expr ')'``.  ``;`` is vertical
    composition read top to bottom, ``*`` horizontal read left to right.
    The whole text is tokenized first, so a lexical error wins over a
    syntax error before it.  One loop with an explicit stack, so nesting
    depth is bounded by memory and not by the interpreter's recursion
    limit.  Atoms, terms and chains are kept as ``(input width, output
    width, [(offset, gen)])``; the one ``Diagram`` is built at the end.
    """
    tokens = _tokenize(text)
    tokens.append(("end", "", len(text)))
    pos = 0
    # One frame per open parenthesis: the finished terms of its ';' chain
    # and the atoms of its current '*' term.
    stack = [([], [])]
    while True:
        kind, value, start = tokens[pos]
        pos += 1
        if kind == "end":
            raise ParseError("unexpected end of input")
        if value == "(":
            stack.append(([], []))
            continue
        if value == "id":
            kind, value, start = tokens[pos]
            pos += 1
            if kind == "end":
                raise ParseError("unexpected end of input")
            if kind != "nat":
                raise ParseError(
                    f"expected a natural after 'id' at {_where(text, start)}"
                )
            n = int(value)
            atom = (n, n, [])
        elif kind == "ident":
            try:
                g = sig.lookup(value)
            except DiagramError:
                raise ParseError(
                    f"unknown generator {value!r} at {_where(text, start)}"
                ) from None
            atom = (g.arity, g.coarity, [(0, g)])
        else:
            raise ParseError(f"unexpected token {value!r} at {_where(text, start)}")
        stack[-1][1].append(atom)
        # After an atom: '*' extends the term and anything else ends it;
        # each ')' then closes a frame into one atom of the frame below.
        while True:
            kind, value, start = tokens[pos]
            if value == "*":
                pos += 1
                break
            terms, atoms = stack[-1]
            if len(atoms) == 1:
                t = atoms[0]
            else:
                # Side by side: each atom shifted by the outputs left of it.
                ins = outs = 0
                slices = []
                for a_in, a_out, a_slices in atoms:
                    slices += [(o + outs, g) for o, g in a_slices]
                    ins += a_in
                    outs += a_out
                t = (ins, outs, slices)
            atoms.clear()
            if terms and terms[-1][1] != t[0]:
                raise ParseError(f"width mismatch in ';': {terms[-1][1]} vs {t[0]}")
            terms.append(t)
            if value == ";":
                pos += 1
                break
            if len(terms) == 1:
                chain = t
            else:
                chain = (terms[0][0], t[1], [s for u in terms for s in u[2]])
            if len(stack) == 1:
                if kind != "end":
                    raise ParseError(
                        f"trailing input {value!r} at {_where(text, start)}"
                    )
                return Diagram(chain[0], tuple(Slice(o, g) for o, g in chain[2]))
            if kind == "end":
                raise ParseError("unexpected end of input")
            if value != ")":
                raise ParseError(
                    f"expected ')' but found {value!r} at {_where(text, start)}"
                )
            pos += 1
            stack.pop()
            stack[-1][1].append(chain)


def print_diagram(d: Diagram) -> str:
    """Render ``d`` in the expression grammar; one term per slice."""
    if not d.slices:
        return f"id {d.input_width}"
    parts = []
    w = d.input_width
    for o, g in d.slices:
        right = w - o - g.arity
        w += g.coarity - g.arity
        factors = []
        if o:
            factors.append(f"id {o}")
        factors.append(g.name)
        if right:
            factors.append(f"id {right}")
        term = " * ".join(factors)
        parts.append(f"({term})" if len(factors) > 1 else term)
    return " ; ".join(parts)
