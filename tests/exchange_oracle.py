"""The one-swap exchange step, the front walk that re-walks every remaining
slice at every step, and the cut and block searches first built on it.

``_commute`` and ``_swap`` are the exchange step as two functions, written
apart from ``polyrew.diagram``, which has it as ``_exchange`` and runs it
inline in its walks.

``_cuts``, ``_blocks`` and ``_lex_min`` now read one exchange state
(``diagram._Branch``) that keeps each slice's walk between emissions; these
are kept as its reference: on any diagram, ``fronts_cuts`` and
``fronts_blocks`` must give the entries, splits and order that ``_cuts`` and
``_blocks`` give.

``exchange_closure`` is every slice sequence of an exchange class, the
oracle for canonical forms and for anything that must not depend on the
representative.  ``id_keyed_closure`` and ``occurrences_in`` are the
matching oracle: every order of an exchange class, and the pattern windows
read off them.
``unfiltered_matches`` is the context oracle: the closure scan that
``find_matches`` once ran on every subject.

``free_units_oracle`` is the free-unit map ``_lex_min`` settles ties with,
read off a wire list of its own: the reference for ``diagram._free_units``,
which reads the output feeds of ``diagram._ports``.

``outer_whiskers`` reads each edge wire of a diagram off its slices: the
reference for the whisker test of ``critical.critical_pairs_on``, which
asks whether the source is its own ``critical._tight`` form.
"""

from typing import Iterator

from polyrew.diagram import (
    Diagram, Slice, canonical_form, exchange_closure_with_ids)
from polyrew.rewrite import Context


def _commute(a: Slice, b: Slice) -> bool:
    """Whether adjacent slices ``a`` then ``b`` have disjoint supports.

    ``b``'s input interval (in the wire coordinates between the two slices)
    must lie entirely left of ``a``'s output interval, or entirely right of
    it.  A zero-arity slice has a zero-width input interval; sitting at
    either edge of ``a``'s outputs counts as disjoint, strictly inside does
    not.
    """
    return b.offset + b.gen.arity <= a.offset or b.offset >= a.offset + a.gen.coarity


def _swap(a: Slice, b: Slice) -> tuple[Slice, Slice]:
    """Exchange commuting adjacent slices ``a`` then ``b`` into ``b'`` then ``a'``."""
    if b.offset + b.gen.arity <= a.offset:
        # b acts left of a: its wires keep their positions above a.
        return b, Slice(a.offset - b.gen.arity + b.gen.coarity, a.gen)
    # b acts right of a's outputs: shift back through a's width change.
    return Slice(b.offset - a.gen.coarity + a.gen.arity, b.gen), a


def _fronts(
    entries: list[tuple[Slice, int]],
) -> Iterator[tuple[Slice, int, list[tuple[Slice, int]]]]:
    """Every slice that can be exchanged to the front of ``entries``, in order.

    Yields triples ``(front_slice, original_index, remaining_entries)`` where
    the remaining entries are given in their adjusted coordinates.  Slice
    ``j`` walks upward while it commutes with the slice above it; the
    remainder is built only when the walk reaches the top.
    """
    for j, (cur, cur_id) in enumerate(entries):
        moved: list[tuple[Slice, int]] = []
        for k in range(j - 1, -1, -1):
            a, a_id = entries[k]
            if not _commute(a, cur):
                break
            cur, a2 = _swap(a, cur)
            moved.append((a2, a_id))
        else:
            yield cur, cur_id, moved[::-1] + entries[j + 1:]


def fronts_cuts(d: Diagram) -> Iterator[tuple[list, list]]:
    """One split ``(top, rest)`` of ``d``'s ``(slice, index)`` entries per
    set of slices some exchange representative puts above a cut, by size;
    each cut grows one above it by a front of its ``rest``."""
    level = [([], [(s, i) for i, s in enumerate(d.slices)])]
    while level:
        yield from level
        grown = {}
        for top, rest in level:
            for f, f_id, tail in _fronts(rest):
                key = frozenset([i for _, i in top] + [f_id])
                if key not in grown:
                    grown[key] = (top + [(f, f_id)], tail)
        level = list(grown.values())


def fronts_blocks(d: Diagram) -> Iterator[tuple[tuple[Slice, ...], ...]]:
    """One split ``(above, block, below)`` of an exchange representative of
    ``d`` per pair of slice sets with a nonempty block: each cut of ``d``,
    then each cut of its rest, built at the cut's width."""
    for top, rest in fronts_cuts(d):
        above = tuple(s for s, _ in top)
        w = d.input_width + sum(s.gen.coarity - s.gen.arity for s in above)
        for block, below in fronts_cuts(Diagram(w, tuple(s for s, _ in rest))):
            if block:
                yield (above, tuple(s for s, _ in block),
                       tuple(s for s, _ in below))


def exchange_closure(d: Diagram) -> list[tuple[Slice, ...]]:
    """The slice sequences exchange-equivalent to ``d``, in the order of
    ``exchange_closure_with_ids``."""
    return [slices for slices, _ in exchange_closure_with_ids(d)]


def id_keyed_closure(d):
    """Every ``(slices, ids)`` order of ``d``'s exchange class: the swap
    search of ``exchange_closure_with_ids``, keyed by the id tuple and the
    offsets (which fix the slices), so no id order is dropped for repeating
    another's slice sequence.  An id order alone does not fix the slices:
    with a coarity-0 generator two paths can place one differently."""
    start = (tuple(d.slices), tuple(range(len(d.slices))))
    seen, frontier = {}, [start]
    while frontier:
        nxt = []
        for slices, ids in frontier:
            key = (ids, tuple(s.offset for s in slices))
            if key in seen:
                continue
            seen[key] = slices, ids
            for i in range(len(slices) - 1):
                if _commute(slices[i], slices[i + 1]):
                    b2, a2 = _swap(slices[i], slices[i + 1])
                    nxt.append((slices[:i] + (b2, a2) + slices[i + 2:],
                                ids[:i] + (ids[i + 1], ids[i]) + ids[i + 2:]))
        frontier = nxt
    return list(seen.values())


def occurrences_in(members, d, patterns):
    """The ``(pattern index, occurrence set)`` pairs read off each member:
    a pattern's canonical slices as a window under a uniform offset shift,
    as ``find_matches`` reads them."""
    pats = [[(s.gen.name, s.offset) for s in canonical_form(pattern).slices]
            for pattern in patterns]
    found = set()
    for slices, ids in members:
        w = d.input_width
        for i, s in enumerate(slices):
            for n, pat in enumerate(pats):
                shift = s.offset - pat[0][1]
                if s.gen.name == pat[0][0] and 0 <= shift <= (
                        w - patterns[n].input_width) and pat == [
                        (t.gen.name, t.offset - shift)
                        for t in slices[i: i + len(pat)]]:
                    found.add((n, frozenset(ids[i: i + len(pat)])))
            w += s.gen.coarity - s.gen.arity
    return found


def unfiltered_matches(d, *patterns):
    """``(pattern, occurrences, context)`` of every match: the closure scan
    of ``find_matches`` over every pattern, with no wire-kind test, building
    each context where the match is first found."""
    subject = canonical_form(d)
    pats = [canonical_form(pattern) for pattern in patterns]
    found = {}
    for slices, ids in exchange_closure_with_ids(subject):
        widths = [subject.input_width]
        for s in slices:
            widths.append(widths[-1] - s.gen.arity + s.gen.coarity)
        for n, pat in enumerate(pats):
            k = len(pat)
            for i in range(len(slices) - k + 1):
                shift = slices[i].offset - pat.slices[0].offset
                right = widths[i] - shift - pat.input_width
                if shift < 0 or right < 0 or any(
                        slices[i + j].gen != pat.slices[j].gen
                        or slices[i + j].offset != pat.slices[j].offset + shift
                        for j in range(k)):
                    continue
                key = (n, frozenset(ids[i: i + k]))
                if key not in found:
                    found[key] = Context(
                        Diagram(subject.input_width, slices[:i]), shift, right,
                        Diagram(widths[i] - pat.input_width + pat.output_width,
                                slices[i + k:]))
    return sorted(((n, occ, ctx) for (n, occ), ctx in found.items()),
                  key=lambda m: (m[0], sorted(m[1])))


def free_units_oracle(slices) -> dict[int, int]:
    """The free units of ``slices``, each mapped to the output position of
    its wire: the arity-0, coarity-1 slices whose wire no slice consumes.

    Input wires a slice reaches past the ones seen so far are added on the
    right; they are not units, so the positions keep their order."""
    wires = []  # the slice that produced each wire, or None
    for x, (o, g) in enumerate(slices):
        end = o + g.arity
        if len(wires) < end:
            wires += [None] * (end - len(wires))
        wires[o:end] = [x] if g.arity == 0 and g.coarity == 1 else [None] * g.coarity
    return {x: p for p, x in enumerate(wires) if x is not None}


def outer_whiskers(d: Diagram) -> tuple[bool, bool]:
    """Whether an identity wire passes untouched along the left or right
    edge of ``d``.

    Read off ``d``'s own slice order: an exchange never moves a slice onto
    an edge wire, so the answer is the same for every representative of
    the exchange class.
    """
    if d.input_width < 1:
        return False, False
    left = all(s.offset >= 1 for s in d.slices)
    right = all(
        s.offset + s.gen.arity <= w - 1 for s, w in zip(d.slices, d.widths())
    )
    return left, right
