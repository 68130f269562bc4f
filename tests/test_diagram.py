"""Tests for the diagram data model, exchange canonical form, and the grammar."""

import copy
import dataclasses
import pickle
import random

import pytest

import polyrew.diagram as diagram_module
from polyrew.coherence import get_preset
from polyrew.diagram import (
    Diagram,
    DiagramError,
    GeneratorSym,
    ParseError,
    Signature,
    Slice,
    _blocks,
    _cuts,
    canonical_form,
    canonical_form_with_ids,
    diagram_equal,
    exchange_closure_with_ids,
    generator_diagram,
    hcomp,
    identity,
    parse_diagram,
    print_diagram,
    vcomp,
)
from conftest import ETA, MU
from exchange_oracle import (
    _commute, _fronts, _swap, exchange_closure, free_units_oracle,
    fronts_blocks, fronts_cuts)
from parse_oracle import oracle_parse_diagram


def all_diagrams(sig, max_slices, max_input_width, max_width=None):
    """Every diagram over ``sig`` with at most the given slices and input
    width, and if ``max_width`` is given, no wider than it anywhere."""
    gens = sig.all_generators()
    out = []

    def go(input_width, cur_width, slices):
        out.append(Diagram(input_width, tuple(slices)))
        if len(slices) == max_slices:
            return
        for g in gens:
            width = cur_width - g.arity + g.coarity
            if max_width is not None and width > max_width:
                continue
            for off in range(cur_width - g.arity + 1):
                go(input_width, width, slices + [Slice(off, g)])

    for w in range(max_input_width + 1):
        go(w, w, [])
    return out


def random_diagram(sig, rng, max_slices=6, max_width=5):
    gens = sig.all_generators()
    w0 = rng.randint(0, max_width)
    slices = []
    w = w0
    for _ in range(rng.randint(0, max_slices)):
        options = [
            Slice(off, g)
            for g in gens
            for off in range(w - g.arity + 1)
            if w - g.arity + g.coarity <= max_width + 2
        ]
        if not options:
            break
        s = rng.choice(options)
        slices.append(s)
        w += s.gen.coarity - s.gen.arity
    return Diagram(w0, tuple(slices))


class TestConstruction:
    def test_identity(self):
        assert identity(3).input_width == 3
        assert identity(3).output_width == 3
        assert identity(0).slices == ()

    def test_width_chain(self):
        d = Diagram(3, (Slice(0, MU), Slice(0, MU)))
        assert d.widths() == [3, 2, 1]

    def test_output_width_is_not_a_field(self, mon_sig):
        # The constructor keeps the output width; equality, hashing and
        # the text stay those of the two fields.
        assert [f.name for f in dataclasses.fields(Diagram)] == [
            "input_width", "slices"]
        d = Diagram(3, (Slice(0, MU), Slice(0, MU)))
        e = vcomp(parse_diagram("mu * id 1", mon_sig), identity(2),
                  generator_diagram(MU))
        assert e == d and type(e.slices) is tuple
        assert (hash(e), repr(e)) == (hash(d), repr(d))
        assert e.output_width == 1

    def test_bad_slice_rejected(self):
        with pytest.raises(DiagramError):
            Diagram(2, (Slice(1, MU),))

    def test_negative_input_width_rejected(self):
        with pytest.raises(DiagramError, match="input width must be a natural"):
            Diagram(-1)

    def test_vcomp_mismatch(self):
        with pytest.raises(DiagramError):
            identity(2).vcomp(identity(3))

    def test_vcomp_identity_unit(self, mon_sig):
        d = parse_diagram("(mu * id 1) ; mu", mon_sig)
        assert identity(3).vcomp(d) == d
        assert d.vcomp(identity(1)) == d

    def test_hcomp_whiskering(self):
        d = hcomp(identity(1), generator_diagram(MU))
        assert d.input_width == 3
        assert d.slices == (Slice(1, MU),)

    def test_hcomp_identity0_unit(self, mon_sig):
        d = parse_diagram("(mu * id 1) ; mu", mon_sig)
        assert d.hcomp(identity(0)) == d


class TestGeneratorSym:
    """Generators are interned on ``(name, arity, coarity)``."""

    @pytest.mark.parametrize("args", [("", 1, 1), ("g", -1, 1), ("g", 1, -1),
                                      ("tau", 1, 1), ("id", 1, 1), ("2x", 1, 1),
                                      ("a b", 1, 1), ("a;b", 1, 1)])
    def test_invalid_raises_and_is_not_interned(self, args):
        for _ in range(2):
            with pytest.raises(DiagramError):
                GeneratorSym(*args)
        assert args not in diagram_module._GENERATORS

    @pytest.mark.parametrize("arity, coarity", [(True, 1), (1, True), (1.0, 1),
                                                (1, 1.0), ("1", 1), (1, None)])
    def test_arities_must_be_ints(self, arity, coarity):
        # ``True`` and ``1.0`` equal ``1``: taken unchecked, they found the
        # entry of ``("z", 1, 1)`` or made one that printed ``arity=True``.
        for _ in range(2):
            with pytest.raises(DiagramError, match="must be naturals"):
                GeneratorSym("z", arity, coarity)
        z = GeneratorSym("z", 1, 1)
        assert repr(z) == "GeneratorSym(name='z', arity=1, coarity=1)"
        with pytest.raises(DiagramError, match="must be naturals"):
            GeneratorSym("z", arity, coarity)
        assert (type(z.arity), type(z.coarity)) == (int, int)

    @pytest.mark.parametrize("name", [5, None, b"mu"])
    def test_name_must_be_str(self, name):
        # Interned unchecked, ``5`` made ``canonical_form`` raise a bare
        # ``TypeError`` when it compared ``(offset, name)`` keys.
        for _ in range(2):
            with pytest.raises(DiagramError, match="must be a string"):
                GeneratorSym(name, 0, 1)
        assert all(type(key[0]) is str for key in diagram_module._GENERATORS)

    def test_one_object_per_declaration(self):
        assert GeneratorSym("mu", 2, 1) is get_preset("mon").polygraph.signature.lookup("mu")
        assert GeneratorSym(name="mu", arity=2, coarity=1) is MU
        assert GeneratorSym("mu", 2, 2) is not MU

    def test_immutable(self):
        with pytest.raises(AttributeError):
            MU.name = "nu"
        with pytest.raises(AttributeError):
            MU.arity = 3
        with pytest.raises(AttributeError):
            del MU.coarity
        assert (MU.name, MU.arity, MU.coarity) == ("mu", 2, 1)

    def test_copy_and_pickle_return_the_interned_object(self):
        assert copy.copy(MU) is MU
        assert copy.deepcopy(MU) is MU
        assert pickle.loads(pickle.dumps(MU)) is MU
        d = Diagram(3, (Slice(0, MU), Slice(0, MU)))
        assert pickle.loads(pickle.dumps(d)).slices[1].gen is MU
        assert copy.deepcopy(d) == d

    def test_pinned_text(self):
        assert repr(MU) == "GeneratorSym(name='mu', arity=2, coarity=1)"
        assert str(MU) == "mu : 2 -> 1"


class TestSlice:
    """``Slice`` is a named ``(offset, gen)`` pair with a checked offset."""

    def test_negative_offset_raises_on_every_path(self):
        s = Slice(0, MU)
        for build in (lambda: Slice(-1, MU),
                      lambda: Slice(offset=-1, gen=MU),
                      lambda: s.shifted(-1),
                      lambda: Slice._make((-1, MU)),
                      lambda: s._replace(offset=-1)):
            with pytest.raises(DiagramError, match="offset must be a natural"):
                build()

    def test_make_and_replace_build_slices(self):
        s = Slice._make((1, MU))
        assert type(s) is Slice and s == Slice(1, MU)
        assert type(s._replace(gen=ETA)) is Slice
        assert s._replace(gen=ETA) == Slice(1, ETA)
        with pytest.raises(TypeError):
            Slice._make((1, MU, 2))

    def test_copy_and_pickle(self):
        s = Slice(1, MU)
        for t in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert type(t) is Slice and t == s and t.gen is MU

    def test_tuple_semantics(self):
        # A slice is a tuple: it equals, and hashes like, the plain pair.
        s = Slice(1, MU)
        assert s == (1, MU) and hash(s) == hash((1, MU))
        assert {s: 0}[(1, MU)] == 0
        assert s.offset == s[0] == 1 and s.gen is s[1] is MU
        # It orders as a pair: by offset, then by generator, which has no
        # order, so equal offsets with different generators raise.
        assert sorted([Slice(2, ETA), Slice(0, MU)]) == [Slice(0, MU), Slice(2, ETA)]
        assert not Slice(1, MU) < Slice(1, MU)
        with pytest.raises(TypeError):
            Slice(1, MU) < Slice(1, ETA)  # noqa: B015

    def test_pinned_text(self):
        assert repr(Slice(1, MU)) == (
            "Slice(offset=1, gen=GeneratorSym(name='mu', arity=2, coarity=1))")
        assert repr(Diagram(3, (Slice(1, MU), Slice(0, ETA)))) == (
            "Diagram(input_width=3, slices=("
            "Slice(offset=1, gen=GeneratorSym(name='mu', arity=2, coarity=1)), "
            "Slice(offset=0, gen=GeneratorSym(name='eta', arity=0, coarity=1))))")


def pairwise_hcomp(ds):
    """The left fold of binary horizontal composites."""
    out = identity(0)
    for d in ds:
        shifted = tuple(s.shifted(out.output_width) for s in d.slices)
        out = Diagram(out.input_width + d.input_width, out.slices + shifted)
    return out


def pairwise_vcomp(ds):
    """The left fold of binary vertical composites, checked pair by pair."""
    out = ds[0]
    for d in ds[1:]:
        if out.output_width != d.input_width:
            raise DiagramError(
                f"vertical composition mismatch: output width "
                f"{out.output_width} vs input width {d.input_width}"
            )
        out = Diagram(out.input_width, out.slices + d.slices)
    return out


def outcome(compose, ds):
    try:
        return compose(*ds)
    except DiagramError as exc:
        return str(exc)


class TestNaryComposition:
    """``hcomp`` and ``vcomp`` build one diagram from all their operands;
    they must agree with the binary folds, errors included."""

    def test_hcomp_matches_pairwise_fold(self, mon_sig):
        rng = random.Random(53)
        for _ in range(300):
            ds = [random_diagram(mon_sig, rng) for _ in range(rng.randint(0, 5))]
            assert hcomp(*ds) == pairwise_hcomp(ds)

    def test_vcomp_matches_pairwise_fold(self, mon_sig):
        rng = random.Random(59)
        mismatches = 0
        for _ in range(300):
            # Cut one diagram into pieces, so most chains compose; then
            # swap in a random diagram now and then to break a joint.
            d = random_diagram(mon_sig, rng)
            cuts = sorted(rng.randint(0, len(d)) for _ in range(rng.randint(0, 3)))
            bounds = [0] + cuts + [len(d)]
            ds, w = [], d.input_width
            for lo, hi in zip(bounds, bounds[1:]):
                ds.append(Diagram(w, d.slices[lo:hi]))
                w = ds[-1].output_width
            if rng.random() < 0.5:
                ds[rng.randrange(len(ds))] = random_diagram(mon_sig, rng)
            want = outcome(lambda *xs: pairwise_vcomp(xs), ds)
            assert outcome(vcomp, ds) == want
            mismatches += isinstance(want, str)
        assert 0 < mismatches < 300

    def test_vcomp_of_nothing_raises(self):
        with pytest.raises(DiagramError, match="at least one diagram"):
            vcomp()

    def test_long_star_term_parses_in_one_composite(self, mon_sig):
        d = parse_diagram(" * ".join(["mu"] * 4000), mon_sig)
        assert d.slices == tuple(Slice(i, MU) for i in range(4000))


class TestCanonicalForm:
    def test_spec_example(self):
        # [(2, mu), (0, mu)] at width 4 exchanges to [(0, mu), (1, mu)].
        d = Diagram(4, (Slice(2, MU), Slice(0, MU)))
        c = canonical_form(d)
        assert c.slices == (Slice(0, MU), Slice(1, MU))

    def test_identity_fixed(self):
        assert canonical_form(identity(4)) == identity(4)

    def test_idempotent_random(self, mon_sig):
        rng = random.Random(20260824)
        for _ in range(1000):
            d = random_diagram(mon_sig, rng)
            c = canonical_form(d)
            assert canonical_form(c) == c

    def test_equal_spec_example(self):
        d1 = Diagram(4, (Slice(2, MU), Slice(0, MU)))
        d2 = Diagram(4, (Slice(0, MU), Slice(1, MU)))
        assert diagram_equal(d1, d2)

    def test_alpha_sides_differ(self, mon_sig):
        lhs = parse_diagram("(mu * id 1) ; mu", mon_sig)
        rhs = parse_diagram("(id 1 * mu) ; mu", mon_sig)
        assert not diagram_equal(lhs, rhs)

    def test_reflexive(self, mon_sig):
        d = parse_diagram("(eta * eta) ; mu", mon_sig)
        assert diagram_equal(d, d)


class TestExchangeOracle:
    """Canonical form vs the brute-force exchange closure."""

    @pytest.mark.parametrize("max_slices", [2, 3])
    def test_canonical_matches_closure_small(self, mon_sig, max_slices):
        self.check_all(mon_sig, max_slices, max_input_width=4)

    @staticmethod
    def check_all(sig, max_slices, max_input_width):
        mismatches = 0
        for d in all_diagrams(sig, max_slices, max_input_width):
            assert d.output_width == d.widths()[-1]
            closure = exchange_closure(d)
            canon = canonical_form(d).slices
            assert canon in closure
            for member in closure:
                md = Diagram(d.input_width, member)
                if canonical_form(md).slices != canon:
                    mismatches += 1
        assert mismatches == 0

    def test_eta_same_offset_class(self):
        # Two unit insertions at the same point: both slice orders describe
        # the same 2-cell eta *0 eta and must share a canonical form.
        d1 = Diagram(0, (Slice(0, ETA), Slice(0, ETA)))
        d2 = Diagram(0, (Slice(0, ETA), Slice(1, ETA)))
        assert diagram_equal(d1, d2)


def test_coarity0_idempotence_known_gap():
    # The one-way ``_swap`` again: the canonical form of ``d`` has a
    # canonical form of its own, lexicographically smaller and in ``d``'s
    # closure, so ``canonical_form`` is not idempotent and ``d`` is not
    # ``diagram_equal`` to its own canonical form.  Once canonical forms
    # are exact with coarity 0 (ROADMAP item 2), both turn.
    sig = Signature("MuEtaEps", (MU, ETA, GeneratorSym("eps", 1, 0)))
    d = parse_diagram("(mu * id 2) ; (id 1 * eta * id 2) ; (eps * id 3)", sig)
    canon = canonical_form(d)
    assert print_diagram(canon) == "(mu * id 2) ; (eps * id 2) ; (eta * id 2)"
    again = canonical_form(canon)
    assert print_diagram(again) == (
        "(eta * id 4) ; (id 1 * mu * id 2) ; (id 1 * eps * id 2)")
    assert again.slices in exchange_closure(d)
    assert ([(s.offset, s.gen.name) for s in again.slices]
            < [(s.offset, s.gen.name) for s in canon.slices])
    assert not diagram_equal(d, canon)


class TestIterativeCanonicalForm:
    """``_lex_min`` keeps each remaining slice's upward walk between rounds
    and redoes only the walks an emission can change.  It is checked against
    two references kept here: the recursive, tie-forking search, and the
    branch loop that walked every remaining slice again each round
    (``branch_loop_lex_min``).  Both must give the same ``(canon, ids)``."""

    SIG = Signature(
        "MuEtaDeltaEps",
        (MU, ETA, GeneratorSym("delta", 1, 2), GeneratorSym("eps", 1, 0)),
        is_prop=True,
    )

    @staticmethod
    def branch_loop_lex_min(entries):
        """The branch loop over ``_fronts``: each round walks every remaining
        slice of every branch and keeps the fronts with the least
        ``(offset, name)``, in branch order then slice order."""
        branches = [([], entries)]
        while branches[0][1]:
            fronts = [(f, f_id, done, tail)
                      for done, rest in branches for f, f_id, tail in _fronts(rest)]
            best = min((f.offset, f.gen.name) for f, _, _, _ in fronts)
            branches = [(done + [(f, f_id)], tail) for f, f_id, done, tail in fronts
                        if (f.offset, f.gen.name) == best]
        return branches[0][0]

    @classmethod
    def assert_matches_branch_loop(cls, d):
        canon, ids = canonical_form_with_ids(d)
        expected = cls.branch_loop_lex_min([(s, i) for i, s in enumerate(d.slices)])
        assert list(zip(canon.slices, ids)) == expected, d

    @staticmethod
    def long_random_diagram(sig, rng, max_width, max_units):
        """10 to 40 slices, at most ``max_units`` of them of arity 0: ties
        need arity-0 fronts, and parallel ones multiply the branches.  A
        draw that gets stuck before 10 slices is drawn again."""
        gens = sig.all_generators()
        while True:
            w0 = w = rng.randint(0, max_width)
            slices, units = [], 0
            for _ in range(rng.randint(10, 40)):
                options = [
                    Slice(off, g)
                    for g in gens
                    if g.arity or units < max_units
                    for off in range(w - g.arity + 1)
                    if w - g.arity + g.coarity <= max_width + 2
                ]
                if not options:
                    break
                s = rng.choice(options)
                slices.append(s)
                units += not s.gen.arity
                w += s.gen.coarity - s.gen.arity
            if len(slices) >= 10:
                return Diagram(w0, tuple(slices))

    @pytest.mark.parametrize("preset", ["MuEtaDeltaEps", "mon", "sym_prime"])
    def test_matches_branch_loop_on_long_diagrams(self, preset, mon_sig):
        sig = {"MuEtaDeltaEps": self.SIG, "mon": mon_sig,
               "sym_prime": get_preset("sym_prime").polygraph.signature}[preset]
        rng = random.Random(f"branch-loop/{preset}")
        for _ in range(150):
            d = self.long_random_diagram(sig, rng, max_width=4, max_units=5)
            self.assert_matches_branch_loop(d)

    def test_matches_branch_loop_on_combs_and_ties(self):
        delta, eps = self.SIG.lookup("delta"), self.SIG.lookup("eps")
        n = 300
        right = Diagram(n + 1, tuple(Slice(m - 1, MU) for m in range(n, 0, -1)))
        left = Diagram(n + 1, tuple(Slice(0, MU) for _ in range(n)))
        loops = Diagram(0, (Slice(0, ETA), Slice(0, eps)) * 4)
        cases = [right, left, loops, self.parallel(7),
                 parse_diagram("eta ; (eta * id 1) ; (delta * id 1)", self.SIG),
                 parse_diagram("(id 1 * eps * id 1) ; (id 2 * eta) ; "
                               "(id 1 * eps * id 1)", self.SIG),
                 parse_diagram("eta ; delta ; (eta * id 2) ; (eps * id 2)", self.SIG)]
        rng = random.Random(20261019)
        for _ in range(200):
            # Units, counits and splits only: every tie is an eta tie, and
            # eps and delta move the points where the etas meet.
            w = 0
            slices = []
            for _ in range(rng.randint(6, 14)):
                g = rng.choice((ETA, ETA, eps, delta) if w else (ETA,))
                slices.append(Slice(rng.randint(0, w - g.arity), g))
                w += g.coarity - g.arity
            cases.append(Diagram(0, tuple(slices)))
        for d in cases:
            self.assert_matches_branch_loop(d)

    def test_matches_branch_loop_on_all_small_diagrams(self):
        # Every diagram of one to four slices and width at most 3 over
        # units, counits, splits, merges and a 0 -> 0 bubble, so a front
        # passes slices of every kind: each walk ``_Branch.emit`` keeps
        # must stop where the branch loop's walk stops.
        sig = Signature("Small", (MU, ETA, GeneratorSym("delta", 1, 2),
                                  GeneratorSym("eps", 1, 0),
                                  GeneratorSym("bubble", 0, 0)))
        ds = [d for d in all_diagrams(sig, 4, 3, max_width=3) if d.slices]
        assert len(ds) == 22_213
        for d in ds:
            canon, ids = canonical_form_with_ids.__wrapped__(d)
            expected = self.branch_loop_lex_min(
                [(s, i) for i, s in enumerate(d.slices)])
            assert list(zip(canon.slices, ids)) == expected, d

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_comb_walks_are_linear(self, side, monkeypatch):
        # Each walk is kept until an emission can change it.  On a comb of
        # n mu every slice but the top one stops under the slice above it,
        # so ``_Branch.walk`` is handed 2n - 1 positions (n at the start,
        # then the one each emission frees) and makes n - 1 exchange tests.
        # A walk reads its own slice, and each test reads the slice it is
        # tested against, from the branch's slice list: 3n - 2 reads.  A
        # loop that walks every remaining slice each round, or a walk that
        # runs past its blocker, makes n(n - 1)/2; both counts are checked
        # as they grow, so either fails within a few rounds.  Both combs are
        # already canonical, so ``canonical_form_with_ids`` answers them
        # without a ``_Branch``: the walks are counted on ``_lex_min``, and
        # the check that answers them is counted at the end.
        n = 10_000
        offsets = [0] * n if side == "left" else range(n - 1, -1, -1)
        d = Diagram(n + 1, tuple(Slice(off, MU) for off in offsets))
        walked = reads = 0
        walk, init = diagram_module._Branch.walk, diagram_module._Branch.__init__

        class CountingSlices(list):
            def __getitem__(self, i):
                nonlocal reads
                reads += 1
                assert reads <= 3 * n
                return list.__getitem__(self, i)

        def counting_init(self, emitted, slices, remaining, blocked):
            init(self, emitted, CountingSlices(slices), remaining, blocked)

        def counting_walk(self, todo):
            nonlocal walked
            todo = list(todo)
            walked += len(todo)
            assert walked <= 2 * n
            walk(self, todo)

        monkeypatch.setattr(diagram_module._Branch, "__init__", counting_init)
        monkeypatch.setattr(diagram_module._Branch, "walk", counting_walk)
        entries = diagram_module._lex_min(d)
        canon = Diagram(d.input_width, tuple(s for s, _ in entries))
        ids = tuple(x for _, x in entries)
        assert (canon, ids) == (d, tuple(range(n)))
        # One read per position walked and one per exchange test at least:
        # the counters see the walk.
        assert reads >= walked + n - 1
        # The check reads each walked slice once and one slice per exchange
        # test: every walk stops under the slice above it.
        reads = 0
        checked = CountingSlices(d.slices)
        assert diagram_module._in_canonical_order(checked)
        assert reads - (n - 1) <= n - 1

    @staticmethod
    def front_candidates(entries):
        out = []
        for j in range(len(entries)):
            cur, cur_id = entries[j]
            above = list(entries[:j])
            ok = True
            for k in range(j - 1, -1, -1):
                a, a_id = above[k]
                if not _commute(a, cur):
                    ok = False
                    break
                cur, a2 = _swap(a, cur)
                above[k] = (a2, a_id)
            if ok:
                out.append((cur, cur_id, above + entries[j + 1:]))
        return out

    @classmethod
    def recursive_lex_min(cls, entries):
        if not entries:
            return []
        candidates = cls.front_candidates(entries)
        best_key = min((c[0].offset, c[0].gen.name) for c in candidates)
        tied = [c for c in candidates if (c[0].offset, c[0].gen.name) == best_key]
        best = None
        for front, front_id, rest in tied:
            tail = cls.recursive_lex_min(rest)
            tail_key = [(s.offset, s.gen.name) for s, _ in tail]
            if best is None or tail_key < best[0]:
                best = (tail_key, [(front, front_id)] + tail)
        return best[1]

    @staticmethod
    def parallel(k):
        return Diagram(0, tuple(Slice(0, ETA) for _ in range(k)))

    def test_matches_recursive_search(self):
        rng = random.Random(20261018)
        for n in range(5000):
            d = random_diagram(self.SIG, rng, max_slices=4 + n % 6, max_width=4)
            canon, ids = canonical_form_with_ids(d)
            expected = self.recursive_lex_min(
                [(s, i) for i, s in enumerate(d.slices)]
            )
            assert list(zip(canon.slices, ids)) == expected, d

    def test_long_comb_no_recursion_error(self):
        # A right comb of 1,500 mu is already canonical; the recursive
        # search overflowed the stack on it.
        n = 1500
        d = Diagram(n + 1, tuple(Slice(m - 1, MU) for m in range(n, 0, -1)))
        assert canonical_form(d) == d

    def test_parallel_eta(self):
        canon = canonical_form(self.parallel(12))
        assert canon.slices == tuple(Slice(0, ETA) for _ in range(12))

    @staticmethod
    def side_by_side(k):
        """``eta * ... * eta``: k units, each right of the ones above."""
        return Diagram(0, tuple(Slice(i, ETA) for i in range(k)))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_parallel_eta_ids_match_recursive_search(self, k):
        for d in (self.parallel(k), self.side_by_side(k)):
            canon, ids = canonical_form_with_ids.__wrapped__(d)
            expected = self.recursive_lex_min(
                [(s, i) for i, s in enumerate(d.slices)])
            assert list(zip(canon.slices, ids)) == expected, d

    @pytest.mark.parametrize("k", [6, 8, 10, 12])
    def test_parallel_eta_branch_count(self, k, monkeypatch):
        # Every tie is among free units, so no round splits: one emission
        # per round, k in all.  Forking each tie made round r emit C(k, r)
        # times, 2^k - 1 in all.
        emits = {}
        emit = diagram_module._Branch.emit

        def counting_emit(self, x):
            r = k + 1 - len(self.remaining)
            emits[r] = emits.get(r, 0) + 1
            emit(self, x)

        monkeypatch.setattr(diagram_module._Branch, "emit", counting_emit)
        for d in (self.parallel(k), self.side_by_side(k)):
            emits.clear()
            canonical_form_with_ids.__wrapped__(d)
            assert emits == {r: 1 for r in range(1, k + 1)}


class TestFreeUnitTies:
    """A tie among free units emits only the rightmost one instead of
    forking.  The full tie search is ``_lex_min`` with ``_free_units``
    finding none, and it must give the same entries."""

    SIG = Signature("Units", (MU, ETA, GeneratorSym("delta", 1, 2),
                              GeneratorSym("eps", 1, 0),
                              GeneratorSym("cup", 0, 2),
                              GeneratorSym("iota", 0, 1)), is_prop=True)

    @classmethod
    def random_with_units(cls, rng, max_slices):
        """Two to ``max_slices`` slices, no wider than 5, units drawn three
        times as often, redrawn until it holds two free units or more."""
        gens = cls.SIG.all_generators()
        while True:
            w0 = w = rng.randint(0, 2)
            slices = []
            for _ in range(rng.randint(2, max_slices)):
                options = [Slice(off, g) for g in gens
                           for off in range(w - g.arity + 1)
                           if w - g.arity + g.coarity <= 5]
                weights = [3 if (s.gen.arity, s.gen.coarity) == (0, 1) else 1
                           for s in options]
                s = rng.choices(options, weights)[0]
                slices.append(s)
                w += s.gen.coarity - s.gen.arity
            if len(free_units_oracle(slices)) >= 2:
                return Diagram(w0, tuple(slices))

    @staticmethod
    def full_search(monkeypatch, d, window=()):
        with monkeypatch.context() as m:
            m.setattr(diagram_module, "_free_units", lambda d: {})
            return diagram_module._lex_min(d, window)

    @staticmethod
    def outcome(f, *args):
        try:
            return f(*args)
        except Exception as e:
            return type(e)

    def test_matches_full_search(self, monkeypatch):
        rng = random.Random("free-units")
        for _ in range(2000):
            d = self.random_with_units(rng, 10)
            assert diagram_module._free_units(d) == free_units_oracle(d.slices)
            assert (diagram_module._lex_min(d)
                    == self.full_search(monkeypatch, d)), d

    def test_windows_match_full_search(self, monkeypatch):
        # Windows read from closure members, as ``find_matches`` hands them.
        rng = random.Random("free-unit-windows")
        for _ in range(200):
            d = self.random_with_units(rng, 7)
            members = exchange_closure_with_ids(d)
            for _ in range(3):
                _, ids = rng.choice(members)
                i = rng.randrange(len(ids))
                window = ids[i: rng.randint(i + 1, len(ids))]
                expected = self.outcome(self.full_search, monkeypatch,
                                        d, window)
                assert self.outcome(diagram_module._lex_min, d,
                                    window) == expected, (d, window)

    @pytest.mark.parametrize("text, ids", [
        ("(id 1 * eta * id 1) ; (id 2 * eta * id 1)", (1, 0)),
        ("eta ; (eta * id 1)", (0, 1)),
        # The left unit is consumed: its tie still forks, and the branch
        # that emits it first wins.
        ("eta ; (eta * id 1) ; (delta * id 1)", (1, 2, 0)),
    ])
    def test_pinned_unit_ids(self, text, ids):
        d = parse_diagram(text, self.SIG)
        assert canonical_form_with_ids.__wrapped__(d)[1] == ids

    def test_free_units_map(self):
        d = parse_diagram("eta ; (eta * id 1) ; (delta * id 1) ; (id 2 * eta * id 1)",
                          self.SIG)
        assert diagram_module._free_units(d) == {0: 3, 3: 2}
        # Consumed by the symmetry: not free.
        d = parse_diagram("(eta * id 1) ; tau", self.SIG)
        assert diagram_module._free_units(d) == {}

    def test_free_units_match_the_oracle(self):
        # Every small diagram, coarity-0 ``eps`` and ``0 -> 2`` ``cup``
        # included; at least one with two free units or more.
        several = 0
        for d in all_diagrams(self.SIG, 3, 3, max_width=5):
            units = free_units_oracle(d.slices)
            assert diagram_module._free_units(d) == units, d
            several += len(units) >= 2
        assert several


class TestCanonicalOrderCheck:
    """``canonical_form_with_ids`` answers a diagram already in canonical
    order (``_in_canonical_order``) without ``_lex_min``; every other one,
    ties included, goes to ``_lex_min``."""

    SIG = Signature("Seven", (MU, ETA, GeneratorSym("eps", 1, 0),
                              GeneratorSym("delta", 1, 2),
                              GeneratorSym("bubble", 0, 0),
                              GeneratorSym("phi", 1, 1)), is_prop=True)

    def test_matches_lex_min_on_all_small_diagrams(self):
        # Every diagram of at most four slices, no wider than 3, over units,
        # counits, splits, merges, the symmetry, a 0 -> 0 bubble and a
        # 1 -> 1 generator: where the check fires, ``_lex_min`` keeps every
        # slice where it is.
        ds = all_diagrams(self.SIG, 4, 3, max_width=3)
        assert len(ds) == 79_500
        fired = 0
        for d in ds:
            entries = diagram_module._lex_min(d)
            if diagram_module._in_canonical_order(d.slices):
                fired += 1
                assert entries == list(zip(d.slices, range(len(d)))), d
            canon, ids = canonical_form_with_ids.__wrapped__(d)
            assert list(zip(canon.slices, ids)) == entries, d
        assert fired == 14_381

    @staticmethod
    def lex_min_calls(monkeypatch, d):
        calls = []
        lex_min = diagram_module._lex_min

        def counting(d, window=()):
            calls.append(d)
            return lex_min(d, window)

        monkeypatch.setattr(diagram_module, "_lex_min", counting)
        canonical_form_with_ids.__wrapped__(d)
        return len(calls)

    @pytest.mark.parametrize("text", [
        " * ".join(["mu"] * 1000),
        "(mu * id 1) ; mu",
        "(eta * id 2) ; (id 1 * mu) ; mu",
    ])
    def test_canonical_input_builds_no_branch(self, text, mon_sig, monkeypatch):
        d = parse_diagram(text, mon_sig)

        def refuse(cls, slices):
            raise AssertionError("a _Branch was built")

        monkeypatch.setattr(diagram_module._Branch, "start", classmethod(refuse))
        assert canonical_form_with_ids.__wrapped__(d) == (d, tuple(range(len(d))))

    @pytest.mark.parametrize("k", [2, 5])
    def test_parallel_eta_tie_goes_to_lex_min(self, k, monkeypatch):
        # ``eta`` at offsets 0 .. k - 1: each walks up to offset 0 and ties.
        d = TestIterativeCanonicalForm.side_by_side(k)
        assert self.lex_min_calls(monkeypatch, d) == 1

    def test_coarity0_example_goes_to_lex_min(self, monkeypatch):
        # The example of ``test_coarity0_idempotence_known_gap``: the
        # diagram and its canonical form, whose own form differs from it.
        sig = Signature("MuEtaEps", (MU, ETA, GeneratorSym("eps", 1, 0)))
        d = parse_diagram("(mu * id 2) ; (id 1 * eta * id 2) ; (eps * id 3)", sig)
        canon = parse_diagram("(mu * id 2) ; (eps * id 2) ; (eta * id 2)", sig)
        assert canonical_form_with_ids.__wrapped__(d)[0] == canon
        for e in (d, canon):
            assert self.lex_min_calls(monkeypatch, e) == 1


class TestExchangeStates:
    """``_cuts`` and ``_blocks`` search the states of ``_Branch``, which keep
    each walk between emissions.  The search that re-walks every remaining
    slice at every cut (``fronts_cuts`` and ``fronts_blocks``) is their
    reference: the same entries, the same splits, in the same order."""

    SMALL = Signature("Small", (MU, ETA, GeneratorSym("delta", 1, 2),
                                GeneratorSym("eps", 1, 0),
                                GeneratorSym("bubble", 0, 0)))
    PROP = Signature("MuEta", (MU, ETA), is_prop=True)

    @staticmethod
    def assert_matches_oracle(d):
        assert list(_cuts(d)) == list(fronts_cuts(d)), print_diagram(d)
        assert list(_blocks(d)) == list(fronts_blocks(d)), print_diagram(d)

    def test_all_small_diagrams(self):
        # Up to three slices, no wider than 4 anywhere: over units, counits,
        # splits, merges and a 0 -> 0 bubble, and over the prop {mu, eta}.
        ds = (all_diagrams(self.SMALL, 3, 2, max_width=4)
              + all_diagrams(self.PROP, 3, 3, max_width=4))
        assert len(ds) == 3_013
        for d in ds:
            self.assert_matches_oracle(d)

    def test_random_diagrams(self):
        rng = random.Random("exchange-states")
        for n in range(200):
            sig = (self.SMALL, self.PROP)[n % 2]
            d = random_diagram(sig, rng, max_slices=6, max_width=4)
            while len(d.slices) < 4:
                d = random_diagram(sig, rng, max_slices=6, max_width=4)
            self.assert_matches_oracle(d)


class TestInterchange:
    def test_interchange_law_random(self, mon_sig):
        rng = random.Random(77)
        for _ in range(200):
            f = random_diagram(mon_sig, rng, max_slices=3, max_width=4)
            g = random_diagram(mon_sig, rng, max_slices=3, max_width=4)
            h = random_diagram(mon_sig, rng, max_slices=3, max_width=4)
            k = random_diagram(mon_sig, rng, max_slices=3, max_width=4)
            # Force the boundaries to compose by re-rooting h and k.
            h = Diagram(f.output_width, ())
            k = Diagram(g.output_width, ())
            lhs = hcomp(f, g).vcomp(hcomp(h, k))
            rhs = hcomp(f.vcomp(h), g.vcomp(k))
            assert diagram_equal(lhs, rhs)

    def test_interchange_law_generators(self, mon_sig):
        mu = generator_diagram(MU)
        eta = generator_diagram(ETA)
        lhs = hcomp(mu, eta).vcomp(hcomp(identity(1), identity(1)))
        rhs = hcomp(mu.vcomp(identity(1)), eta.vcomp(identity(1)))
        assert diagram_equal(lhs, rhs)
        # The genuinely non-trivial instance: slide eta past mu.
        lhs2 = hcomp(mu, identity(0)).vcomp(hcomp(identity(1), eta))
        rhs2 = hcomp(identity(2), eta).vcomp(hcomp(mu, identity(1)))
        assert diagram_equal(lhs2, rhs2)


#: Bad expressions over mon and the exact message each must raise.
ERROR_CASES = [
    ("", "unexpected end of input"),
    ("mu ;", "unexpected end of input"),
    ("((mu * id 1) ; mu", "unexpected end of input"),
    ("mu ; (eta", "unexpected end of input"),
    ("(mu mu)", "expected ')' but found 'mu' at line 1, column 5"),
    ("(id 1 * mu eta", "expected ')' but found 'eta' at line 1, column 12"),
    ("mu )", "trailing input ')' at line 1, column 4"),
    ("mu eta", "trailing input 'eta' at line 1, column 4"),
    ("id", "unexpected end of input"),
    ("id mu", "expected a natural after 'id' at line 1, column 4"),
    ("mu ;\n  id x", "expected a natural after 'id' at line 2, column 6"),
    ("mu * nu", "unknown generator 'nu' at line 1, column 6"),
    (";", "unexpected token ';' at line 1, column 1"),
    ("mu * * eta", "unexpected token '*' at line 1, column 6"),
    ("()", "unexpected token ')' at line 1, column 2"),
    ("(mu ; eta)", "width mismatch in ';': 1 vs 0"),
    ("mu ; mu ; )", "width mismatch in ';': 1 vs 2"),
    ("(mu ; mu) ; !", "unexpected character '!' at line 1, column 13"),
    ("mu ( !", "unexpected character '!' at line 1, column 6"),
]


class TestGrammar:
    def test_alpha_source(self, mon_sig):
        d = parse_diagram("(mu * id 1) ; mu", mon_sig)
        assert d.input_width == 3
        assert d.slices == (Slice(0, MU), Slice(0, MU))

    def test_id(self, mon_sig):
        assert parse_diagram("id 2", mon_sig) == identity(2)

    def test_omega3_source(self, mon_sig):
        d = parse_diagram("(eta * eta) ; mu", mon_sig)
        assert d.input_width == 0
        assert d.output_width == 1
        assert len(d) == 3

    def test_tau_in_prop(self, prop_sig):
        d = parse_diagram("tau ; mu", prop_sig)
        assert [s.gen.name for s in d.slices] == ["tau", "mu"]

    def test_round_trip(self, mon_sig):
        rng = random.Random(5)
        for _ in range(300):
            d = random_diagram(mon_sig, rng)
            assert diagram_equal(parse_diagram(print_diagram(d), mon_sig), d)

    def test_syntax_error_position(self, mon_sig):
        with pytest.raises(ParseError, match="line 1"):
            parse_diagram("mu ; ;", mon_sig)

    def test_unknown_generator(self, mon_sig):
        with pytest.raises(ParseError, match="unknown generator"):
            parse_diagram("zeta", mon_sig)

    def test_width_mismatch(self, mon_sig):
        with pytest.raises(ParseError, match="width mismatch"):
            parse_diagram("mu ; mu", mon_sig)

    @pytest.mark.parametrize("text, message", ERROR_CASES)
    def test_error_messages(self, mon_sig, text, message):
        with pytest.raises(ParseError) as exc:
            parse_diagram(text, mon_sig)
        assert str(exc.value) == message

    def test_deep_nesting(self, mon_sig):
        depth = 100_000
        d = parse_diagram("(" * depth + "mu" + ")" * depth, mon_sig)
        assert d == generator_diagram(MU)


def parse_outcome(parse, text, sig):
    """The diagram ``parse`` builds, or the type and message it raises."""
    try:
        return parse(text, sig)
    except Exception as exc:
        return type(exc).__name__, str(exc)


class TestParserOracle:
    """``parse_diagram`` (one regular expression, one ``Diagram`` at the end)
    against the character loop and stack parser in ``parse_oracle``: the
    same diagram, or the same error type and message, on every input."""

    EDGE_CASES = [
        "id \u0661\u0662",  # Arabic-Indic digits: a natural
        "id \u00b2",  # superscript two: a digit, not decimal
        "\u2167",  # Roman numeral eight: numeric, not a letter
        "\u00e9",
        "_x",
        "mu2",
        "12mu",
        "id 2",
        "mu *\u3000mu",  # ideographic space
        "(mu * id 1)\r\n;\tmu ;\n\n  (eta\n * !)",
        "mu ;\n\n\t id \u00b2",
        "mu\u2028;\x0bmu ; #",
        "",
        "  \n\t",
        "id 0 ; id 0",
    ]

    def assert_agrees(self, text, sig):
        assert (parse_outcome(parse_diagram, text, sig)
                == parse_outcome(oracle_parse_diagram, text, sig)), repr(text)

    @pytest.mark.parametrize("text, message", ERROR_CASES)
    def test_error_messages(self, mon_sig, text, message):
        assert parse_outcome(oracle_parse_diagram, text, mon_sig) == (
            "ParseError", message)
        self.assert_agrees(text, mon_sig)

    def test_edge_cases(self, mon_sig, prop_sig):
        for text in self.EDGE_CASES:
            self.assert_agrees(text, mon_sig)
            self.assert_agrees(text, prop_sig)

    @staticmethod
    def respaced(d, rng):
        """``print_diagram(d)`` with redundant parentheses round some terms
        and generators and round the whole, each space replaced by a random
        run of spaces, tabs and line breaks, and each parenthesis padded
        by such a run or by nothing."""
        def wrap(word):
            name = word.strip("()")
            if name in ("id", "*") or name.isdigit() or rng.random() >= 0.3:
                return word
            return word.replace(name, f"({name})")

        terms = []
        for term in print_diagram(d).split(" ; "):
            term = " ".join(wrap(w) for w in term.split(" "))
            terms.append(f"( {term} )" if rng.random() < 0.3 else term)
        text = "(" * (k := rng.randint(0, 3)) + " ; ".join(terms) + ")" * k
        gaps = ["", " ", "\t", "\n", " \n\t ", "\r\n"]
        out = []
        for c in text:
            if c == " ":
                # A space between two words must stay a gap.
                out.append(rng.choice(gaps[1:]))
            elif c in "()":
                out.append(rng.choice(gaps) + c + rng.choice(gaps))
            else:
                out.append(c)
        return "".join(out)

    @pytest.mark.parametrize("preset", ["mon", "sym_prime", "br"])
    def test_printed_random_diagrams(self, preset):
        sig = get_preset(preset).polygraph.signature
        rng = random.Random(preset)
        broken = 0
        for _ in range(300):
            d = random_diagram(sig, rng, max_slices=8)
            text = self.respaced(d, rng)
            assert parse_diagram(text, sig) == d, repr(text)
            self.assert_agrees(text, sig)
            # And with one character inserted or deleted, which mostly
            # breaks the text at some line and column.
            i = rng.randrange(len(text) + 1)
            if rng.random() < 0.5 and i < len(text):
                bad = text[:i] + text[i + 1:]
            else:
                bad = text[:i] + rng.choice("!)(;*\u00b2\u00e9 7\n") + text[i:]
            out = parse_outcome(oracle_parse_diagram, bad, sig)
            broken += isinstance(out, tuple)
            self.assert_agrees(bad, sig)
        assert broken > 100
