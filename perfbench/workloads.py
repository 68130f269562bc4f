"""Seeded op lists for the three workloads.

Every op list is a pure function of the seed.  Ops are JSON objects:

* ``{"kind": "cli", "argv": [...]}`` runs ``polyrew.cli.main(argv)``;
* ``{"kind": "canonical_form", "k": k}`` canonicalizes ``k`` parallel
  ``eta``;
* ``{"kind": "braid_equal", "n": n, "w1": [...], "w2": [...]}`` compares
  two braid words.

Extra keys carry what the checker needs (``expr``, ``expect``, ``pin``...).
Files an op reads are listed under ``files`` and named in ``argv`` as
``{dir}/name``; the runner writes them before the pass starts.  Only the
``decide`` traces need polyrew to be built (its matcher supplies valid
steps); that happens here, in the parent process, outside every timed
interval.
"""

from __future__ import annotations

import random
import sys

import check

ARITY = check.KINDS


def expr(width: int, slices) -> str:
    """Expression text of a slice list ``[(offset, name, arity, coarity)]``."""
    if not slices:
        return f"id {width}"
    parts = []
    for offset, name, arity, coarity in slices:
        right = width - offset - arity
        factors = ([f"id {offset}"] if offset else []) + [name] + (
            [f"id {right}"] if right else [])
        parts.append("(" + " * ".join(factors) + ")")
        width += coarity - arity
    return " ; ".join(parts)


def random_slices(rng: random.Random, names, gens: int, max_width: int):
    """A diagram with exactly ``gens`` generators, every width ``<= max_width``."""
    while True:
        width = rng.randint(1, max_width)
        cur, slices = width, []
        for _ in range(gens):
            options = [
                (name, off) for name in names
                if ARITY[name][0] <= cur
                and cur - ARITY[name][0] + ARITY[name][1] <= max_width
                for off in range(cur - ARITY[name][0] + 1)
            ]
            if not options:
                break
            name, off = rng.choice(options)
            slices.append((off, name) + ARITY[name])
            cur += ARITY[name][1] - ARITY[name][0]
        if len(slices) == gens:
            return width, slices


# -- normalize ---------------------------------------------------------------

#: Diagrams per (preset, generator count).  Sized so that no single random
#: diagram dominates a pass: ``sym_prime`` diagrams with 7 or more generators
#: and ``mon`` diagrams with 7 or more can take seconds to a minute alone,
#: which would make the pass time a lottery on the seed.  The blow-up inputs
#: below carry the long tail instead, with fixed sizes.
NORMALIZE_CELLS = {
    "mon": {1: 14, 2: 14, 3: 14, 4: 16, 5: 20, 6: 24},
    "sym_prime": {1: 14, 2: 14, 3: 16, 4: 20, 5: 27},
}
NORMALIZE_NAMES = {"mon": ("mu", "eta"), "sym_prime": ("mu", "eta", "tau")}


def _normalize_op(preset: str, text: str) -> dict:
    return {"kind": "cli", "preset": preset, "expr": text,
            "argv": ["normalize", "--preset", preset, "--expr", text,
                     "--format", "json"]}


def normalize_ops(seed: int) -> list[dict]:
    rng = random.Random(f"normalize/{seed}")
    ops = []
    for preset, cells in NORMALIZE_CELLS.items():
        for gens, count in cells.items():
            for _ in range(count):
                width, slices = random_slices(rng, NORMALIZE_NAMES[preset], gens, 5)
                ops.append(_normalize_op(preset, expr(width, slices)))
    # Already-normal inputs on which today's matcher blows up.
    for k in (5, 6, 7):
        ops.append(_normalize_op("mon", " * ".join(["mu"] * k)))
    for k in (8, 9, 10):
        ops.append({"kind": "canonical_form", "k": k})
    comb = [(m - 1, "mu", 2, 1) for m in range(600, 0, -1)]
    ops.append(_normalize_op("mon", expr(601, comb)))
    rng.shuffle(ops)
    return ops


# -- analyze -----------------------------------------------------------------

def analyze_ops(seed: int) -> list[dict]:
    def cli(*argv, pin):
        return {"kind": "cli", "pin": pin, "argv": list(argv) + ["--format", "json"]}

    # The info ops come first, in a fixed order: sym and sym_prime share
    # cached canonical forms, so their order changes their cost.
    ops = [cli("info", "--preset", p, pin=p)
           for p in ("as", "mon", "perm", "sym", "sym_prime")]
    # The cheap ops follow in an order drawn from the seed.
    rest = [cli("homotopy-basis", "--preset", "as", pin="as"),
            cli("homotopy-basis", "--preset", "mon", pin="mon"),
            cli("homotopy-basis", "--preset", "perm", "--assume-terminating",
                pin="perm"),
            cli("termination", "--preset", "as", pin="as"),
            cli("termination", "--preset", "mon", pin="mon")]
    # 15 ops: 7 passes give 105 samples, and both op_p50_ms and op_p90_ms
    # then fall in the middle of one op's samples, not between two ops.
    rest += [cli("export", "--preset", p, pin=p)
             for p in ("as", "mon", "perm", "sym", "sym_prime")]
    random.Random(f"analyze/{seed}").shuffle(rest)
    return ops + rest


# -- decide ------------------------------------------------------------------

#: Trace pairs, half Equal and half NotEqual by construction (see
#: ``_TraceMaker.pair``).
DECIDE_PAIRS = 50
TRACE_STEPS = (10, 20)
TRACE_MAX_WIDTH = 4
TRACE_MAX_SLICES = 5
TRACE_MAX_TAU = 2
TRACE_MAX_ETA = 1
#: (strands, letters) of the braid_equal ops; each size is used once with an
#: Equal and once with a NotEqual partner.  The sizes cost about the same
#: today, so the slowest tenth of a pass is one homogeneous group.
BRAID_SIZES = ((4, 170), (5, 120), (6, 100), (5, 130))


def _diagram_expr(d) -> str:
    return expr(d.input_width, [(s.offset, s.gen.name, s.gen.arity, s.gen.coarity)
                                for s in d.slices])


def _trace_text(name: str, source, steps) -> str:
    lines = [f"trace {name} on {_diagram_expr(source)}"]
    for s in steps:
        c = s.context
        sign = "+" if s.direction == "forward" else "-"
        lines.append(f"step {s.rule.name} {sign} top={_diagram_expr(c.top)} "
                     f"left={c.left} right={c.right} bot={_diagram_expr(c.bottom)}")
    return "\n".join(lines) + "\n"


class _TraceMaker:
    """Random walks over the ``br`` polygraph, built with polyrew's matcher."""

    def __init__(self, rng: random.Random, src_path: str):
        sys.path.insert(0, src_path)
        from polyrew import coherence, diagram, rewrite

        self.rng, self.d, self.r = rng, diagram, rewrite
        self.br = coherence.get_preset("br").polygraph

    def small(self, d) -> bool:
        return (max(d.widths()) <= TRACE_MAX_WIDTH and len(d) <= TRACE_MAX_SLICES
                and sum(s.gen.name == "tau" for s in d.slices) <= TRACE_MAX_TAU
                and sum(s.gen.name == "eta" for s in d.slices) <= TRACE_MAX_ETA)

    def random_step(self, at):
        rule = self.rng.choice(self.br.rules)
        direction = self.rng.choice(("forward", "backward"))
        if len(rule.side(direction)) == 0:
            return None
        matches = self.r.find_matches(at, rule.side(direction))
        if not matches:
            return None
        return self.r.Step(rule, direction, self.rng.choice(matches).context)

    def walk(self, want: int, gens: int):
        """A source diagram of ``gens`` generators and ``want`` steps from
        it, every boundary within the size limits."""
        rng = self.rng
        while True:
            width, slices = random_slices(rng, ("mu", "eta", "tau"),
                                          gens, TRACE_MAX_WIDTH)
            source = self.d.parse_diagram(expr(width, slices), self.br.signature)
            if not self.small(source):
                continue
            current, steps = source, []
            for _ in range(want * 8):
                if len(steps) == want:
                    break
                s = self.random_step(current)
                if s is not None and self.small(s.target()):
                    steps.append(s)
                    current = s.target()
            if len(steps) == want:
                return source, steps

    def cancelling_pair(self, steps, at):
        """``steps`` with a random step and its inverse spliced in."""
        for _ in range(200):
            pos = self.rng.randint(0, len(steps))
            s = self.random_step(at[pos])
            if s is not None:
                return steps[:pos] + [s, s.inverse()] + steps[pos:]
        return None

    def square(self, steps, at):
        """The beta-against-whiskered-inverse square at the latest boundary
        with a ``mu`` whose two input leaf bundles are nonempty: the position
        and the steps ``beta^-1``, ``beta^-1`` under the new crossing, and
        the ``sym`` step that closes it."""
        d, r = self.d, self.r
        beta, sym = self.br.rule("beta"), self.br.rule("sym")
        # Latest position first: the square's extra crossings then stay in
        # few boundaries.
        for pos in reversed(range(len(at))):
            for m in r.find_matches(at[pos], beta.rhs):
                c = m.context
                wires = check.evaluate(_diagram_expr(c.top)).wires
                if not (wires[c.left] and wires[c.left + 1]):
                    continue
                cross = d.hcomp(d.identity(c.left), d.generator_diagram(d.TAU),
                                d.identity(c.right))
                mu = d.hcomp(d.identity(c.left), beta.rhs, d.identity(c.right))
                b1 = r.Step(beta, "backward", c)
                b2 = r.Step(beta, "backward",
                            r.Context(c.top.vcomp(cross), c.left, c.right, c.bottom))
                close = r.Step(sym, "forward",
                               r.Context(c.top, c.left, c.right, mu.vcomp(c.bottom)))
                return pos, b1, b2, close
        return None

    def pair(self, source, steps, expect: str):
        """Two parallel traces from ``source`` whose outcome is ``expect``.

        Both traces of a pair carry extra steps, and one of them carries the
        square's crossings, so Equal and NotEqual pairs cost about the same.
        Equal: a random cancelling pair against the nested cancelling pairs
        ``beta^-1, beta^-1, beta, beta``.  NotEqual: ``beta^-1, beta``
        against ``beta^-1, beta^-1, sym``, whose braid is a full twist of two
        nonempty bundles, so the exponent sums differ.
        """
        at = [source] + [s.target() for s in steps]
        found = self.square(steps, at)
        if found is None:
            return None
        pos, b1, b2, close = found
        head, tail = steps[:pos], steps[pos:]
        if expect == "Equal":
            other = self.cancelling_pair(steps, at)
            if other is None:
                return None
            return other, head + [b1, b2, b2.inverse(), b1.inverse()] + tail
        return head + [b1, b1.inverse()] + tail, head + [b1, b2, close] + tail


def _braid_moves(rng: random.Random, letters: list, moves: int) -> list:
    """Rewrite a word by braid relations: far commutation, the braid relation
    on same-sign triples, and inserting a cancelling pair."""
    letters = list(letters)
    for _ in range(moves):
        p = rng.randrange(len(letters))
        kind = rng.random()
        if kind < 0.1:
            i, e = letters[p]
            letters[p:p] = [(i, e), (i, -e)]
        elif kind < 0.55 and p + 2 < len(letters):
            (i, e), (j, f), (k, g) = letters[p:p + 3]
            if i == k and abs(i - j) == 1 and e == f == g:
                letters[p:p + 3] = [(j, e), (i, e), (j, e)]
        elif p + 1 < len(letters):
            (i, e), (j, f) = letters[p:p + 2]
            if abs(i - j) >= 2:
                letters[p:p + 2] = [(j, f), (i, e)]
    return letters


def braid_ops(rng: random.Random) -> list[dict]:
    ops = []
    for n, length in BRAID_SIZES:
        for expect_equal in (True, False):
            word = [(rng.randint(1, n - 1), rng.choice((1, -1)))
                    for _ in range(length)]
            other = list(word)
            if not expect_equal:
                p = rng.randrange(length)
                other[p] = (other[p][0], -other[p][1])
            other = _braid_moves(rng, other, length)
            ops.append({"kind": "braid_equal", "n": n, "expect_equal": expect_equal,
                        "w1": word, "w2": other})
    return ops


def decide_ops(seed: int, src_path: str) -> list[dict]:
    rng = random.Random(f"decide/{seed}")
    maker = _TraceMaker(rng, src_path)
    ops = []
    while len(ops) < DECIDE_PAIRS:
        expect = "Equal" if len(ops) % 2 == 0 else "NotEqual"
        # Sizes cycle through fixed values, so that the cost of a pass does
        # not hinge on how many long walks a seed happens to draw.
        low, high = TRACE_STEPS
        source, steps = maker.walk(low + len(ops) % (high - low + 1), 2 + len(ops) % 4)
        pair = maker.pair(source, steps, expect)
        if pair is None:
            continue
        i = len(ops)
        a, b = f"{{dir}}/t{i}a.tr", f"{{dir}}/t{i}b.tr"
        ops.append({
            "kind": "cli", "expect": expect,
            "files": {a: _trace_text("a", source, pair[0]),
                      b: _trace_text("b", source, pair[1])},
            "argv": ["decide", "--preset", "br", "--trace", a, "--trace", b,
                     "--format", "json"],
        })
    ops += braid_ops(rng)
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int, src_path: str) -> list[dict]:
    if workload == "analyze":
        return analyze_ops(seed)
    if workload == "normalize":
        return normalize_ops(seed)
    return decide_ops(seed, src_path)


WORKLOADS = ("analyze", "normalize", "decide")
