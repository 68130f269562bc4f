"""Termination certificates: interpretation X plus derivation ∂, grid-checked.

A certificate interprets each generator ``g : m => k`` by ``k`` monotone
expressions ``X_g`` in ``m`` variables (values flow through the diagram) and
one expression ``D_g`` (the local weight).  The derivation of a diagram is
computed slice-wise from the two laws

    ∂(f ⋆₀ g) = ∂f + ∂g        ∂(f ⋆₁ g) = ∂f + ∂g ∘ X(f)

i.e. each slice contributes its weight evaluated at the values reaching its
inputs.  A rule certifies decrease when ``X(lhs) ≥ X(rhs)`` componentwise and
``∂(lhs) > ∂(rhs)`` for all inputs; the checker verifies this on the finite
grid ``{1..B}^m`` and labels the outcome *evidence*, not proof — adequate for
the linear interpretations in scope, which decrease on all of ℕ∖{0} iff they
decrease on a small grid.

Expressions are built from variables, natural constants, ``+`` and
``max(…,…)`` only, so everything in the DSL is monotone by construction.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .diagram import Diagram, PolyrewError, Signature
from .rewrite import Polygraph


class TerminationError(PolyrewError):
    """Raised for malformed interpretations or evaluation errors."""


# -- monotone expressions -------------------------------------------------


class MonotoneExpr:
    """Base class; subclasses are Var, Const, Add, Max."""

    def eval(self, args: tuple[int, ...]) -> int:
        raise NotImplementedError

    def __str__(self):
        return _text(self)


@dataclass(frozen=True)
class Var(MonotoneExpr):
    index: int  # 0-based position in the generator's variable list

    def eval(self, args):
        return args[self.index]

    def __str__(self):
        return f"x{self.index + 1}"


@dataclass(frozen=True)
class Const(MonotoneExpr):
    value: int

    def eval(self, args):
        return self.value

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class Add(MonotoneExpr):
    left: MonotoneExpr
    right: MonotoneExpr

    def eval(self, args):
        # The parser nests sums to the left: walk that spine in a loop, and
        # each right operand that is itself a sum the same way, from a stack
        # of nested pairs, so a flat sum builds no list.  ``check_decrease``
        # calls this per grid point and slice; going through ``_eval`` made
        # a flat sum three times as slow.
        total, e, todo = 0, self, None
        while True:
            while type(e) is Add:
                if type(e.right) is Add:
                    todo = e.right, todo
                else:
                    total += e.right.eval(args)
                e = e.left
            total += e.eval(args)
            if todo is None:
                return total
            e, todo = todo


@dataclass(frozen=True)
class Max(MonotoneExpr):
    left: MonotoneExpr
    right: MonotoneExpr

    def eval(self, args):
        return _eval(self, args)


def _eval(e: MonotoneExpr, args: tuple[int, ...]) -> int:
    """``e`` at ``args``, in postorder from an explicit stack: an operator's
    class, pushed below its operands, combines their two values.  Nesting of
    either kind, alternating or not, is not bounded by the recursion limit."""
    vals, todo = [], [e]
    while todo:
        e = todo.pop()
        if e is Add:
            b = vals.pop()
            vals[-1] += b
        elif e is Max:
            b = vals.pop()
            if b > vals[-1]:
                vals[-1] = b
        elif type(e) is Add or type(e) is Max:
            todo += type(e), e.right, e.left
        else:
            vals.append(e.eval(args))
    return vals[0]


def _text(e: MonotoneExpr) -> str:
    """``e`` printed as ``a + b + c`` and ``max(a, b)``; a sum needs no
    parentheses, so it prints flat however it nests.  Pieces are popped from
    an explicit stack, so nesting of either kind is not bounded by the
    recursion limit."""
    out, todo = [], [e]
    while todo:
        e = todo.pop()
        if type(e) is Max:
            todo += ")", e.right, ", ", e.left, "max("
        elif type(e) is Add:
            todo += e.right, " + ", e.left
        else:
            out.append(str(e))
    return "".join(out)


#: A token of the grammar, or (the second group) any other character.
_TOKEN = re.compile(r"(\d+|\w+|[+(),])|(\S)")


def _parse_sums(text: str, variables: tuple[str, ...],
                listed: bool) -> list[MonotoneExpr]:
    """The sum ``expr := atom ('+' atom)*`` in ``text``, ``atom := nat | var
    | 'max' '(' expr ',' expr ')' | '(' expr ')'``, or if ``listed`` those
    between its top-level commas, blank ones dropped.  A character the
    grammar does not define is an error.  One loop with an explicit stack,
    so nesting is not bounded by the recursion limit."""
    toks = []
    for tok, other in _TOKEN.findall(text):
        if other:
            raise TerminationError(
                f"unexpected character {other!r} in expression")
        toks.append(tok)
    pos = 0
    # ``stack`` holds per open parenthesis its kind, the sum left of it and
    # max's first argument; ``acc`` is the sum read so far inside it.
    stack, acc, out = [], None, []

    def peek():  # a top-level comma ends a listed sum as end of input would
        tok = toks[pos] if pos < len(toks) else None
        return None if listed and tok == "," and not stack else tok

    def take(want=None):
        nonlocal pos
        tok = peek()
        if tok is None:
            raise TerminationError("unexpected end of expression")
        if want and tok != want:
            raise TerminationError(f"expected {want!r}, found {tok!r}")
        pos += 1
        return tok

    while True:
        if listed and not stack and acc is None and peek() is None:
            if pos == len(toks):
                return out
            pos += 1
            continue
        tok = take()
        if tok in ("(", "max"):
            if tok == "max":
                take("(")
            stack.append((tok, acc, None))
            acc = None
            continue
        if tok.isdecimal():
            e = Const(int(tok))
        elif tok in variables:
            e = Var(variables.index(tok))
        else:
            raise TerminationError(f"unknown token {tok!r} in expression")
        # After an atom: '+' extends the sum; otherwise each closing token
        # ends the innermost parenthesis, whose value is the next atom out.
        while True:
            acc = e if acc is None else Add(acc, e)
            tok = peek()
            if tok == "+":
                pos += 1
                break
            if not stack:
                if tok is not None:
                    raise TerminationError(
                        f"trailing token {tok!r} in expression")
                out.append(acc)
                if pos == len(toks):
                    return out
                acc, pos = None, pos + 1
                break
            kind, outer, first = stack[-1]
            if kind == "max" and first is None:
                take(",")
                stack[-1], acc = (kind, outer, acc), None
                break
            take(")")
            stack.pop()
            e, acc = (acc if kind == "(" else Max(first, acc)), outer


def parse_expr(text: str, variables: tuple[str, ...]) -> MonotoneExpr:
    return _parse_sums(text, variables, False)[0]


# -- interpretations ------------------------------------------------------


#: Default interpretation of the prop symmetry: swap values, zero weight.
TAU_X = (Var(1), Var(0))
TAU_D = Const(0)


@dataclass(frozen=True)
class Interpretation:
    """Per-generator X (value flow) and D (derivation weight) entries."""

    x_entries: dict  # name -> tuple[MonotoneExpr, ...], length = coarity
    d_entries: dict  # name -> MonotoneExpr
    grid_bound: int = 4
    #: ("X" or "d", name) -> length of the entry's declared variable list,
    #: for entries read from text
    declared: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.grid_bound < 2:
            raise TerminationError("grid bound must be at least 2")

    def x_of(self, name: str) -> tuple[MonotoneExpr, ...]:
        if name in self.x_entries:
            return tuple(self.x_entries[name])
        if name == "tau":
            return TAU_X
        raise TerminationError(f"no X entry for generator {name!r}")

    def d_of(self, name: str) -> MonotoneExpr:
        if name in self.d_entries:
            return self.d_entries[name]
        if name == "tau":
            return TAU_D
        raise TerminationError(f"no d entry for generator {name!r}")

    def check_covers(self, sig: Signature) -> None:
        for name in (*self.x_entries, *self.d_entries):
            if not sig.has(name):
                raise TerminationError(
                    f"an entry for {name} names no generator of {sig.name}")
        for g in sig.all_generators():
            xs = self.x_of(g.name)
            if len(xs) != g.coarity:
                raise TerminationError(
                    f"X entry for {g.name} has {len(xs)} components, "
                    f"expected {g.coarity}"
                )
            try:  # each entry reads at most the generator's arity values
                for e in (*xs, self.d_of(g.name)):
                    e.eval((1,) * g.arity)
            except IndexError:
                raise TerminationError(f"an entry for {g.name} reads more "
                                       f"than {g.arity} variable(s)") from None
            count = max(self.declared.get((kind, g.name), 0) for kind in "Xd")
            if count > g.arity:
                raise TerminationError(
                    f"an entry for {g.name} declares {count} variables, more "
                    f"than its arity {g.arity}"
                )


def _walk(d: Diagram, inputs: list[int],
          interp: Interpretation) -> tuple[list[int], int]:
    """Propagate input values through ``d`` slice by slice; return the
    output values and the derivation ∂, each slice's weight evaluated at
    the values reaching its inputs."""
    if len(inputs) != d.input_width:
        raise TerminationError(
            f"expected {d.input_width} input values, got {len(inputs)}"
        )
    values = list(inputs)
    total = 0
    for s in d.slices:
        args = tuple(values[s.offset: s.offset + s.gen.arity])
        total += interp.d_of(s.gen.name).eval(args)
        outs = [e.eval(args) for e in interp.x_of(s.gen.name)]
        values[s.offset: s.offset + s.gen.arity] = outs
    return values, total


def eval_X(d: Diagram, inputs: list[int], interp: Interpretation) -> list[int]:
    """Propagate input values through ``d`` slice by slice."""
    return _walk(d, inputs, interp)[0]


def eval_deriv(d: Diagram, inputs: list[int], interp: Interpretation) -> int:
    """The derivation ∂ of ``d`` at the given input values."""
    return _walk(d, inputs, interp)[1]


# -- the grid certificate -------------------------------------------------


@dataclass(frozen=True)
class RuleCheck:
    rule: str
    passed: bool
    failing_tuple: tuple[int, ...] | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "passed": self.passed,
            "failing_tuple": list(self.failing_tuple) if self.failing_tuple else None,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CertificateReport:
    rule_checks: tuple[RuleCheck, ...]
    grid_bound: int

    @property
    def passed(self) -> bool:
        return all(rc.passed for rc in self.rule_checks)

    @property
    def verdict(self) -> str:
        status = "passed" if self.passed else "FAILED"
        return (
            f"grid certificate {status} (evidence, not proof; "
            f"B={self.grid_bound})"
        )

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "verdict": self.verdict,
            "grid_bound": self.grid_bound,
            "rules": [rc.to_dict() for rc in self.rule_checks],
        }


#: The most grid points ``check_decrease`` walks for one rule.
MAX_GRID_POINTS = 100_000


def check_decrease(p: Polygraph, interp: Interpretation) -> CertificateReport:
    """Check ``X(lhs) ≥ X(rhs)`` and ``∂(lhs) > ∂(rhs)`` on ``{1..B}^m``.

    A rule whose grid has more than ``MAX_GRID_POINTS`` points is refused
    before any rule is checked."""
    interp.check_covers(p.signature)
    bound = interp.grid_bound
    for rule in p.rules:
        points = bound ** rule.lhs.input_width
        if points > MAX_GRID_POINTS:
            raise TerminationError(
                f"the grid for rule {rule.name} has {points} points, more "
                f"than {MAX_GRID_POINTS}; lower the bound")
    checks = []
    for rule in p.rules:
        m = rule.lhs.input_width
        failing = None
        detail = ""
        for tup in itertools.product(range(1, bound + 1), repeat=m):
            xl, dl = _walk(rule.lhs, list(tup), interp)
            xr, dr = _walk(rule.rhs, list(tup), interp)
            if any(a < b for a, b in zip(xl, xr)):
                failing = tup
                detail = f"X values {xl} vs {xr}"
                break
            if not dl > dr:
                failing = tup
                detail = f"∂ values {dl} vs {dr}"
                break
        checks.append(RuleCheck(rule.name, failing is None, failing, detail))
    return CertificateReport(tuple(checks), bound)


# -- the interpretation file format ---------------------------------------


def _once(given: set[str], what: str, lineno: int) -> None:
    if what in given:
        raise TerminationError(f"{what} repeated on interpretation line {lineno}")
    given.add(what)


def parse_interpretation(text: str) -> tuple[str, Interpretation]:
    """Parse the interpretation format; returns (polygraph name, interp).

    Lines: ``interp for <name>``; ``X <gen> (<vars>) = <expr>[, <expr>…]``;
    ``d <gen> (<vars>) = <expr>``; ``bound <B>``; ``#`` comments.  A
    variable list names each variable once; ``check_covers`` rejects a list
    longer than its generator's arity.  A second ``interp for`` or ``bound``
    line, or a second X or d entry for one generator, is rejected.
    """
    name = ""
    x_entries: dict[str, tuple[MonotoneExpr, ...]] = {}
    d_entries: dict[str, MonotoneExpr] = {}
    declared: dict[tuple[str, str], int] = {}
    bound = 4
    given: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"interp\s+for\s+(\w+)", line)
        if m:
            _once(given, "'interp for'", lineno)
            name = m.group(1)
            continue
        m = re.fullmatch(r"bound\s+(\d+)", line)
        if m:
            _once(given, "bound", lineno)
            bound = int(m.group(1))
            continue
        m = re.fullmatch(r"([Xd])\s+(\w+)\s*\(([^)]*)\)\s*=\s*(.*)", line)
        if m:
            kind, gen, vars_text, body = m.groups()
            _once(given, f"{kind} entry for {gen}", lineno)
            variables = tuple(v.strip() for v in vars_text.split(",") if v.strip())
            seen: set[str] = set()
            for v in variables:
                if v in seen:
                    raise TerminationError(
                        f"variable {v!r} repeated in the {kind} entry for "
                        f"{gen} on interpretation line {lineno}"
                    )
                seen.add(v)
            declared[(kind, gen)] = len(variables)
            if kind == "X":
                x_entries[gen] = tuple(_parse_sums(body, variables, True))
            else:
                d_entries[gen] = parse_expr(body, variables)
            continue
        raise TerminationError(f"cannot parse interpretation line {lineno}: {raw!r}")
    return name, Interpretation(x_entries, d_entries, bound, declared)


#: The interpretation that proves Mon₃ terminates: X(μ)(i,j)=i+j, X(η)=1,
#: ∂(μ)(i,j)=i, ∂(η)=0 over ℕ∖{0}.
MON_INTERP_TEXT = """\
interp for Mon
X mu (i, j) = i + j
d mu (i, j) = i
X eta () = 1
d eta () = 0
bound 4
"""


def mon_interpretation() -> Interpretation:
    return parse_interpretation(MON_INTERP_TEXT)[1]


#: Mon's interpretation of μ alone, for As₃, which has no η.
AS_INTERP_TEXT = """\
interp for As
X mu (i, j) = i + j
d mu (i, j) = i
bound 4
"""


def as_interpretation() -> Interpretation:
    return parse_interpretation(AS_INTERP_TEXT)[1]
