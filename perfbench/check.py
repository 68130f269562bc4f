"""Independent output checks for the benchmark.

Nothing here imports polyrew.  Expected answers come from three places:

* a small evaluator for diagram expressions over ``mu``/``eta``/``tau``, in
  which every wire carries the tuple of input leaves that feed it;
* answers pinned by hand from the README and the test suite;
* outcomes that hold by construction of the generated inputs.

Each ``check_*`` function returns ``None`` when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from typing import NamedTuple

#: Arity and coarity of the generator kinds the evaluator understands.
KINDS = {"mu": (2, 1), "eta": (0, 1), "tau": (2, 2)}

#: Hand-pinned answers, from the README and tests/test_acceptance.py,
#: tests/test_cli.py.  ``code`` is the CLI exit code.
PINNED_INFO = {
    "as": {"branchings": 1, "failures": 0, "code": 0},
    "mon": {"branchings": 5, "failures": 0, "code": 0},
    "perm": {"branchings": 5, "failures": 0, "code": 0},
    "sym": {"branchings": 41, "failures": 5, "code": 1},
    "sym_prime": {"branchings": 54, "failures": 5, "code": 1,
                  "proper": 23, "discrepancy": True},
}
PINNED_BASIS = {"as": 1, "mon": 5, "perm": 5}
#: Generators and rule count of each preset's exported polygraph: the
#: S-construction adds ``sym``, ``yb`` and two naturality rules per generator.
PINNED_EXPORT = {
    "as": ({"mu"}, 1, False),
    "mon": ({"mu", "eta"}, 3, False),
    "perm": (set(), 2, True),
    "sym": ({"mu", "eta"}, 10, True),
    "sym_prime": ({"mu", "eta"}, 11, True),
}


class CheckError(Exception):
    """An expression the evaluator cannot read or compose."""


# -- the evaluator ---------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:([A-Za-z_]\w*)|(\d+)|([;*()]))")


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise CheckError(f"cannot read {text[pos:pos + 20]!r}")
        tokens.append(m.group(m.lastindex))
        pos = m.end()
    return tokens


class _Wire(tuple):
    """The leaves on a wire, and ``src``: the ``(generator, output port)``
    that feeds it, or ``None`` for an input wire."""

    def __new__(cls, leaves, src=None):
        wire = super().__new__(cls, leaves)
        wire.src = src
        return wire


class _Diagram:
    """A diagram as its widths plus a list of stages applied top to bottom.

    Each stage maps a tuple of wires to a tuple of wires.  Stages are kept
    in a flat list so that long vertical composites, such as a 600-slice
    comb, evaluate without deep recursion.
    """

    def __init__(self, n_in: int, n_out: int, stages: list):
        self.n_in, self.n_out, self.stages = n_in, n_out, stages

    def apply(self, values: tuple) -> tuple:
        for stage in self.stages:
            values = stage(values)
        return values


def _generator(kind: str, g: int, nodes: dict) -> _Diagram:
    """Generator number ``g``.  When its stage runs it records
    ``nodes[g] = (kind, the src of each input)``."""
    def stage(v):
        nodes[g] = (kind, tuple(w.src for w in v))
        if kind == "mu":
            return (_Wire(v[0] + v[1], (g, 0)),)
        if kind == "eta":
            return (_Wire((), (g, 0)),)
        return (_Wire(v[1], (g, 0)), _Wire(v[0], (g, 1)))
    n_in, n_out = KINDS[kind]
    return _Diagram(n_in, n_out, [stage])


def _beside(left: _Diagram, right: _Diagram) -> _Diagram:
    def stage(v, left=left, right=right):
        return left.apply(v[:left.n_in]) + right.apply(v[left.n_in:])
    return _Diagram(left.n_in + right.n_in, left.n_out + right.n_out, [stage])


class _Parser:
    def __init__(self, text: str):
        self.tokens, self.pos = _tokenize(text), 0
        self.generators = 0

    def take(self) -> str:
        if self.pos >= len(self.tokens):
            raise CheckError("unexpected end of expression")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def expr(self, nodes: dict) -> _Diagram:
        d = self.term(nodes)
        while self.peek() == ";":
            self.take()
            t = self.term(nodes)
            if d.n_out != t.n_in:
                raise CheckError(f"width mismatch {d.n_out} vs {t.n_in}")
            d = _Diagram(d.n_in, t.n_out, d.stages + t.stages)
        return d

    def term(self, nodes: dict) -> _Diagram:
        d = self.atom(nodes)
        while self.peek() == "*":
            self.take()
            d = _beside(d, self.atom(nodes))
        return d

    def atom(self, nodes: dict) -> _Diagram:
        tok = self.take()
        if tok == "(":
            d = self.expr(nodes)
            if self.take() != ")":
                raise CheckError("missing ')'")
            return d
        if tok == "id":
            n = int(self.take())
            return _Diagram(n, n, [])
        if tok in KINDS:
            self.generators += 1
            return _generator(tok, self.generators, nodes)
        raise CheckError(f"unexpected token {tok!r}")


class Denotation(NamedTuple):
    width: int      # input width
    wires: tuple    # the leaf tuple on each output wire
    nodes: dict     # generator -> (kind, the (generator, port) on each input)

    def kinds(self) -> Counter:
        return Counter(kind for kind, _ in self.nodes.values())


def evaluate(text: str) -> Denotation:
    """What an expression denotes when input wire ``i`` carries ``(i,)``,
    and how its generators are wired."""
    parser, nodes = _Parser(text), {}
    d = parser.expr(nodes)
    if parser.peek() is not None:
        raise CheckError(f"trailing input {parser.peek()!r}")
    wires = d.apply(tuple(_Wire((i,)) for i in range(d.n_in)))
    return Denotation(d.n_in, tuple(tuple(w) for w in wires), nodes)


def _same(a, b, commutative: bool) -> bool:
    if commutative:
        return [sorted(w) for w in a] == [sorted(w) for w in b]
    return list(a) == list(b)


def normal_kinds(wires) -> Counter:
    """Generators of an irreducible ``mon`` or ``sym_prime`` normal form:
    ``len - 1`` ``mu`` per nonempty output wire, one ``eta`` per empty one.
    Leaves are never discarded, so every other ``mu`` or ``eta`` would
    leave a unit redex."""
    return Counter(mu=sum(len(w) - 1 for w in wires if w),
                   eta=sum(1 for w in wires if not w))


def redexes(nodes: dict) -> list[str]:
    """The ``sym_prime`` rules (``mon``'s are among them) whose left side
    occurs in the wiring of ``nodes``, as ``evaluate`` records it.

    Every left side is a connected pattern whose inner wires all stay
    inside it, so it occurs up to exchange exactly when the wiring has it.
    """
    def kind(src):
        return nodes[src[0]][0] if src else None

    def fed(src, port):  # the wire ``src`` comes out of ``port`` of a tau
        return kind(src) == "tau" and src[1] == port

    found = []
    for k, ins in nodes.values():
        if k == "mu":
            a, b = ins
            found += [rule for rule, hit in (
                ("alpha", kind(a) == "mu"),
                ("lambda", kind(a) == "eta"),
                ("rho", kind(b) == "eta"),
                ("beta", fed(a, 0) and b == (a[0], 1)),
                ("gamma", fed(a, 0) and kind(b) == "mu"
                 and nodes[b[0]][1][0] == (a[0], 1)),
            ) if hit]
        elif k == "tau":
            a, b = ins
            found += [rule for rule, hit in (
                ("nat_mu_l", kind(a) == "mu"),
                ("nat_mu_r", kind(b) == "mu"),
                ("nat_eta_l", kind(a) == "eta"),
                ("nat_eta_r", kind(b) == "eta"),
                ("sym", fed(a, 0) and b == (a[0], 1)),
                ("yb", fed(a, 0) and fed(b, 0)
                 and nodes[b[0]][1][0] == (a[0], 1)),
            ) if hit]
    return found


# -- per-op checks ----------------------------------------------------------


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_normalize(op: dict, code: int, stdout: str) -> str | None:
    report = _json(stdout)
    if code != 0 or not isinstance(report, dict):
        return f"exit code {code} or unreadable output"
    commutative = op["preset"] == "sym_prime"
    try:
        given = evaluate(op["expr"])
        nf = evaluate(report["normal_form"])
        echo = evaluate(report["input"])
    except (CheckError, KeyError, ValueError) as exc:
        return f"cannot evaluate output: {exc}"
    if (echo.width, list(echo.wires)) != (given.width, list(given.wires)):
        return "echoed input denotes another diagram"
    if nf.width != given.width or not _same(given.wires, nf.wires, commutative):
        return "normal form denotes another operation"
    kinds, want = nf.kinds(), normal_kinds(given.wires)
    if +Counter(mu=kinds["mu"], eta=kinds["eta"]) != +want:
        return f"normal form has {dict(kinds)}, irreducible has {dict(want)}"
    found = redexes(nf.nodes)
    if found:
        return f"normal form has redexes {sorted(set(found))}"
    return None


def check_canonical_eta(op: dict, value) -> str | None:
    # k parallel units: the least slice sequence puts every eta at offset 0.
    if value != {"input_width": 0, "slices": [[0, "eta"]] * op["k"]}:
        return f"unexpected canonical form {value}"
    return None


def check_braid(op: dict, value) -> str | None:
    if value is not op["expect_equal"]:
        return f"braid_equal gave {value}"
    return None


def check_decide(op: dict, code: int, stdout: str) -> str | None:
    report = _json(stdout)
    want = op["expect"]
    if code != (0 if want == "Equal" else 1) or not isinstance(report, dict):
        return f"exit code {code} for expected {want}"
    if report.get("outcome") != want:
        return f"outcome {report.get('outcome')} for expected {want}"
    return None


def check_info(op: dict, code: int, stdout: str) -> str | None:
    pin = PINNED_INFO[op["pin"]]
    report = _json(stdout)
    if code != pin["code"] or not isinstance(report, dict):
        return f"exit code {code}, pinned {pin['code']}"
    got = {
        "branchings": report.get("branching_count"),
        "failures": len(report.get("failures", [])),
        "code": code,
    }
    if "proper" in pin:
        got["proper"] = report.get("proper_count")
        got["discrepancy"] = report.get("discrepancy")
    if got != pin:
        return f"info gave {got}, pinned {pin}"
    return None


def check_basis(op: dict, code: int, stdout: str) -> str | None:
    report = _json(stdout)
    want = PINNED_BASIS[op["pin"]]
    if code != 0 or not isinstance(report, dict) or report.get("count") != want:
        return f"homotopy basis: exit {code}, pinned {want} cells"
    return None


def check_termination(op: dict, code: int, stdout: str) -> str | None:
    report = _json(stdout)
    if code != 0 or not isinstance(report, dict) or report.get("passed") is not True:
        return f"termination certificate: exit {code}"
    return None


def check_export(op: dict, code: int, stdout: str) -> str | None:
    """The exported file lists the pinned generators and rule count, and
    every rule's two sides denote the same operation (as multisets of leaves
    per wire for a prop, as words otherwise)."""
    report = _json(stdout)
    if code != 0 or not isinstance(report, dict):
        return f"export: exit {code}"
    want_gens, want_rules, is_prop = PINNED_EXPORT[op["pin"]]
    gens, rules, prop = set(), 0, False
    for line in report.get("polygraph", "").splitlines():
        if line == "prop":
            prop = True
        elif line.startswith("gen "):
            gens.add(line.split()[1])
        elif line.startswith("rule "):
            rules += 1
            lhs, rhs = line.split(":", 1)[1].split("=>")
            try:
                a, b = evaluate(lhs), evaluate(rhs)
            except CheckError as exc:
                return f"export: cannot evaluate rule {line!r}: {exc}"
            if a.width != b.width or not _same(a.wires, b.wires, prop):
                return f"export: unsound rule {line!r}"
    if (gens, rules, prop) != (want_gens, want_rules, is_prop):
        return f"export: {sorted(gens)}, {rules} rules, prop={prop}"
    return None


CLI_CHECKS = {
    "normalize": check_normalize,
    "decide": check_decide,
    "info": check_info,
    "homotopy-basis": check_basis,
    "termination": check_termination,
    "export": check_export,
}


def check(op: dict, result: dict) -> str | None:
    """Why ``result`` is wrong for ``op``, or ``None`` when it is right."""
    if result.get("error"):
        return result["error"]
    if op["kind"] == "cli":
        return CLI_CHECKS[op["argv"][0]](op, result["code"], result["stdout"])
    if op["kind"] == "canonical_form":
        return check_canonical_eta(op, result["value"])
    return check_braid(op, result["value"])
