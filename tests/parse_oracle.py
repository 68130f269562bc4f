"""The character-loop tokenizer and the stack parser that built a validated
``Diagram`` for every atom, term and chain.

``parse_diagram`` now lexes with one regular expression and builds one
``Diagram`` at the end; these are kept as its reference: on any text both
must give the same ``Diagram``, or a ``ParseError`` with the same message.
"""

from typing import Iterator

from polyrew.diagram import (
    Diagram,
    DiagramError,
    ParseError,
    Signature,
    generator_diagram,
    hcomp,
    identity,
    vcomp,
)


def oracle_tokenize(text: str) -> Iterator[tuple[str, str, int, int]]:
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c.isspace():
            col += 1
            i += 1
        elif c in ";*()":
            yield ("punct", c, line, col)
            col += 1
            i += 1
        elif c.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            yield ("nat", text[i:j], line, col)
            col += j - i
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("ident", text[i:j], line, col)
            col += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {c!r} at line {line}, column {col}")


def oracle_parse_diagram(text: str, sig: Signature) -> Diagram:
    """Parse a diagram expression over ``sig``.

    Grammar: ``expr := term (';' term)*``, ``term := atom ('*' atom)*``,
    ``atom := 'id' nat | ident | '(' expr ')'``.  ``;`` is vertical
    composition read top to bottom, ``*`` horizontal read left to right.
    One loop with an explicit stack, so nesting depth is bounded by memory
    and not by the interpreter's recursion limit.
    """
    tokens = list(oracle_tokenize(text)) + [("end", "", 0, 0)]
    pos = 0
    # One frame per open parenthesis: the finished terms of its ';' chain
    # and the atoms of its current '*' term.
    stack = [([], [])]
    while True:
        kind, value, line, col = tokens[pos]
        pos += 1
        if kind == "end":
            raise ParseError("unexpected end of input")
        if value == "(":
            stack.append(([], []))
            continue
        if value == "id":
            kind, value, line, col = tokens[pos]
            pos += 1
            if kind == "end":
                raise ParseError("unexpected end of input")
            if kind != "nat":
                raise ParseError(
                    f"expected a natural after 'id' at line {line}, column {col}"
                )
            atom = identity(int(value))
        elif kind == "ident":
            try:
                atom = generator_diagram(sig.lookup(value))
            except DiagramError:
                raise ParseError(
                    f"unknown generator {value!r} at line {line}, column {col}"
                ) from None
        else:
            raise ParseError(f"unexpected token {value!r} at line {line}, column {col}")
        stack[-1][1].append(atom)
        # After an atom: '*' extends the term and anything else ends it;
        # each ')' then closes a frame into one atom of the frame below.
        while True:
            kind, value, line, col = tokens[pos]
            if value == "*":
                pos += 1
                break
            terms, atoms = stack[-1]
            t = hcomp(*atoms)
            atoms.clear()
            if terms and terms[-1].output_width != t.input_width:
                raise ParseError(f"width mismatch in ';': "
                                 f"{terms[-1].output_width} vs {t.input_width}")
            terms.append(t)
            if value == ";":
                pos += 1
                break
            chain = vcomp(*terms)
            if len(stack) == 1:
                if kind != "end":
                    raise ParseError(
                        f"trailing input {value!r} at line {line}, column {col}"
                    )
                return chain
            if kind == "end":
                raise ParseError("unexpected end of input")
            if value != ")":
                raise ParseError(
                    f"expected ')' but found {value!r} at line {line}, column {col}"
                )
            pos += 1
            stack.pop()
            stack[-1][1].append(chain)
