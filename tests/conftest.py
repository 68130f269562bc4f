import pytest

from polyrew.diagram import (
    Diagram, GeneratorSym, Signature, TAU, identity, parse_diagram)
from polyrew.rewrite import Context, Polygraph, Rule

MU = GeneratorSym("mu", 2, 1)
ETA = GeneratorSym("eta", 0, 1)


def identity_context(pattern: Diagram) -> Context:
    """The context that frames ``pattern`` alone: identities above and
    below, no whiskers."""
    return Context(
        identity(pattern.input_width), 0, 0, identity(pattern.output_width)
    )


def make_mon_polygraph() -> Polygraph:
    sig = Signature("Mon", (MU, ETA))
    alpha = Rule(
        "alpha",
        parse_diagram("(mu * id 1) ; mu", sig),
        parse_diagram("(id 1 * mu) ; mu", sig),
    )
    lam = Rule(
        "lambda",
        parse_diagram("(eta * id 1) ; mu", sig),
        parse_diagram("id 1", sig),
    )
    rho = Rule(
        "rho",
        parse_diagram("(id 1 * eta) ; mu", sig),
        parse_diagram("id 1", sig),
    )
    return Polygraph(sig, (alpha, lam, rho))


def cup_polygraph():
    """A prop with a cap ``cup : 0 -> 2``, so that a unit can sit between
    two wires it has no wire to, and rules whose sources are closed."""
    sig = Signature("Cup", (
        GeneratorSym("mu", 2, 1),
        GeneratorSym("eta", 0, 1),
        GeneratorSym("cup", 0, 2),
        GeneratorSym("delta", 1, 2),
    ), is_prop=True)

    def rule(name, lhs, rhs):
        return Rule(name, parse_diagram(lhs, sig), parse_diagram(rhs, sig))

    return Polygraph(sig, (
        rule("fold", "cup ; mu", "eta"),
        rule("unit", "(eta * id 1) ; mu", "id 1"),
        rule("frob", "delta ; mu", "id 1"),
        rule("twist", "cup ; tau", "cup"),
        rule("copy", "eta ; delta", "cup"),
    ))


def make_as_polygraph() -> Polygraph:
    sig = Signature("As", (MU,))
    alpha = Rule(
        "alpha",
        parse_diagram("(mu * id 1) ; mu", sig),
        parse_diagram("(id 1 * mu) ; mu", sig),
    )
    return Polygraph(sig, (alpha,))


@pytest.fixture(scope="session")
def mon_polygraph() -> Polygraph:
    return make_mon_polygraph()


@pytest.fixture(scope="session")
def as_polygraph() -> Polygraph:
    return make_as_polygraph()


@pytest.fixture(scope="session")
def mon_sig() -> Signature:
    return Signature("Mon", (MU, ETA))


@pytest.fixture(scope="session")
def as_sig() -> Signature:
    return Signature("As", (MU,))


@pytest.fixture(scope="session")
def prop_sig() -> Signature:
    return Signature("MonProp", (MU, ETA), is_prop=True)


@pytest.fixture(scope="session")
def tau():
    return TAU
