"""Coherence for monoidal categories, the rewriting way.

The presentation Mon has one binary cell mu, one nullary cell eta, and the
three rules alpha (associativity), lambda and rho (unit laws).  We certify
termination with a grid certificate, enumerate the critical branchings,
close each one, and conclude asphericity: every diagram of 3-cells commutes,
which is the classical coherence theorem in rewriting clothes.

Run:  python3 demos/01_monoids_are_coherent.py
"""

from polyrew import (
    asphericity_pipeline,
    check_decrease,
    export_identity_generators,
    get_preset,
    homotopy_basis,
    local_confluence,
    normalize,
    parse_diagram,
    print_diagram,
)


def main() -> None:
    preset = get_preset("mon")
    p = preset.polygraph

    print("== The presentation ==")
    for r in p.rules:
        print(f"  {r.name}: {print_diagram(r.lhs)}  =>  {print_diagram(r.rhs)}")

    print("\n== Termination evidence ==")
    cert = check_decrease(p, preset.interp)
    print(" ", cert.verdict)

    print("\n== Normalizing a bracketing of four factors ==")
    d = parse_diagram("(mu * id 2) ; (mu * id 1) ; mu", p.signature)
    nf, trace = normalize(d, p)
    print(f"  {print_diagram(d)}")
    print(f"    --[{len(trace.steps)} steps]-->  {print_diagram(nf)}")

    print("\n== Critical branchings ==")
    results, _ = local_confluence(p)
    for result in results:
        b = result.branching
        n1 = len(result.completion1.steps)
        n2 = len(result.completion2.steps)
        print(
            f"  {b.rules[0]:>6} / {b.rules[1]:<6} on "
            f"{print_diagram(b.source):<42} closed by ({n1}, {n2}) steps"
        )

    print("\n== Homotopy basis ==")
    basis = homotopy_basis(p, interp=preset.interp)
    gens = export_identity_generators(basis)
    print(f"  {len(basis)} generating 4-cells; each boundary is a closed trace:")
    for g in gens:
        print(f"    {len(g.steps)} steps around {print_diagram(g.source)}")

    print("\n== Verdict ==")
    report = asphericity_pipeline(p, interp=preset.interp)
    print(" ", report.verdict)


if __name__ == "__main__":
    main()
