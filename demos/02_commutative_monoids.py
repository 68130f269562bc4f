"""Commutative monoids as a prop, and where forward convergence breaks.

Starting from the monoid presentation we run the S-construction: adjoin the
crossing tau with the symmetry, Yang-Baxter, and per-generator naturality
rules, then add the commutativity cells beta (tau;mu => mu) and gamma.  The
workbench enumerates all critical branchings of the resulting prop
presentation and sorts them into five families; the "proper" ones are the
candidates for a homotopy basis of the quotient.

The punchline: five branchings — exactly those where beta/gamma meet the
Yang-Baxter or right-naturality rule — are NOT joinable by forward
rewriting.  Both normal forms below denote the same commutative-monoid
operation; they differ only by a crossing pattern that forward rewriting
cannot untangle.  The structural cells present equalities of the free
prop, so they may be used backwards, and each branching closes once a
Yang-Baxter cell is; the demo prints those joins.

Run:  python3 demos/02_commutative_monoids.py
"""

from polyrew import (
    classify_branching,
    close_modulo_structure,
    enumerate_critical_branchings,
    get_preset,
    local_confluence,
    print_diagram,
)


def main() -> None:
    preset = get_preset("sym_prime")
    p = preset.polygraph

    print("== The S-constructed presentation ==")
    print(" ", ", ".join(r.name for r in p.rules))

    print("\n== Enumerating critical branchings ==")
    branchings = enumerate_critical_branchings(p)
    print(f"  {len(branchings)} critical branchings")

    tally: dict[str, list] = {}
    for b in branchings:
        tally.setdefault(classify_branching(p, b), []).append(b)
    print("\n== The five families ==")
    for fam in ("sym_yb", "naturality_vs_sym", "left_vs_right_naturality",
                "algebraic_vs_naturality", "proper"):
        print(f"  {fam:<28} {len(tally.get(fam, ()))}")

    print("\n== Local confluence ==")
    _, failures = local_confluence(p)
    print(f"  {len(branchings) - len(failures)} branchings close; "
          f"{len(failures)} do not close by forward rewriting:")
    for f in failures:
        print(f"\n  {f.branching.rules[0]} / {f.branching.rules[1]} on")
        print(f"      {print_diagram(f.branching.source)}")
        print(f"    normal form 1: {print_diagram(f.normal_form1)}")
        print(f"    normal form 2: {print_diagram(f.normal_form2)}")
        closure = close_modulo_structure(p, f)
        joins = [
            steps[len(done.steps):]
            for steps, done in (
                (closure.completion1.steps, f.completion1),
                (closure.completion2.steps, f.completion2),
            )
        ]
        print("    joined modulo structure by: "
              + " | ".join(
                  ", ".join(f"{s.rule.name} {s.direction}" for s in j) or "-"
                  for j in joins
              ))

    print(
        "\nEach failing pair computes the same multilinear operation; the\n"
        "join needs a backward Yang-Baxter step, so the rule set is\n"
        "terminating, not confluent as oriented, but locally confluent\n"
        "modulo the structural congruence.  The proper branchings\n"
        "above are still the raw material for a coherence basis; see the\n"
        "pipeline report (`polyrew info --preset sym_prime`) for the\n"
        "flagged count."
    )


if __name__ == "__main__":
    main()
