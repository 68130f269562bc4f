"""polyrew: a polygraphic rewriting workbench for 3-polygraphs presenting PROs/PROPs."""

from .diagram import (
    Diagram,
    DiagramError,
    GeneratorSym,
    ParseError,
    Signature,
    Slice,
    TAU,
    canonical_form,
    diagram_equal,
    exchange_closure,
    generator_diagram,
    hcomp,
    identity,
    parse_diagram,
    print_diagram,
    vcomp,
)
from .rewrite import (
    BudgetExceededError,
    Context,
    DEFAULT_BUDGET,
    Match,
    Polygraph,
    RewriteError,
    Rule,
    Step,
    Trace,
    compose_traces,
    find_matches,
    invert_trace,
    normalize,
    parallel,
    parse_polygraph,
    parse_trace,
    print_polygraph,
    print_trace,
    validate_trace,
)
from .termination import (
    CertificateReport,
    Interpretation,
    TerminationError,
    check_decrease,
    eval_X,
    eval_deriv,
    mon_interpretation,
    parse_interpretation,
)
from .critical import (
    Branching,
    ConfluenceDiagram,
    ConfluenceError,
    CriticalError,
    FailureReport,
    PipelineReport,
    asphericity_pipeline,
    check_local_confluence,
    classify_branching,
    close_modulo_structure,
    enumerate_critical_branchings,
    export_identity_generators,
    homotopy_basis,
    s_construction,
    structural_rules,
)
from .braid import (
    BraidError,
    BraidWord,
    GarsideNormalForm,
    block_crossing,
    braid_concat,
    braid_equal,
    braid_inverse,
    garside_nf,
    is_trivial,
    perm_of_braid,
    sigma,
)
from .coherence import (
    CoherenceError,
    Decision,
    Preset,
    braid_of_trace,
    decide_coherence,
    decompose_algebraic,
    get_preset,
    initial_algebra_compose,
    leaf_bundles,
    perm_diagram,
    whisker_top,
)

__all__ = [
    # diagram
    "Diagram", "DiagramError", "GeneratorSym", "ParseError", "Signature",
    "Slice", "TAU", "canonical_form", "diagram_equal", "exchange_closure",
    "generator_diagram", "hcomp", "identity", "parse_diagram",
    "print_diagram", "vcomp",
    # rewrite
    "BudgetExceededError", "Context", "DEFAULT_BUDGET", "Match", "Polygraph",
    "RewriteError", "Rule", "Step", "Trace", "compose_traces",
    "find_matches", "invert_trace", "normalize", "parallel",
    "parse_polygraph", "parse_trace", "print_polygraph", "print_trace",
    "validate_trace",
    # termination
    "CertificateReport", "Interpretation", "TerminationError",
    "check_decrease", "eval_X", "eval_deriv", "mon_interpretation",
    "parse_interpretation",
    # critical
    "Branching", "ConfluenceDiagram", "ConfluenceError", "CriticalError",
    "FailureReport", "PipelineReport", "asphericity_pipeline",
    "check_local_confluence", "classify_branching", "close_modulo_structure",
    "enumerate_critical_branchings", "export_identity_generators",
    "homotopy_basis", "s_construction", "structural_rules",
    # braid
    "BraidError", "BraidWord", "GarsideNormalForm", "block_crossing",
    "braid_concat", "braid_equal", "braid_inverse", "garside_nf",
    "is_trivial", "perm_of_braid", "sigma",
    # coherence
    "CoherenceError", "Decision", "Preset", "braid_of_trace",
    "decide_coherence", "decompose_algebraic", "get_preset",
    "initial_algebra_compose", "leaf_bundles", "perm_diagram", "whisker_top",
]

__version__ = "0.1.0"
