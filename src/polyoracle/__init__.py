"""polyoracle: constant-degree polynomial formulations for local-subset
problems, oracle cost accounting, arithmetic-circuit verification, and exact
counting reductions for the binary permanent and set cover."""

from .circuits import (
    ArithmeticCircuit,
    PrimeModulus,
    VerificationResult,
    build_circuit_from_polynomial,
    centered_residue,
    circuit_size,
    evaluate_circuit,
    expand_to_polynomial,
    find_prime,
    homogenize,
    verify_circuit,
)
from .errors import (
    ArityMismatch,
    CapExceeded,
    NotPrime,
    PolyOracleError,
    PreconditionViolated,
    StreamTooLarge,
    TooLarge,
    UniverseTooLarge,
    ValueOutOfRange,
)
from .localsubset import (
    BlockVariableAssignment,
    FormulationQuery,
    LSInstance,
    LSProblemSpec,
    brute_solve,
    comparison_tuple_sets,
    compute_assignment,
    evaluate_formulation,
    exact_evaluation_oracle,
    formulation_monomials,
    formulation_polynomial,
    ls_instance,
    solve_via_oracle,
    variable_count,
)
from .oracle import (
    BenchResult,
    OracleCallLog,
    OracleCallRecord,
    RunReport,
    bench_vars,
    logging_oracle,
)
from .permanent import (
    BinaryMatrix,
    FSpec,
    f_count_traces,
    f_expand,
    g_count_dp,
    matrix_from_rows,
    matrix_from_text,
    permanent_brute,
    permanent_via_formulation,
)
from .polynomials import (
    Monomial,
    SparsePolynomial,
    add,
    eval_mod,
    eval_over_integers,
    is_prime,
    multiply,
    polynomial,
    total_degree,
    value_bound,
)
from .problems import (
    H_PRESETS,
    GraphInput,
    KSumInput,
    PatternGraph,
    PointSetInput,
    WeightedGraphInput,
    build_problem,
    encode_collinearity,
    encode_family_induced,
    encode_h_induced,
    encode_ksum,
    encode_max_h_subgraph,
    encode_min_weight_kclique,
)
from .setcover import (
    SetFamily,
    family_from_lists,
    hcv_branch,
    hcv_expand_setcover,
    setcover_min,
    setpartition_via_traces,
    z_var_dp,
)

__version__ = "0.1.0"
