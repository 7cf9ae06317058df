"""quiverforge: stability of twisted quiver representations, decided by a
Kempf-Ness flow (damped Riemannian Newton steps on the metrics), with
destabilizer extraction and an abelian vortex solver on the flat 2-torus."""

from .quiver import (
    Arrow,
    Path,
    PathAlgebraElement,
    Quiver,
    Relation,
    TwistSpec,
    algebra_product,
    basis_paths,
    check_relations,
    compose_paths,
    evaluate_path,
    trivial_path,
)
from .reps import (
    ModuleActionTable,
    SubrepWitness,
    TwistedRep,
    build_rep,
    check_subrep,
    direct_sum,
    from_module,
    invariant_closure,
    tensor_product,
    to_module,
)
from .slope import (
    DegreeData,
    StabilityParams,
    admissibility,
    degree_and_slope,
    reparameterize,
)
from .stability import (
    OracleOptions,
    Verdict,
    destabilizer_extract,
    stability_oracle,
    subrep_degree_identity,
)
from .flow import (
    FiltrationStep,
    FlowOptions,
    FlowReport,
    MetricState,
    PSI_EXP,
    PSI_REMAINDER,
    ScalarFunctionTable,
    adjoint,
    difference_quotient,
    eigen_calculus,
    flow_solve,
    kempf_ness,
    kempf_ness_gradient,
    kempf_ness_metric,
    moment_map_residual,
    phi_norm_sq,
    residual_norm_h,
)
from .torus import (
    PotentialState,
    TorusGrid,
    TorusSystem,
    VortexResult,
    WeightSpec,
    YmhReport,
    build_torus_system,
    flat_case_reduce,
    solve_vortex,
    vortex_residual,
    ymh_identity,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
