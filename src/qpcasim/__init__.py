"""Statevector simulation of eigenvalue-threshold quantum PCA.

A small dense simulator (``sim``), circuit builders for phase estimation
and amplitude encoding (``builders``), a fixed-point eigenvalue
filter (``filtering``), the end-to-end pipeline with a classical reference
(``pipeline``), and gate-budget accounting (``complexity``).
"""

from .builders import (
    PhaseEstimationSpec,
    SpectralPrecisionWarning,
    build_phase_estimation,
    build_register_shift,
    build_state_prep,
    state_prep_tree,
)
from .complexity import CostReport, cost_baseline, cost_proposed, gate_ratio
from .filtering import (
    FilterParams,
    FilterTable,
    FixedPoint,
    ZeroEigenvalue,
    build_filter_table,
    build_filter_unitary,
    default_newton_iters,
    exact_shrink_table,
    newton_reciprocal,
    shrink,
)
from .layout import RegisterLayout
from .pipeline import (
    AllComponentsFiltered,
    HermitianInput,
    NoShotAccepted,
    PipelineInvariantError,
    QpcaConfig,
    QpcaResult,
    ancilla_flip_gate,
    classical_pca_oracle,
    fidelity,
    lambda_register_histogram,
    make_layout,
    run_qpca,
    uncompute,
)
from .sim import (
    Circuit,
    GateOp,
    NonUnitaryMatrixError,
    SimulationError,
    StateVector,
    ZeroProbabilityOutcome,
    apply,
    hadamard,
    post_select,
    ry,
    run,
    sample,
)

__version__ = "0.1.0"

__all__ = [
    "AllComponentsFiltered",
    "Circuit",
    "CostReport",
    "FilterParams",
    "FilterTable",
    "FixedPoint",
    "GateOp",
    "HermitianInput",
    "NoShotAccepted",
    "NonUnitaryMatrixError",
    "PhaseEstimationSpec",
    "PipelineInvariantError",
    "QpcaConfig",
    "QpcaResult",
    "RegisterLayout",
    "SimulationError",
    "SpectralPrecisionWarning",
    "StateVector",
    "ZeroEigenvalue",
    "ZeroProbabilityOutcome",
    "ancilla_flip_gate",
    "apply",
    "build_filter_table",
    "build_filter_unitary",
    "build_phase_estimation",
    "build_register_shift",
    "build_state_prep",
    "classical_pca_oracle",
    "cost_baseline",
    "cost_proposed",
    "default_newton_iters",
    "exact_shrink_table",
    "fidelity",
    "gate_ratio",
    "hadamard",
    "lambda_register_histogram",
    "make_layout",
    "newton_reciprocal",
    "post_select",
    "run",
    "run_qpca",
    "ry",
    "sample",
    "shrink",
    "state_prep_tree",
    "uncompute",
]
