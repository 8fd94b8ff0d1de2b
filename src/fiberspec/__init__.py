"""Fiberwise spectral calculus for partially integral operators.

The operator T acts on sections f(omega, .) of [0,1] x [0,1] one fiber at
a time: (Tf)(omega, t) = integral of k(omega, t, s) f(omega, s) ds.  This
package decomposes each fiber of a symmetric kernel into eigenvalue curves
and eigenfunctions, builds the threshold projector family, evaluates
continuous functions of the operator, and checks spectral membership of
mixed eigenvalue fields.
"""

import os
import sys

# Every fiber matrix is small, so OpenBLAS's worker threads only spin on
# it.  This must run before numpy loads OpenBLAS, which reads the variable
# once; a value the caller set wins, and a process that has already loaded
# numpy keeps its environment untouched.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .calculus import (
    ThresholdField,
    apply_quadrature,
    apply_spectral,
    functional_calculus,
    projector_apply,
    riemann_stieltjes_apply,
)
from .config import Config, Tolerances, decompose, load_config
from .errors import (
    ConfigError,
    DomainError,
    ExpressionSyntaxError,
    FiberspecError,
    GridMismatch,
    IncompletePartition,
    InvalidCount,
    InvalidKernel,
    InvalidMesh,
    InvalidQuadratureRule,
    MissingBinding,
    NoConvergence,
    NotSymmetric,
    RankTooLarge,
    UnknownCurveLabel,
    UnknownIdentifier,
)
from .expr import evaluate, free_variables, parse, to_source
from .fiber import (
    FiberDecomposition,
    decompose_all_fibers,
    fiber_matrices,
    jacobi_eigh,
)
from .grid import (
    OmegaGrid,
    ScalarField,
    Section,
    SQuadrature,
    build_omega_grid,
    build_s_quadrature,
    fiber_inner_product,
    l22_norm,
    sample_field,
    sample_section,
)
from .kernel import (
    SampledKernel,
    SeparableKernel,
    kernel_matrices,
    mercer_reconstruct,
    sample_kernel,
)
from .spectrum import (
    Partition,
    membership_distances,
    mix_field,
    spm_membership,
)

__version__ = "0.1.0"

__all__ = [
    "Config",
    "ConfigError",
    "DomainError",
    "ExpressionSyntaxError",
    "FiberDecomposition",
    "FiberspecError",
    "GridMismatch",
    "IncompletePartition",
    "InvalidCount",
    "InvalidKernel",
    "InvalidMesh",
    "InvalidQuadratureRule",
    "MissingBinding",
    "NoConvergence",
    "NotSymmetric",
    "OmegaGrid",
    "Partition",
    "RankTooLarge",
    "SQuadrature",
    "SampledKernel",
    "ScalarField",
    "Section",
    "SeparableKernel",
    "ThresholdField",
    "Tolerances",
    "UnknownCurveLabel",
    "UnknownIdentifier",
    "apply_quadrature",
    "apply_spectral",
    "build_omega_grid",
    "build_s_quadrature",
    "decompose",
    "decompose_all_fibers",
    "evaluate",
    "fiber_inner_product",
    "fiber_matrices",
    "free_variables",
    "functional_calculus",
    "jacobi_eigh",
    "kernel_matrices",
    "l22_norm",
    "load_config",
    "membership_distances",
    "mercer_reconstruct",
    "mix_field",
    "parse",
    "projector_apply",
    "riemann_stieltjes_apply",
    "sample_field",
    "sample_kernel",
    "sample_section",
    "spm_membership",
    "to_source",
]
