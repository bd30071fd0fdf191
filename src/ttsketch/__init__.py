"""Randomized sketching, rounding, and spectral tools for tensor trains."""

from .tt import (
    TensorTrain,
    TTOperator,
    TTSum,
    tt_dense,
    tto_dense,
    tt_inner,
    tt_gram,
    tt_norm,
    tt_orthogonalize,
    tt_linear_combination,
    tt_hadamard_assemble,
    tto_apply_assemble,
    tt_random,
    tt_from_dense,
)
from .sketch import SketchSpec, RealizedSketch, make_sketch, sketch_dense
from .contract import (
    PartialSketchSet,
    partial_contractions,
    sketch_linear_combination,
    sketch_matvec,
    sketch_hadamard,
)
from .rounding import tt_round, tt_rand_round, stta, pinv_trunc
from .analysis import (
    partial_trace,
    gamma_table,
    cq_upper_bound,
    mc_moment_tensor,
    moment_subset_bound,
    entanglement_constant,
    empirical_spectrum,
    isotropy_samples,
    osi_sufficient_P,
    rsvd_constant,
    rounding_error_constant,
    ose_sufficient_params,
)
from .qtt import DyadicGrid, qtt_exp_linear, qtt_cos_linear
from .eigensolver import (
    tto_tfim,
    tto_heisenberg,
    tfim_ground_energy,
    sketched_rayleigh_ritz,
    RayleighRitzConfig,
    true_rayleigh_quotient,
)

__all__ = [
    "TensorTrain", "TTOperator", "TTSum", "tt_dense", "tto_dense", "tt_inner", "tt_gram",
    "tt_norm", "tt_orthogonalize", "tt_linear_combination", "tt_hadamard_assemble",
    "tto_apply_assemble", "tt_random", "tt_from_dense", "SketchSpec", "RealizedSketch",
    "make_sketch", "sketch_dense", "PartialSketchSet", "partial_contractions",
    "sketch_linear_combination", "sketch_matvec", "sketch_hadamard", "tt_round",
    "tt_rand_round", "stta", "pinv_trunc", "partial_trace", "gamma_table",
    "cq_upper_bound", "mc_moment_tensor", "moment_subset_bound",
    "entanglement_constant", "empirical_spectrum", "isotropy_samples",
    "osi_sufficient_P", "rsvd_constant", "rounding_error_constant",
    "ose_sufficient_params", "DyadicGrid", "qtt_exp_linear", "qtt_cos_linear",
    "tto_tfim", "tto_heisenberg", "tfim_ground_energy", "sketched_rayleigh_ritz",
    "RayleighRitzConfig", "true_rayleigh_quotient",
]

__version__ = "0.1.0"
