"""Scalable binary Gaussian-process classification with Polya-Gamma augmentation.

The package implements a sparse variational GP classifier trained by
closed-form natural-gradient stochastic variational inference, together
with an exact full-GP Gibbs sampler used as a ground-truth oracle.
"""

from .pg import sigmoid, pg_mean, theta, pg_kl_term, pg_sample
from .kernel import KernelParams, GramBundle, build_gram, kern_grad, FactorizationError
from .model import (
    Dataset,
    VariationalState,
    kmeanspp_init,
    init_state,
    save_checkpoint,
    load_checkpoint,
)
from .inference import (
    TrainConfig,
    FitResult,
    elbo,
    local_update,
    natural_gradient,
    global_step,
    AdaptiveRate,
    AdamState,
    hyper_grad,
    hyper_step,
    fit,
)
from .prediction import latent_predict, class_prob, evaluate, EvalReport
from .gibbs import GibbsChain, gibbs_run, compare_to_vi, ComparisonReport
from .data import (
    load,
    save,
    standardize,
    Standardizer,
    kfold,
    CvPlan,
    minibatch_iter,
    MiniBatch,
    canonical_order,
)

__version__ = "0.1.0"

__all__ = [
    "sigmoid",
    "pg_mean",
    "theta",
    "pg_kl_term",
    "pg_sample",
    "KernelParams",
    "GramBundle",
    "build_gram",
    "kern_grad",
    "FactorizationError",
    "Dataset",
    "VariationalState",
    "kmeanspp_init",
    "init_state",
    "save_checkpoint",
    "load_checkpoint",
    "TrainConfig",
    "FitResult",
    "elbo",
    "local_update",
    "natural_gradient",
    "global_step",
    "AdaptiveRate",
    "AdamState",
    "hyper_grad",
    "hyper_step",
    "fit",
    "latent_predict",
    "class_prob",
    "evaluate",
    "EvalReport",
    "GibbsChain",
    "gibbs_run",
    "compare_to_vi",
    "ComparisonReport",
    "load",
    "save",
    "standardize",
    "Standardizer",
    "kfold",
    "CvPlan",
    "minibatch_iter",
    "MiniBatch",
    "canonical_order",
]
