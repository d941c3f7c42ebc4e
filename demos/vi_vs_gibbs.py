#!/usr/bin/env python3
"""Sanity-check the variational posterior against the exact Gibbs sampler.

On a desk-scale problem the model admits an asymptotically exact Gibbs
chain, so we can measure how close the (much faster) variational fit gets:
posterior means, variances, and predictive probabilities are compared
point by point on a full-GP configuration (one inducing point per datum).
"""

import numpy as np

from pggpc.gibbs import compare_to_vi, gibbs_run
from pggpc.inference import TrainConfig, fit
from pggpc.kernel import KernelParams
from pggpc.model import Dataset


def make_overlapping_blobs(n=60, seed=3):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.concatenate(
        [rng.normal(-1.0, 1.0, size=(half, 2)), rng.normal(1.0, 1.0, size=(half, 2))]
    )
    y = np.concatenate([-np.ones(half), np.ones(half)])
    order = rng.permutation(n)
    return Dataset(X[order], y[order])


def main():
    data = make_overlapping_blobs()
    params = KernelParams.default(data.d)

    config = TrainConfig(
        num_inducing=data.n, batch_size=data.n, max_iters=300,
        conv_threshold=1e-10, fixed_lr=1.0,
        hyper_every=0, seed=0, init_params=params, inducing_Z=data.X,
    )
    result = fit(data, config)
    print(f"variational fit: {result.n_iters} full-batch iterations, "
          f"bound {result.final_elbo:.3f}")

    burn_in, thin = 1000, 2
    samples = gibbs_run(data, params, iters=6000, burn_in=burn_in, thin=thin, seed=0)
    print(f"gibbs chain: {samples.shape[0]} kept samples "
          f"(burn-in {burn_in}, thinning {thin})")

    report = compare_to_vi(samples, result.state, data)
    print(f"{'i':>3} {'mcmc mean':>10} {'vi mean':>10} {'mcmc p+':>9} {'vi p+':>9}")
    for i in range(8):
        print(f"{i:>3} {report.mcmc_mean[i]:>10.3f} {report.vi_mean[i]:>10.3f} "
              f"{report.mcmc_ppos[i]:>9.3f} {report.vi_ppos[i]:>9.3f}")
    print("...")
    print(f"posterior-mean correlation  {report.mean_corr:.5f}")
    print(f"posterior-var  correlation  {report.var_corr:.5f}")
    print(f"probability correlation     {report.prob_corr:.5f}")
    print(f"mean |p_vi - p_mcmc|        {report.mean_abs_prob_gap:.5f}")
    print(f"max  |p_vi - p_mcmc|        {report.max_abs_prob_gap:.5f}")


if __name__ == "__main__":
    main()
