"""Choosing the mixture size automatically with mode-seeking clustering.

Density-based clustering on the (embedded) training data counts the modes
of normal behavior, so the mixture size k never has to be guessed or tuned.

Run: python3 demos/02_automatic_components.py
"""

import math

import numpy as np

from ocsketch.evaluate import synth_blobs
from ocsketch.gmm import fit_em
from ocsketch.quickshift import (BETA, auto_k, cluster_cores, knn_log_density, knn_table,
                                 quickshift_assign, select_components)


def stages_k(X, k_n, beta=BETA):
    """auto_k's stages, one by one, with k_n neighbors and persistence beta."""
    nbrs, radii = knn_table(X, k_n)
    dens = knn_log_density(radii, X.shape[1])
    labels = quickshift_assign(X, dens, cluster_cores(dens, nbrs, beta), nbrs)
    return select_components(labels).k


# three well-separated modes of "normal" activity
X, truth = synth_blobs(900, 3, 2, separation=10.0, seed=7)
print(f"dataset: {len(X)} points drawn from 3 blobs, 10 sigma apart")

clustering = auto_k(X)
print(f"\nauto_k found k = {clustering.k} clusters:")
true_centers = np.array([X[truth == i].mean(axis=0) for i in range(3)])
for l in range(clustering.k):
    members = X[clustering.labels == l]
    nearest = np.min(np.linalg.norm(true_centers - members.mean(axis=0), axis=1))
    print(f"  size {len(members):4d}  weight {len(members) / len(X):.3f}  "
          f"mean within {nearest:.3f} sigma of a true center")

# the retained labels seed the mixture fit directly: EM starts from each
# cluster's weight, mean and covariance (unretained points are left out)
model = fit_em(X, clustering.k, init=clustering.labels, seed=0)
print(f"\nGMM after {len(model.diagnostics['loglik_history'])} EM steps: "
      f"pi = {np.round(model.pi, 3)}, means shape {model.mu.shape}, "
      f"covariances shape {model.sigma.shape}")

# beta controls how persistent a density mode must be to count as a cluster;
# higher beta prunes harder, so the count can only go down. auto_k fixes it
# at BETA, with ceil(n^(2/3)) neighbors (94 here)
print("\nbeta sweep (cluster count is non-increasing):")
for beta in (0.5, 0.9, 0.99):
    print(f"  beta = {beta:<5} -> k = {stages_k(X, math.ceil(len(X) ** (2 / 3)), beta)}")

# one diffuse mode: no spurious components
X1, _ = synth_blobs(500, 1, 2, separation=5.0, seed=8)
print(f"\nsingle blob -> k = {auto_k(X1).k}")

# 25 genuine modes: retention caps at the 20 largest. auto_k's n^(2/3)
# neighbor count (185 here) exceeds the 100-point blob size and would blur
# the density field, so run the stages on finer neighborhoods
X25, _ = synth_blobs(2500, 25, 2, separation=12.0, seed=9)
print(f"25 blobs -> k = {stages_k(X25, 50)} (capped at 20)")
