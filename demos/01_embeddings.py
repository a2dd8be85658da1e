"""Kernel embeddings in action: Nystrom vs Gaussian sketch on ring data.

The embeddings map D-dimensional points through m landmark kernel values
down to d dimensions. The model keeps only the landmarks and a d x m
projection matrix, so its size and scoring cost never depend on how much
training data produced it.

Run: python3 demos/01_embeddings.py
"""

import numpy as np

from ocsketch.embedding import embed, fit_kjl, fit_nystrom
from ocsketch.evaluate import synth_cluster_in_cluster
from ocsketch.kernel import gram, quantile_bandwidth

rng = np.random.default_rng(0)

# a ring of "normal" traffic around a central blob of "novel" points
X, y = synth_cluster_in_cluster(5000, seed=0)
normal = X[y == 0]
print(f"dataset: {len(X)} points in R^2, {len(normal)} normal")

h = quantile_bandwidth(normal, 0.25)
print(f"bandwidth from the 0.25 distance quantile: h = {h:.4f}")

# --- Nystrom: a spectral truncation that approximates the gram matrix ---
nys = fit_nystrom(normal, m=100, d=5, h=h, seed=42)
Z = embed(nys, normal)
print(f"\nnystrom: {normal.shape} -> {Z.shape}")
print(f"  model keeps m*(d+D) = {100 * (5 + 2)} floats "
      f"({nys.landmarks.nbytes + nys.P.nbytes} bytes of float64)")
idx = rng.choice(len(normal), 300, replace=False)
G_true = gram(normal[idx], normal[idx], h)
err = np.abs(G_true - Z[idx] @ Z[idx].T)
print(f"  gram approximation at d=5: max err {err.max():.3f}, "
      f"mean err {err.mean():.4f}")

# the full-rank Nystrom embedding reproduces the gram matrix exactly
small = normal[:200]
full = fit_nystrom(small, m=200, d=200, h=h, seed=0)
Zf = embed(full, small)
exact = np.abs(Zf @ Zf.T - gram(small, small, h)).max()
print(f"  full-rank sanity check (m = d = n = 200): max gram error {exact:.2e}")

# --- Gaussian sketch: a random projection that keeps cluster geometry ---
# inner products are preserved only up to a random scale, which the
# downstream mixture fit absorbs; what matters is that the normal and
# novel populations stay separated
kjl = fit_kjl(normal, m=100, d=5, h=h, seed=42)
print(f"\nkjl sketch: same {kjl.landmarks.nbytes + kjl.P.nbytes}-byte footprint")
Zn = embed(kjl, normal)
Zv = embed(kjl, X[y == 1])


def nearest_normal_distance(Q, ref, exclude_self=False):
    dists = np.linalg.norm(Q[:, None, :] - ref[None, :500, :], axis=2)
    if exclude_self:
        dists[dists == 0] = np.inf
    return np.median(dists.min(axis=1))


print(f"  median distance to the nearest embedded normal point: "
      f"normal {nearest_normal_distance(Zn[:500], Zn, exclude_self=True):.2f}, "
      f"novel {nearest_normal_distance(Zv[:500], Zn):.2f}")
