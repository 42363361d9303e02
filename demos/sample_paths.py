"""
Sampling the driving noise
==========================

A Q-Wiener path is stored per mode as the pair (dB, I): the Brownian
increment over each step and the time integral of the Brownian motion
over the same step.  The pair is jointly Gaussian with covariance
[[h, h^2/2], [h^2/2, h^3/3]], and the integral is what buys the extra
half order in the 1.5-schemes.
"""

import numpy as np

from spderk import QSpec, coarsen, sample_path

q = QSpec([1.0, 0.5, 0.25, 0.125])

# one path: 16 steps of size 1/16, realization 0 of seed 42
path = sample_path(q, 16, 1.0 / 16, 42, realization=0)
print("modes:", path.K, " steps:", path.M, " h =", path.h)
print("mode-0 increments:", np.round(path.dB[:, 0], 4))

# empirical joint second moments over many realizations, one step each
h = 0.2
draws = np.empty((20000, 2))
for r in range(draws.shape[0]):
    p = sample_path(q, 1, h, 7, realization=r)
    draws[r] = p.dB[0, 0], p.I[0, 0]
cov = np.cov(draws.T)
print("\nsample cov of (dB, I) at h = %.1f:" % h)
print(np.round(cov, 5))
print("target:")
print(np.array([[h, h ** 2 / 2], [h ** 2 / 2, h ** 3 / 3]]))

# coarsening: dropping to a 4x larger step reuses the same randomness,
# so a coarse solver run is coupled to the fine one
coarse = coarsen(path, 4)
print("\ncoarse steps:", coarse.M, " h =", coarse.h)
print("sum of fine dB == coarse dB:",
      np.allclose(path.dB.sum(axis=0), coarse.dB.sum(axis=0)))
print("coarse I from the fine path's data:",
      np.allclose(coarse.I[0], path.I[:4].sum(axis=0)
                  + path.h * (3 - np.arange(4)) @ path.dB[:4]))
