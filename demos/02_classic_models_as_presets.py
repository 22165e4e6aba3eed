"""Classic distance-based models as restrictions of the compound score.

Shorter operator chains recover well-known scoring functions:
translation only (TransE), per-block rotation only (RotatE), two-sided
scaling (PairRE), and scaling plus a head translation (LinearRE).  The
script checks each reduction numerically and shows the analytic
gradients against finite differences.
"""

import numpy as np

from compound_kge.scoring import (
    RelationParams,
    grad_score,
    preset_linearre,
    preset_pairre,
    preset_rotate,
    preset_transe,
    score,
)

rng = np.random.default_rng(0)
d = 16
h, t = rng.normal(size=d), rng.normal(size=d)

# --- TransE: || h + r - t || ----------------------------------------------

preset = preset_transe(d)
r = RelationParams.identity(d)
r.head.translation = rng.normal(size=d)
ours = score(h, r, t, preset.spec)
direct = np.sum(np.abs(h + r.head.translation - t))
print(f"transe    score {ours:.10f}  formula {direct:.10f}  diff {abs(ours-direct):.2e}")

# --- RotatE: || h o r - t || with unit-modulus complex r -------------------

preset = preset_rotate(d)
r = RelationParams.identity(d)
r.head.angles = rng.uniform(-np.pi, np.pi, d // 2)
ours = score(h, r, t, preset.spec)
hc, tc = h[0::2] + 1j * h[1::2], t[0::2] + 1j * t[1::2]
diff = hc * np.exp(1j * r.head.angles) - tc
direct = np.sum(np.abs(diff.real)) + np.sum(np.abs(diff.imag))
print(f"rotate    score {ours:.10f}  formula {direct:.10f}  diff {abs(ours-direct):.2e}")

# --- PairRE: || h*rH - t*rT || --------------------------------------------

preset = preset_pairre(d)
r = RelationParams.identity(d)
r.head.scale = rng.normal(size=d)
r.tail.scale = rng.normal(size=d)
ours = score(h, r, t, preset.spec)
direct = np.sum(np.abs(h * r.head.scale - t * r.tail.scale))
print(f"pairre    score {ours:.10f}  formula {direct:.10f}  diff {abs(ours-direct):.2e}")

# --- LinearRE: || h*rH + r - t*rT || ---------------------------------------

preset = preset_linearre(d)
r = RelationParams.identity(d)
r.head.translation = rng.normal(size=d)
r.head.scale = rng.normal(size=d)
r.tail.scale = rng.normal(size=d)
ours = score(h, r, t, preset.spec)
direct = np.sum(np.abs(h * r.head.scale + r.head.translation - t * r.tail.scale))
print(f"linearre  score {ours:.10f}  formula {direct:.10f}  diff {abs(ours-direct):.2e}")

# --- analytic gradients vs central finite differences ----------------------

print("\ngradient check on the linearre preset (central differences, step 1e-5):")
g = grad_score(h, r, t, preset.spec)
step = 1e-5
fd = np.zeros_like(h)
for i in range(d):
    hp, hm = h.copy(), h.copy()
    hp[i] += step
    hm[i] -= step
    fd[i] = (score(hp, r, t, preset.spec) - score(hm, r, t, preset.spec)) / (2 * step)
print("  max |analytic - fd| over d(h):", np.max(np.abs(g.h - fd)))
print("  rotation (not in the chain) gradient is exactly zero:", np.all(g.head.angles == 0.0))
