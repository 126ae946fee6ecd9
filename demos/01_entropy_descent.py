"""Watch entropy minimization sharpen a single prediction.

Gradient descent on the logits of one sample always grows the largest
probability: the model commits harder to whatever class it already
preferred. This is the single-sample picture behind entropy-based
test-time adaptation.
"""

import io

import numpy as np

from ttalab import simulate_entropy_descent
from ttalab.numeric import trajectory_csv

# both starts descend in lock-step through one call, keyed by K
starts = {2: [0.6, 0.4], 3: [0.4, 0.35, 0.25]}
for k, traj in simulate_entropy_descent(starts, lr=0.05, steps=5000).items():
    p0 = starts[k]
    top = traj[:, 0]
    print(f"K={k}, start {p0}")
    for step in (0, 10, 100, 1000, 5000):
        print(f"  step {step:5d}: p = {np.round(traj[step], 4)}")
    print(f"  top class monotone: {bool(np.all(np.diff(top) >= 0))}, "
          f"final {top[-1]:.6f}\n")

# a uniform start is a stationary point: nothing moves
flat = simulate_entropy_descent(np.full(4, 0.25), lr=0.05, steps=100)
print("uniform start stays uniform:", np.allclose(flat, 0.25))

# trajectories export as plain CSV for plotting elsewhere
buf = io.StringIO()
trajectory_csv(simulate_entropy_descent([0.55, 0.45], 0.05, 50), buf)
csv_text = buf.getvalue()
print("\nfirst CSV lines:")
print("\n".join(csv_text.splitlines()[:4]))
