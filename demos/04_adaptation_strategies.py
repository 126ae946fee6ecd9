"""Compare the adaptation strategies on severity-5 streams.

source: frozen model, running statistics. norm: per-batch statistics,
no updates. tent: entropy minimization over the BN affine parameters.
ttc: tent plus flip-averaged label assignment, entropy-power sample
weights, and gradient accumulation.
"""

import numpy as np

from ttalab import AdaptationConfig, Corruption, StreamProtocol
from ttalab.benchmark import (CORRUPTION_KINDS, adapt_streams,
                              generate_dataset, train_source)

train = generate_dataset(k=3, m=3000, seed=0)
net = train_source(train, epochs=20, seed=0)
test = generate_dataset(k=3, m=3000, seed=777)

seeds = range(5)


def mean_accuracies(cells):
    """Mean accuracy over the seeds of each (config, corruption kind) cell,
    with every stream of every cell adapted in one grouped pass."""
    results = iter(adapt_streams(net, test.inputs, test.labels, [
        (Corruption(kind, 5), StreamProtocol(batch_size=100, seed=s), config)
        for config, kind in cells for s in seeds]))
    return [np.mean([next(results)[0] for _ in seeds]) for _ in cells]


strategies = ("source", "norm", "tent", "tent-filtered", "ttc")
accs = iter(mean_accuracies([(AdaptationConfig(strategy=strategy), kind)
                             for strategy in strategies
                             for kind in CORRUPTION_KINDS]))
print(f"{'strategy':10s} " + " ".join(f"{k[:8]:>8s}" for k in CORRUPTION_KINDS)
      + "     mean")
for strategy in strategies:
    row = [next(accs) for _ in CORRUPTION_KINDS]
    print(f"{strategy:10s} " + " ".join(f"{a:8.4f}" for a in row)
          + f" {np.mean(row):8.4f}")

print("\nttc component ablation on gaussian noise (severity 5):")
variants = {
    "full ttc": {},
    "no rla": {"rla_enabled": False},
    "no wa": {"wa_enabled": False},
    "no ga": {"ga_enabled": False},
}
accs = mean_accuracies([(AdaptationConfig(strategy="ttc", **flags),
                         "gaussian_noise") for flags in variants.values()])
for label, acc in zip(variants, accs):
    print(f"  {label:10s} {acc:.4f}")
