"""Entropy adaptation needs batches; accumulation substitutes for them.

Small batches give noisy normalization statistics and noisy gradients.
Accumulating 1/Q-scaled gradients over Q batches before stepping recovers
much of the lost ground at small N.
"""

import numpy as np

from ttalab import AdaptationConfig, Corruption, StreamProtocol
from ttalab.adaptation import default_q
from ttalab.benchmark import adapt_streams, generate_dataset, train_source

train = generate_dataset(k=3, m=3000, seed=0)
net = train_source(train, epochs=20, seed=0)
test = generate_dataset(k=3, m=3000, seed=777)
corruption = Corruption("gaussian_noise", 5)

tent = AdaptationConfig(strategy="tent")
tent_ga = AdaptationConfig(strategy="ttc", rla_enabled=False,
                           wa_enabled=False, ga_enabled=True)

sizes = (2, 10, 50, 100)
seeds = range(5)
# every stream of the sweep in one grouped pass, in this order
results = iter(adapt_streams(net, test.inputs, test.labels, [
    (corruption, StreamProtocol(batch_size=n, seed=s), config)
    for n in sizes for config in (tent, tent_ga) for s in seeds]))

print(f"{'N':>4s} {'Q':>4s} {'tent':>8s} {'tent+ga':>8s} {'margin':>8s}")
for n in sizes:
    accs = {label: np.mean([next(results)[0] for _ in seeds])
            for label in ("tent", "tent+ga")}
    print(f"{n:4d} {default_q(n):4d} {accs['tent']:8.4f} "
          f"{accs['tent+ga']:8.4f} {accs['tent+ga'] - accs['tent']:+8.4f}")
