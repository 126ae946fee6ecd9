"""How close do adapted features stay to the clean-data reference?

Per-channel histogram overlap between each strategy's penultimate features
on a corrupted stream and the source model's features on the clean stream.
At small batch size the stabilized updates keep the feature distribution
better aligned than plain per-batch entropy steps.
"""

import numpy as np

from ttalab import AdaptationConfig, Corruption, StreamProtocol
from ttalab.benchmark import (adapt_streams, apply_corruption,
                              collect_features, feature_histograms,
                              generate_dataset, histogram_overlap,
                              train_source)
from ttalab.network import BNMode

train = generate_dataset(k=3, m=3000, seed=0)
net = train_source(train, epochs=20, seed=0)
test = generate_dataset(k=3, m=3000, seed=777)
corruption = Corruption("gaussian_noise", 5)
batch_size = 10

reference = collect_features(net, test.inputs, 100, BNMode.EVAL_STATS)
feats = {"reference": reference}
protocol = StreamProtocol(batch_size=batch_size, seed=0)
corrupted = apply_corruption(test.inputs, corruption, protocol.seed)
names = ("ttc", "tent")
results = adapt_streams(net, corrupted, test.labels,
                        [(None, protocol, AdaptationConfig(strategy=name))
                         for name in names])
for name, (_, _, row) in zip(names, results):
    feats[name] = collect_features(net, corrupted, batch_size,
                                   BNMode.TEST_BATCH_STATS, row)

_, hists = feature_histograms(feats, bins=64)
channels = reference.shape[1]
for name in ("ttc", "tent"):
    overlaps = [histogram_overlap(hists[name][c], hists["reference"][c])
                for c in range(channels)]
    print(f"{name:5s} vs clean reference: mean overlap "
          f"{np.mean(overlaps):.4f} (min channel {np.min(overlaps):.4f})")
