"""Streaming SGD on separable blobs: loss falls, retrieval becomes exact.

Run from the repo root:  python demos/03_streaming_sgd.py
"""

import numpy as np

from hcoh import (HadamardCodebook, LshReducer, TargetCodeTable, encode,
                  evaluate, init_model, loss, train_stream)

rng = np.random.default_rng(0)

# Four well-separated Gaussian blobs in 16 dimensions.
centers = rng.standard_normal((4, 16)) * 5.0
features = np.vstack([c + rng.standard_normal((500, 16)) for c in centers])
labels = np.repeat(np.arange(4), 500)
order = rng.permutation(len(labels))
features, labels = features[order], labels[order]

# 16-bit codes, 4 labels -> order-16 codebook, identity reducer.
book = HadamardCodebook.create(16, seed=1)
reducer = LshReducer.create(16, 16, seed=2)
table = TargetCodeTable(out_dim=16)
model = init_model(d=16, r=16, eta=0.2, seed=3)

# One instance per round, single pass, loss sampled along the way.
batches = ((features[i:i + 1], labels[i:i + 1]) for i in range(1500))
probe_features, probe_labels = features[1500:], labels[1500:]


def report(seen, snapshot):
    targets = np.stack([table.target_for(y, book, reducer)
                        for y in probe_labels])
    print(f"  after {seen:>5} instances: held-out loss "
          f"{loss(snapshot, probe_features, targets):8.3f}")


print("streaming 1500 single-instance rounds:")
model, _ = train_stream(model, batches, book, reducer, table,
                        milestones=(1, 50, 250, 750, 1500), hook=report)

# Hash the held-out instances and retrieve against them.
codes = encode(model, probe_features, probe_labels)
result = evaluate(codes, codes, k_prec=50)
print(f"self-retrieval on {len(codes)} held-out codes: "
      f"mAP {result.map:.4f}, P@50 {result.precision_at_k:.4f}")
