"""The whole benchmark protocol end to end, library-level and via the CLI.

Run from the repo root:  python demos/05_full_protocol.py

Uses synthetic blobs written to HCOHFEAT files; if the MNIST IDX files
are available under data/mnist (or $HCOH_MNIST_DIR) the real protocol
runs as well.
"""

import os
import tempfile
from pathlib import Path

import numpy as np

from hcoh import RunConfig, load_dense, run_repeats, run_training, save_dense, save_labels
from hcoh.cli import main as hcoh_cli

rng = np.random.default_rng(5)
centers = rng.standard_normal((6, 24)) * 4.0
features = np.vstack([c + rng.standard_normal((400, 24)) for c in centers])
labels = np.repeat(np.arange(6), 400)

with tempfile.TemporaryDirectory(prefix="hcoh-demo-") as tmp:
    workdir = Path(tmp)
    save_dense(workdir / "blobs.feat", features)
    save_labels(workdir / "blobs.lab", labels)
    print("wrote", workdir / "blobs.feat")

    # -----------------------------------------------------------------------
    # Library level: split -> stream -> train -> milestone evaluations.
    # The master seed fans out to five component seeds, so one integer pins
    # the whole run.
    # -----------------------------------------------------------------------
    dataset = load_dense(workdir / "blobs.feat", workdir / "blobs.lab")
    config = RunConfig(bits=16, eta=0.2, batch_size=1, seed=9, max_labels=6,
                       test_per_class=40, train_subset=1500, k_prec=100,
                       milestones=(300, 600, 900, 1200, 1500))
    result = run_training(dataset, config)
    for rec in result.records:
        print(f"  {rec['instances_seen']:>5} instances  mAP {rec['map']:.4f}  "
              f"P@100 {rec['precision_at_k']:.4f}")
    print("summary:", {k: result.summary[k] for k in
                       ("auc", "final_map", "codeword_order", "reducer")})

    # Three seeded repetitions, averaged, as benchmark tables report.
    _, aggregate = run_repeats(dataset, config, repeats=3)
    print(f"over 3 repeats: mAP {aggregate['map_mean']:.4f}, "
          f"P@100 {aggregate['precision_mean']:.4f}")

    # -----------------------------------------------------------------------
    # The same run through the CLI, plus encode and evaluate on the files.
    # -----------------------------------------------------------------------
    print("\n$ hcoh train/encode/evaluate on the same files")
    hcoh_cli(["train", "--dataset", "dense",
              "--features", str(workdir / "blobs.feat"),
              "--labels", str(workdir / "blobs.lab"),
              "--bits", "16", "--seed", "9", "--max-labels", "6",
              "--test-per-class", "40", "--train-size", "1500",
              "--k-prec", "100", "--milestones", "300,600,900,1200,1500",
              "--checkpoint", str(workdir / "model.hcoh"),
              "--metrics", str(workdir / "metrics.jsonl")])
    hcoh_cli(["encode", "--checkpoint", str(workdir / "model.hcoh"),
              "--features", str(workdir / "blobs.feat"),
              "--labels", str(workdir / "blobs.lab"),
              "--out", str(workdir / "blobs.hcode")])
    hcoh_cli(["evaluate", "--queries", str(workdir / "blobs.hcode"),
              "--database", str(workdir / "blobs.hcode"), "--k-prec", "100"])
    hcoh_cli(["curve", "--metrics", str(workdir / "metrics.jsonl"),
              "--out", str(workdir / "curve.csv")])
    print((workdir / "curve.csv").read_text().rstrip())

    # -----------------------------------------------------------------------
    # The real thing, when the data is on disk.
    # -----------------------------------------------------------------------
    mnist = Path(os.environ.get("HCOH_MNIST_DIR", "data/mnist"))
    if (mnist / "train-images-idx3-ubyte").exists() or \
            (mnist / "train-images-idx3-ubyte.gz").exists():
        print("\nMNIST found; running the full 32-bit protocol (takes a minute)")
        hcoh_cli(["train", "--dataset", "mnist", "--data-dir", str(mnist),
                  "--bits", "32", "--eta", "0.2", "--seed", "0",
                  "--max-labels", "10",
                  "--milestones",
                  ",".join(str(m) for m in range(2000, 20001, 2000)),
                  "--checkpoint", str(workdir / "mnist.hcoh"),
                  "--metrics", str(workdir / "mnist-metrics.jsonl")])
    else:
        print(f"\nMNIST not found under {mnist}; skipping the real protocol. "
              "Drop the four IDX files there (gzipped is fine) to run it.")
