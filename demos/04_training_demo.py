"""Train the linear-network classifier on synthetic skeleton actions.

The classifier is deliberately simple: one hidden layer of 64 units
with identity activation (so the whole network is an affine map into a
softmax), trained by seeded SGD with momentum, an exponentially
decaying learning rate, and dropconnect regularization on the first
layer.  Feature quality, not model capacity, does the work.

Uses a reduced feature configuration so the demo finishes in seconds.
"""

import numpy as np

from pathsig import (
    DatasetDescriptor,
    FeatureConfig,
    TrainConfig,
    apply_scaler,
    assemble_features,
    fill_clip,
    fit_scaler,
    forward,
    init_model,
    normalize_clip,
    train,
)
from pathsig.synth import ACTION_CLASSES, make_action_dataset


def extract(clips, config, desc):
    rows = [
        assemble_features(fill_clip(normalize_clip(c)).joints[:, 0], config, desc)
        for c in clips
    ]
    return np.array(rows), np.array([c.label for c in clips])


def main():
    train_clips, test_clips, desc_full = make_action_dataset(
        train_clips=80, test_clips=40, joint_count=8, dim=2, seed=1)
    desc = DatasetDescriptor(joint_count=8, dim=2)
    config = FeatureConfig(sampled_frames=6, triple_level=2, joint_level=3)

    x_train, y_train = extract(train_clips, config, desc)
    x_test, y_test = extract(test_clips, config, desc)
    scaler = fit_scaler(x_train)
    x_train = apply_scaler(scaler, x_train)
    x_test = apply_scaler(scaler, x_test)
    print(f"features: {x_train.shape[0]} train rows, {x_train.shape[1]:,} dims")

    cfg = TrainConfig(max_epochs=40, seed=0)
    model = init_model(x_train.shape[1], len(ACTION_CLASSES), cfg)
    history = train(model, x_train, y_train)
    for s in history[:: max(1, len(history) // 8)]:
        print(f"  epoch {s.epoch:>3}  lr {s.lr:.5f}  loss {s.loss:.4f}  "
              f"train acc {s.accuracy:.3f}")

    pred = forward(model, x_test).argmax(axis=1)
    accuracy = float((pred == y_test).mean())
    print(f"\ntest accuracy: {accuracy:.3f}")
    for c, name in enumerate(ACTION_CLASSES):
        sel = y_test == c
        print(f"  {name:<6} {float((pred[sel] == c).mean()):.3f}")


if __name__ == "__main__":
    main()
