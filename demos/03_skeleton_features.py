"""The skeleton feature stack, block by block.

A clip of joint coordinates becomes one fixed-length vector built from
five block families:

  joints                 raw coordinates of sampled frames
  pair_sig / triple_sig  signatures of 2- and 3-joint pathlets per frame
  joint_motion_sig       signature of each joint's time-augmented motion
  spatial_evolution_sig  signatures of how the per-frame spatial
                         signature itself evolves (lead-lag lifted)

The vector length depends only on the joint count, coordinate dimension
and truncation levels, never on the clip's frame count.
"""

import numpy as np

from pathsig import (
    DatasetDescriptor,
    FeatureConfig,
    assemble_features,
    feature_layout,
    fill_clip,
    normalize_clip,
)
from pathsig.synth import make_action_clip


def main():
    desc = DatasetDescriptor(joint_count=15, dim=2)

    print("feature widths for 15 joints, 2-D, 10 sampled frames:")
    for level in (1, 2, 3, 4):
        layout = feature_layout(FeatureConfig(pair_level=level), desc)
        width = sum(b.width for b in layout if b.name == "pair_sig")
        print(f"  pair signatures, level {level}: {width:>7,}")
    for level in (1, 2, 3, 4, 5, 6):
        layout = feature_layout(FeatureConfig(triple_level=level), desc)
        width = sum(b.width for b in layout if b.name == "triple_sig")
        print(f"  triple signatures, level {level}: {width:>7,}")

    config = FeatureConfig()
    layout = feature_layout(config, desc)
    totals = {}
    for block in layout:
        totals[block.name] = totals.get(block.name, 0) + block.width
    print("\ndefault configuration, block totals:")
    for name, width in totals.items():
        print(f"  {name:<22} {width:>8,}")
    print(f"  {'total':<22} {sum(totals.values()):>8,}")

    dyadic = feature_layout(FeatureConfig(dyadic=True), desc)
    print("with dyadic windowing (depth 3, 7 windows per temporal block):",
          f"{sum(b.width for b in dyadic):,}")

    # run one synthetic clip through the full preprocessing chain
    clip = make_action_clip(class_id=0, seed=3)
    prepared = fill_clip(normalize_clip(clip))
    row = assemble_features(prepared.joints[:, 0], config, desc)
    print(f"\none clip ({clip.frame_count} frames) -> vector of {row.size:,}")
    print("  coordinates now centered, max |value| =",
          round(float(np.abs(prepared.joints).max()), 4))
    sl = next(b for b in layout if b.name == "joint_motion_sig")
    print("  joint_motion_sig starts at offset", sl.offset,
          "with width", sl.width)


if __name__ == "__main__":
    main()
