"""Pinned outputs: a change to any of their bits, or to a trained model, fails here.

Each extract or ``sig compute`` case runs one command in process on small
seeded ``synth`` data and compares the sha256 of every file it writes, and
of its stdout, with a stored digest.  These outputs use no BLAS, so they
are the same bits at any thread count; they can still move with numpy's
build and the CPU features it dispatches on, so a mismatch names both.
A model trained on an extract goes through BLAS, whose kernel OpenBLAS
picks by CPU, so its weights and probabilities are pinned to stored values
at a tight tolerance instead, and a mismatch also names the BLAS build.  A
change that moves a pinned value on purpose updates it here in the same
commit.
"""

import hashlib

import numpy as np
import pytest

from pathsig import cli
from pathsig.classifier import forward, load_model
from pathsig.io import ExtractionOptions, FeatureRows, write_feature_config
from pathsig.skeleton import FeatureConfig, SkeletonClip
from pathsig.synth import make_action_dataset, make_interaction_dataset, write_dataset

SMALL = dict(sampled_frames=4, pair_level=2, triple_level=2, joint_level=3, evolution_level=2)


def _numpy_build() -> str:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    dispatched = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return (f"numpy {np.__version__}, baseline {' '.join(umath.__cpu_baseline__)}, "
            f"dispatching on {' '.join(dispatched) or 'none'}")


def _blas_build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check(digests: dict, expected: dict) -> None:
    assert digests == expected, (
        f"output bits differ from the pinned digests under {_numpy_build()}; a new numpy "
        f"build or CPU can explain this, a code change on the pinned machine cannot. "
        f"Got {digests}")


def _check_close(got: dict, expected: dict, tolerance: float = 1e-6) -> None:
    """Each array of ``got`` within ``tolerance`` times the largest entry of its
    expected values."""
    errors = {}
    for name, want in expected.items():
        want = np.asarray(want)
        errors[name] = float(np.abs(np.asarray(got[name]) - want).max() / np.abs(want).max())
    assert max(errors.values()) <= tolerance, (
        f"values differ from the pinned ones by more than {tolerance:g} of their scale under "
        f"{_numpy_build()} and {_blas_build()}; a new numpy or BLAS build or CPU can explain "
        f"this, a code change on the pinned machine cannot. Relative errors {errors}, "
        f"got {({name: np.asarray(v).tolist() for name, v in got.items()})}")


def _with_dropped_entries(clip: SkeletonClip, seed: int) -> SkeletonClip:
    """The clip with a seeded 10% of its (frame, joint) entries unobserved,
    frame 0 kept whole."""
    dropped = np.random.default_rng(seed).random(clip.valid.shape) < 0.1
    dropped[0] = False
    return SkeletonClip(clip.joints, clip.valid & ~dropped, clip.label, clip.clip_id)


def _extract(tmp_path, capsys, dataset, config, options, *flags) -> dict:
    """Digests of every file ``features extract`` writes and of its stdout."""
    manifest, descriptor = write_dataset(*dataset, tmp_path / "data")
    config_path = tmp_path / "featcfg.txt"
    write_feature_config(config, options, config_path)
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(["features", "extract", "--manifest", manifest, "--descriptor", descriptor,
                     "--config", str(config_path), "--output", str(out / "f"), *flags]) == 0
    digests = {path.name: _digest(path.read_bytes()) for path in sorted(out.iterdir())}
    digests["stdout"] = _digest(capsys.readouterr().out.encode())
    return digests


def _single_stage_extract(tmp_path, capsys) -> dict:
    """Digests of an extract of seeded clips, every other one with dropped entries."""
    train, test, desc = make_action_dataset(train_clips=8, test_clips=4, joint_count=5, seed=3)
    train = [_with_dropped_entries(c, i) if i % 2 else c for i, c in enumerate(train)]
    test = [_with_dropped_entries(c, 100 + i) if i % 2 else c for i, c in enumerate(test)]
    return _extract(tmp_path, capsys, (train, test, desc), FeatureConfig(**SMALL),
                    ExtractionOptions(noise_copies=1))


def test_single_stage_extract_with_dropped_entries_is_pinned(tmp_path, capsys):
    digests = _single_stage_extract(tmp_path, capsys)
    _check(digests, {
        "f.config.txt": "d750012b96e59418501b010984932bdca565e9f17d6669eba66fd5f7f7fbc284",
        "f.descriptor.txt": "90df90966408b29fa9689a84bfcb2158083c7ab77fdbdc1477d434537e72bca9",
        "f.scaler.feat": "b3f69bef411a1c75496d5c8ca6261c294b0fa5d10b3c66800548e42490ff198d",
        "f.test.feat": "ba90e89e40fc34b41440b9770ec200ff6dd5a0674e78a9aec79299da2061f913",
        "f.test.labels": "e169bdf59fac30d230f7d21be511d04dc8cc61e5edb1d8255758bc220ba3d4c7",
        "f.train.feat": "5c2d351795909c5072ea4c0dc07cb835b5865108e25b729383d9cc437925fe03",
        "f.train.labels": "e30a5fae0bc9d0d4cd16cd964e88377353f86d5b0a4c2ddb3f2236404601c404",
        "stdout": "8585fe8c4164d75942be81b5c8f1830696f221d70a869bb4a7536abdec7686a9",
    })


def test_dyadic_extract_is_pinned(tmp_path, capsys):
    digests = _extract(tmp_path, capsys,
                       make_action_dataset(train_clips=4, test_clips=2, joint_count=4, seed=4),
                       FeatureConfig(**SMALL, dyadic=True, dyadic_depth=2),
                       ExtractionOptions(flip=False, noise_copies=0))
    _check(digests, {
        "f.config.txt": "79409fa2e39c921973733203341e5cac553a2aa917d9a1f92ecaea8454c03545",
        "f.descriptor.txt": "befd572708742fbbba1e8b8db641520f50884481ca47a05671fa2be5d028b097",
        "f.scaler.feat": "8b8aa3dc2fdd89fa71b048d8ad03bd1638457bed8b6b9d8999525c08adb501d9",
        "f.test.feat": "8279d11541889998b8649e6b4e20e09dbd846d02ffb942796c94fb2bea6a3366",
        "f.test.labels": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
        "f.train.feat": "5c9b567b0d1f4a384256475af3bed054c3ed53a1e7258a27fd471da918f08443",
        "f.train.labels": "e169bdf59fac30d230f7d21be511d04dc8cc61e5edb1d8255758bc220ba3d4c7",
        "stdout": "79a7156d4b4a4bfdb56aeb11d9a487a5fb4a9f46e11ea1b3524f9e997005f812",
    })


def test_two_stage_extract_is_pinned(tmp_path, capsys):
    digests = _extract(tmp_path, capsys,
                       make_interaction_dataset(train_clips=8, test_clips=4, joint_count=4,
                                                seed=5),
                       FeatureConfig(**SMALL), ExtractionOptions(noise_copies=1), "--two-stage")
    _check(digests, {
        "f.config.txt": "d750012b96e59418501b010984932bdca565e9f17d6669eba66fd5f7f7fbc284",
        "f.descriptor.txt": "f8d89fb885e15080068e7e00524b9cb6e7c56e55ede2b8da3a6fe504c1bc0f6f",
        "f.gate.scaler.feat": "def2b0f2801b66ecf3eeddde738a9a5206c806e28ab88983710687c525250d72",
        "f.gate.test.feat": "159c1e2c3e5feb44c52ae15f9ee8958a21b4e578c6bf8366c4547134e783c6ef",
        "f.gate.test.labels": "6f02d245c770e31891e4ac62fe40b2a90da699333b4db7f1b8fcb31483b10f1b",
        "f.gate.train.feat": "97ca737b0a8cfce2641bec7ec44c912f2612a62dd756067f7a98086b29a735bf",
        "f.gate.train.labels": "93f91cee2e5e5c3b12c793db4517e5a0c6cd4961c076a28c537ac046d668380d",
        "f.multi.scaler.feat": "556ef1a1bef3a9a9b86cc9c68c08119527088cdd8eb3f6ec7e70341f7db95550",
        "f.multi.test.feat": "f30272164121bfb01934af492753e50b890a4a3ca19f19ce0f14206b38f15b7b",
        "f.multi.test.labels": "e169bdf59fac30d230f7d21be511d04dc8cc61e5edb1d8255758bc220ba3d4c7",
        "f.multi.train.feat": "c0b6ecc3d80ac945993c563a9f577ddd0c86a514260abea877ba9d11d69d88e0",
        "f.multi.train.labels": "e30a5fae0bc9d0d4cd16cd964e88377353f86d5b0a4c2ddb3f2236404601c404",
        "f.one.scaler.feat": "4a801a241d845e02ba2fe013a4135a2e04c27e2bdaa0f2ca22fe102c1c529ca0",
        "f.one.test.feat": "6fe3743eeb6ece148b6cc7032284faa6e729b13186eafd82d33b9fcf6a39a950",
        "f.one.test.labels": "e169bdf59fac30d230f7d21be511d04dc8cc61e5edb1d8255758bc220ba3d4c7",
        "f.one.train.feat": "663194d7bcc2abf63896f9cb9bf6295220daf77f75bfacbcf0a56f8d5fb83117",
        "f.one.train.labels": "e30a5fae0bc9d0d4cd16cd964e88377353f86d5b0a4c2ddb3f2236404601c404",
        "f.partition.txt": "1aa7873243600f660236dfec4d4b697aedcdd8acb58780fe3a49f25b8da53768",
        "stdout": "a8f16007fb93008da237011bb59977a96050f613444f9e2ba0455dcf57f8e635",
    })


@pytest.mark.parametrize("flags, points, expected", [
    (["--lead-lag", "3"], [[0.0], [0.3], [-1.25], [2.0], [1.5]],
     "8ccd861e916c3a4d25d7e929ed2317facc3b492a58f2342751a2b4bf5ccbd2d5"),
    (["--add-time"], [[0.0, 1.0], [0.3, -0.5], [-1.25, 0.75], [2.0, 2.0]],
     "e3a43e3aa033fb723cfc6ec7fa05776572680831301ffa1100fc1da7d8f1c990"),
], ids=["lead_lag", "add_time"])
def test_sig_compute_stdout_is_pinned(tmp_path, capsys, flags, points, expected):
    path = tmp_path / "path.txt"
    path.write_text("".join(",".join(f"{v!r}" for v in p) + "\n" for p in points))
    assert cli.main(["sig", "compute", str(path), "--level", "3", *flags]) == 0
    _check({"stdout": _digest(capsys.readouterr().out.encode())}, {"stdout": expected})


def test_model_trained_on_the_single_stage_extract_is_pinned(tmp_path, capsys):
    """Four epochs of three batches each (24 rows, 8 a batch): a change to the
    epoch permutations, the dropconnect draws or the batches moves every value
    below."""
    _single_stage_extract(tmp_path, capsys)
    prefix, model_path = tmp_path / "out" / "f", tmp_path / "m.model"
    assert cli.main(["train", "--features", f"{prefix}.train.feat", "--labels",
                     f"{prefix}.train.labels", "--model", str(model_path), "--epochs", "4",
                     "--hidden", "6", "--batch-size", "8", "--seed", "34"]) == 0
    model = load_model(model_path)
    with FeatureRows(f"{prefix}.test.feat") as rows:
        probs = forward(model, rows)
    w1 = model.w1.astype(np.float64)
    got = {"w1 column sums": w1.sum(axis=0),
           "w1 cosine projection": np.cos(np.arange(len(w1))) @ w1,
           "b1": model.b1, "w2": model.w2.ravel(), "b2": model.b2,
           "test probabilities": probs.ravel()}
    _check_close(got, {
        "w1 column sums": [
            0.6848669869195874, -1.7951738744195609, -1.1762122153040764,
            0.6923569736100035, 0.4605474507297913, -1.4724683834774623,
        ],
        "w1 cosine projection": [
            0.3250393412208852, 0.46046945193086325, 0.9933638216849496,
            -0.2950104662516734, -0.10800047175518666, 1.1729437978018886,
        ],
        "b1": [
            0.025397662402264126, 0.006462218517814974, -0.019089742622456756,
            0.013463139353614838, -0.00047660059056274257, -0.01899482055777099,
        ],
        "w2": [
            -0.1649924064217249, 0.7772338331198453, 0.25008148342091996, -0.981652877668653,
            -0.47099505718088835, -0.161114329625935, -0.32961812970077164, 0.44107855844318916,
            0.9394313282564393, 0.14020378193397837, 0.290193119906879, 0.390983709669122,
            -0.6069444594959945, -0.017252791912106696, -0.11017083671427332, 0.06893886409282551,
            0.08035125941521264, 0.105485830373079, 0.3200305429853556, -0.1217623218360928,
            0.085517525504603, -0.7278174663163419, -0.4355083588398436, -0.7487639410604552,
        ],
        "b2": [
            -0.022356193727812175, 0.027751625014354065, -0.0036956672100358894,
            -0.0016997640765060457,
        ],
        "test probabilities": [
            0.2684900821740083, 0.2478680814249031, 0.25238831015323393, 0.2312535262478547,
            0.24184371783858083, 0.2740898103853416, 0.2539555923008764, 0.2301108794752011,
            0.3547535024672899, 0.18225545989731953, 0.23263066530832727, 0.23036037232706327,
            0.24700592892238485, 0.2585946607046076, 0.2511504163341347, 0.2432489940388728,
        ],
    })
