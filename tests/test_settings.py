"""Every input rule is written once.  Each setting's bounds are declared
with its dataclass field, and enforced alike from Python (InputError), from
a feature config or model file (FormatError, exit 2, naming the file) and
from a ``train`` flag (exit 1, before any feature file is read).  Each
array's rank, non-empty axes and finite entries are checked by
``errors.check_array``, and a file whose arrays break them is a FormatError
naming the file."""

import dataclasses
import functools
import math
import re
import struct
import types

import numpy as np
import pytest

from pathsig import cli
from pathsig import io as pio
from pathsig.classifier import LinearNetModel, TrainConfig, init_model, load_model, save_model
from pathsig.errors import FormatError, InputError
from pathsig.io import ExtractionOptions, read_feature_config
from pathsig.signature import as_path, path_signature_batch
from pathsig.skeleton import (FeatureConfig, SkeletonClip, temporal_joint_features,
                              temporal_spatial_features)
from pathsig.synth import make_action_dataset, write_dataset
from pathsig.transforms import lead_lag

LEVEL = {"ge": 1, "le": 32}
BOUNDS = {
    (FeatureConfig, "sampled_frames"): {"ge": 1, "le": 1000},
    (FeatureConfig, "pair_level"): LEVEL,
    (FeatureConfig, "triple_level"): LEVEL,
    (FeatureConfig, "joint_level"): LEVEL,
    (FeatureConfig, "evolution_level"): LEVEL,
    (FeatureConfig, "lead_lag_dim"): {"ge": 1, "le": 1000},
    (FeatureConfig, "dyadic_depth"): LEVEL,
    (ExtractionOptions, "bodies"): {"ge": 1},
    (ExtractionOptions, "noise_copies"): {"ge": 0, "le": 100},
    (ExtractionOptions, "noise_sigma"): {"ge": 0.0, "le": 1.0},
    (ExtractionOptions, "seed"): {"ge": 0},
    (TrainConfig, "batch_size"): {"ge": 1},
    (TrainConfig, "momentum"): {"ge": 0.0, "lt": 1.0},
    (TrainConfig, "learning_rate"): {"gt": 0.0},
    (TrainConfig, "decay"): {"ge": 0.0},
    (TrainConfig, "max_epochs"): {"ge": 1},
    (TrainConfig, "drop_rate"): {"ge": 0.0, "lt": 1.0},
    (TrainConfig, "seed"): {"ge": 0},
}


def fields_of(*classes):
    """Parametrize a test over the bounded fields of ``classes``."""
    keys = [key for key in BOUNDS if key[0] in classes]
    return pytest.mark.parametrize("cls, name", keys,
                                   ids=[f"{cls.__name__}.{name}" for cls, name in keys])


def _edges(cls, name):
    """(accepted, rejected): each bound's limit and the nearest value past it,
    split by which side of the bound each lies on; floats also reject nan and
    both infinities."""
    bounds = BOUNDS[cls, name]
    floats = type(next(iter(bounds.values()))) is float
    accepted, rejected = [], []
    for bound, limit in bounds.items():
        outward = -math.inf if bound in ("ge", "gt") else math.inf
        if bound in ("gt", "lt"):  # only floats have open bounds
            accepted.append(math.nextafter(limit, -outward))
            rejected.append(limit)
        else:
            accepted.append(limit)
            rejected.append(math.nextafter(limit, outward) if floats
                            else limit + int(math.copysign(1, outward)))
    if floats:
        rejected += [math.nan, math.inf, -math.inf]
    return accepted, rejected


def test_every_bounded_field_is_listed():
    declared = {(cls, f.name): dict(f.metadata)
                for cls in (FeatureConfig, ExtractionOptions, TrainConfig)
                for f in dataclasses.fields(cls) if f.metadata}
    assert declared == BOUNDS


@fields_of(FeatureConfig, ExtractionOptions, TrainConfig)
def test_dataclass_accepts_each_bound_and_rejects_past_it(cls, name):
    accepted, rejected = _edges(cls, name)
    for value in accepted:
        assert getattr(cls(**{name: value}), name) == value
    for value in rejected:
        with pytest.raises(InputError, match=f"^{name} = "):
            cls(**{name: value})


@pytest.fixture(scope="module")
def small_set(tmp_path_factory):
    """A 5-joint clip set, a 6 x 3 feature file with its labels, and a model
    file of 3 inputs, 2 hidden units and 2 classes with the default TrainConfig."""
    root = tmp_path_factory.mktemp("settings")
    train, _, desc = make_action_dataset(train_clips=4, test_clips=0, joint_count=5, seed=3)
    manifest, descriptor = write_dataset(train, [], desc, root)
    rng = np.random.default_rng(4)
    pio.write_feature_matrix(root / "x.feat", rng.standard_normal((6, 3)))
    pio.write_labels([0, 1, 0, 1, 0, 1], root / "x.labels")
    model = root / "m.model"
    save_model(init_model(3, 2, TrainConfig(), hidden_dim=2), model)
    clip = root / (root / "manifest.txt").read_text().splitlines()[0].split(",")[0]
    return {"manifest": manifest, "descriptor": descriptor, "clip": clip, "x": root / "x.feat",
            "labels": root / "x.labels", "model": model}


@fields_of(FeatureConfig, ExtractionOptions)
def test_config_file_accepts_each_bound_and_rejects_past_it(cls, name, small_set, tmp_path,
                                                             capsys):
    accepted, rejected = _edges(cls, name)
    config = tmp_path / "cfg.txt"
    for value in accepted:
        config.write_text(f"{name} = {value}\n")
        settings = dict(zip((FeatureConfig, ExtractionOptions), read_feature_config(config)))
        assert getattr(settings[cls], name) == value
    for value in rejected:
        config.write_text(f"{name} = {value}\n")
        with pytest.raises(FormatError, match=re.escape(f"{config}: {name} = ")):
            read_feature_config(config)
        assert cli.main(["features", "extract", "--manifest", str(small_set["manifest"]),
                         "--descriptor", str(small_set["descriptor"]), "--config", str(config),
                         "--output", str(tmp_path / "f")]) == 2
        assert f"format error: {config}: {name} = " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.txt"]


def _with_config_text(model_path, path, edit):
    """Copy the model at ``model_path`` to ``path`` with ``edit`` applied to its config text."""
    data = model_path.read_bytes()
    at = 32 + 8 * (3 * 2 + 2 + 2 * 2 + 2)  # header, then w1, b1, w2, b2 of a 3-2-2 model
    assert struct.unpack("<Q", data[at:at + 8])[0] == len(data) - at - 8
    text = edit(data[at + 8:].decode("ascii")).encode("ascii")
    path.write_bytes(data[:at] + struct.pack("<Q", len(text)) + text)


@fields_of(TrainConfig)
def test_model_file_accepts_each_bound_and_rejects_past_it(cls, name, small_set, tmp_path,
                                                            capsys):
    accepted, rejected = _edges(cls, name)
    model = tmp_path / "m.model"
    default = f"{name} = {getattr(TrainConfig(), name)}"

    def write(value):
        _with_config_text(small_set["model"], model,
                          lambda text: text.replace(default, f"{name} = {value}"))

    for value in accepted:
        write(value)
        assert getattr(load_model(model).config, name) == value
    for value in rejected:
        write(value)
        with pytest.raises(FormatError, match=re.escape(f"{model} config text: {name} = ")):
            load_model(model)
        assert cli.main(["predict", "--clip", str(small_set["clip"]), "--descriptor",
                         str(small_set["descriptor"]), "--model", str(model),
                         "--scaler", str(tmp_path / "unread.scaler.feat")]) == 2
        assert f"format error: {model} config text: {name} = " in capsys.readouterr().err


def test_model_file_rejects_an_unknown_or_missing_key(small_set, tmp_path):
    model = tmp_path / "m.model"
    _with_config_text(small_set["model"], model, lambda t: t + "\nhidden = 2")
    with pytest.raises(FormatError, match=re.escape(f"{model} config text: unknown key 'hidden'")):
        load_model(model)
    _with_config_text(small_set["model"], model,
                      lambda t: "\n".join(line for line in t.splitlines() if "decay" not in line))
    with pytest.raises(FormatError, match=re.escape(f"{model} config text: missing key 'decay'")):
        load_model(model)


@fields_of(TrainConfig)
def test_train_flag_accepts_each_bound_and_rejects_past_it_before_reading(
        cls, name, small_set, tmp_path, monkeypatch, capsys):
    accepted, rejected = _edges(cls, name)
    flag = "--" + cli._TRAIN_FLAGS.get(name, name).replace("_", "-")
    argv = ["train", "--features", str(small_set["x"]), "--labels", str(small_set["labels"]),
            "--model", str(tmp_path / "m.model")]
    configs = []
    monkeypatch.setattr(cli, "_fit", lambda x, y, count, config, *rest: configs.append(config))
    for value in accepted:
        assert cli.main(argv + [f"{flag}={value}"]) == 0
        assert getattr(configs.pop(), name) == value

    def unreachable(*args, **kwargs):
        raise AssertionError("read a feature file")

    monkeypatch.setattr(pio, "FeatureRows", unreachable)
    for value in rejected:
        assert cli.main(argv + [f"{flag}={value}"]) == 1
        assert f"error: {name} = " in capsys.readouterr().err
    assert not configs


WEIGHTS = {"w1": (3, 2), "b1": (2,), "w2": (2, 2), "b2": (2,)}


def _model_with(name, arr):
    return LinearNetModel(**{**{k: np.ones(shape) for k, shape in WEIGHTS.items()}, name: arr})


# Each entry point whose arrays errors.check_array checks: a call on the array,
# the shape of an array it accepts, and the name its InputError starts with.
ARRAY_INPUTS = {
    "as_path": (as_path, (4, 2), "path"),
    "path_signature_batch": (lambda a: path_signature_batch(a, 2), (3, 4, 2), "paths"),
    "lead_lag": (lambda a: lead_lag(a, 2), (5,), "series"),
    "SkeletonClip": (lambda a: SkeletonClip(a, np.ones(a.shape[:3], dtype=bool)), (3, 1, 3, 2),
                     "joints"),
    "_check_actor_array": (lambda a: temporal_joint_features(a, FeatureConfig()), (4, 3, 2),
                           "actor joints"),
    "temporal_spatial_features": (lambda a: temporal_spatial_features(a, FeatureConfig()),
                                  (6, 4), "spatial block"),
    **{f"LinearNetModel.{name}": (functools.partial(_model_with, name), shape, name)
       for name, shape in WEIGHTS.items()},
}


def _broken(shape, case):
    """An array of ``shape`` with one more axis, an empty first axis, or a
    nan or inf entry."""
    if case == "axes":
        return np.ones(shape + (2,))
    if case == "empty":
        return np.ones((0,) + shape[1:])
    arr = np.ones(shape)
    arr.flat[-1] = float(case)
    return arr


@pytest.mark.parametrize("case", ["axes", "empty", "nan", "inf"])
@pytest.mark.parametrize("entry", ARRAY_INPUTS)
def test_each_array_input_is_checked_once(entry, case):
    call, shape, what = ARRAY_INPUTS[entry]
    call(np.ones(shape))
    with pytest.raises(InputError, match=f"^{re.escape(what)}"):
        call(_broken(shape, case))


def test_model_weights_must_agree_in_shape():
    for name, arr in (("b1", np.ones(3)), ("w2", np.ones((3, 2))), ("b2", np.ones(3))):
        with pytest.raises(InputError, match="inconsistent weight shapes"):
            _model_with(name, arr)


def _save_raw_model(path, w1, b1, w2, b2):
    """``save_model`` of weights no LinearNetModel would hold."""
    save_model(types.SimpleNamespace(input_dim=w1.shape[0], hidden_dim=w1.shape[1],
                                     class_count=w2.shape[1], w1=w1, b1=b1, w2=w2, b2=b2,
                                     config=TrainConfig()), path)


@pytest.mark.parametrize("weights, message", [
    ((np.full((3, 2), np.nan), np.zeros(2), np.zeros((2, 2)), np.zeros(2)),
     "w1 contains non-finite values"),
    ((np.zeros((3, 0)), np.zeros(0), np.zeros((0, 2)), np.zeros(2)),
     "w1 must be a non-empty 2-D array"),
], ids=["nan_weight", "no_hidden_units"])
def test_model_file_with_bad_weights_is_a_format_error(weights, message, small_set, tmp_path,
                                                       capsys):
    model = tmp_path / "bad.model"
    _save_raw_model(model, *weights)
    with pytest.raises(FormatError, match=re.escape(f"{model}: {message}")):
        load_model(model)
    for argv in (["eval", "--features", small_set["x"], "--labels", small_set["labels"]],
                 ["predict", "--clip", small_set["clip"], "--descriptor", small_set["descriptor"],
                  "--scaler", tmp_path / "unread.scaler.feat"]):
        assert cli.main([str(a) for a in argv + ["--model", model]]) == 2
        assert f"format error: {model}: {message}" in capsys.readouterr().err


def test_clip_file_with_a_nan_coordinate_is_a_format_error(small_set, tmp_path, capsys):
    lines = small_set["clip"].read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:3] + ["nan", "0"])
    clip = tmp_path / "nan.clip"
    clip.write_text("\n".join(lines) + "\n")
    descriptor = pio.read_descriptor(small_set["descriptor"])
    with pytest.raises(FormatError, match=re.escape(f"{clip}: joints")):
        pio.read_clip_file(clip, descriptor)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{clip},{descriptor.class_names[0]},train,1\n")
    assert cli.main(["features", "extract", "--manifest", str(manifest), "--descriptor",
                     str(small_set["descriptor"]), "--output", str(tmp_path / "f")]) == 2
    assert f"format error: {clip}: joints" in capsys.readouterr().err


def test_path_file_with_a_nan_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "nan.txt"
    path.write_text("0,0\nnan,1\n2,2\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: path contains non-finite values")):
        pio.read_path_file(path)
    assert cli.main(["sig", "compute", str(path), "--level", "2"]) == 2
    assert f"format error: {path}: path contains non-finite" in capsys.readouterr().err
