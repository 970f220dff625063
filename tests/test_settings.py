"""Every input rule is written once.  Each setting's bounds are declared
with its dataclass field, and enforced alike from Python (InputError), from
a feature config or model file (FormatError, exit 2, naming the file) and
from a ``train`` flag (exit 1, before any feature file is read).  Every
count, level and int setting is an integer checked by
``errors.check_number``, never truncated.  Each array's rank, non-empty
axes and finite entries are checked by ``errors.check_array``, and a file
whose arrays break them is a FormatError naming the file.  Labels are
checked by ``errors.check_labels``."""

import argparse
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
from pathsig.classifier import (LinearNetModel, TrainConfig, gradient_check, init_model,
                                load_model, lr_schedule, save_model, stage_partition, train)
from pathsig.errors import FormatError, InputError
from pathsig.io import ExtractionOptions, read_feature_config
from pathsig.signature import (TruncatedSignature, as_path, path_signature, path_signature_batch,
                               signature_bruteforce, signature_dimension)
from pathsig.skeleton import (DatasetDescriptor, FeatureConfig, SkeletonClip, add_gaussian_noise,
                              enumerate_pathlets, merge_actors, temporal_joint_features,
                              temporal_spatial_features)
from pathsig.synth import (make_action_clip, make_action_dataset, make_interaction_clip,
                           write_dataset)
from pathsig.transforms import dyadic_windows, lead_lag, uniform_sample

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


def test_an_int_too_long_to_print_is_named_by_its_bit_length():
    # Python refuses str() of an int past 4,300 digits; messages give its bits
    for build, message in (
            (lambda: FeatureConfig(pair_level=10**5000),
             "pair_level = an integer of 16,610 bits is more than the 32 allowed"),
            (lambda: ExtractionOptions(noise_sigma=10**5000),
             "noise_sigma = an integer of 16,610 bits is not finite")):
        with pytest.raises(InputError, match=f"^{message}$"):
            build()


@fields_of(FeatureConfig, ExtractionOptions, TrainConfig)
def test_dataclass_accepts_each_bound_and_rejects_past_it(cls, name):
    accepted, rejected = _edges(cls, name)
    for value in accepted:
        assert getattr(cls(**{name: value}), name) == value
    for value in rejected:
        with pytest.raises(InputError, match=f"^{name} = "):
            cls(**{name: value})


@fields_of(FeatureConfig, ExtractionOptions, TrainConfig)
def test_dataclass_refuses_a_fraction_or_a_string_and_takes_a_numpy_number(cls, name):
    default = getattr(cls(), name)
    if type(default) is int:
        with pytest.raises(InputError, match=f"^{name} = 2.5 is not an integer$"):
            cls(**{name: 2.5})
        assert cls(**{name: np.int64(default)}) == cls()
    else:
        with pytest.raises(InputError, match=f"^{name} = '0.5' is not a number$"):
            cls(**{name: "0.5"})
        with pytest.raises(InputError, match=f"^{name} = 1000+ is not finite$"):
            cls(**{name: 10**400})
        assert cls(**{name: np.float64(default)}) == cls()


@pytest.fixture(scope="module")
def small_set(tmp_path_factory):
    """A 5-joint clip set, a 6 x 3 feature file with its labels, a model file
    of 3 inputs, 2 hidden units and 2 classes with the default TrainConfig,
    and an extract prefix holding the set's descriptor and the default config
    (no scaler: predict fails on each model below before it reads one)."""
    root = tmp_path_factory.mktemp("settings")
    train, _, desc = make_action_dataset(train_clips=4, test_clips=0, joint_count=5, seed=3)
    manifest, descriptor = write_dataset(train, [], desc, root)
    rng = np.random.default_rng(4)
    pio.write_feature_matrix(root / "x.feat", rng.standard_normal((6, 3)))
    pio.write_labels([0, 1, 0, 1, 0, 1], root / "x.labels")
    model = root / "m.model"
    save_model(init_model(3, 2, TrainConfig(), hidden_dim=2), model)
    clip = root / (root / "manifest.txt").read_text().splitlines()[0].split(",")[0]
    pio.write_descriptor(desc, root / "p.descriptor.txt")
    pio.write_feature_config(FeatureConfig(), ExtractionOptions(), root / "p.config.txt")
    return {"manifest": manifest, "descriptor": descriptor, "clip": clip, "x": root / "x.feat",
            "labels": root / "x.labels", "model": model, "prefix": root / "p"}


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
    at = 32 + 4 * 3 * 2 + 8 * (2 + 2 * 2 + 2)  # header, w1 (f4), b1, w2, b2 of a 3-2-2 model
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
        assert cli.main(["predict", "--clip", str(small_set["clip"]), "--features",
                         str(small_set["prefix"]), "--model", str(model)]) == 2
        assert f"format error: {model} config text: {name} = " in capsys.readouterr().err


def test_model_file_rejects_an_unknown_or_missing_key(small_set, tmp_path):
    model = tmp_path / "m.model"
    _with_config_text(small_set["model"], model, lambda t: t + "\nhidden = 2")
    with pytest.raises(FormatError,
                       match=re.escape(f"{model} config text:8: unknown key 'hidden'")):
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


PATH = [[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]]
CLIP = SkeletonClip(np.arange(36.0).reshape(3, 2, 3, 2), np.ones((3, 2, 3), dtype=bool))
MODEL = init_model(3, 2, hidden_dim=2)
BENCH = {"dim": 2, "level": 2, "points": 5, "repeats": 1, "seed": 0}


def _empty_matrix(cols, files):
    """The bytes of a SIGFEAT1 file of ``cols`` columns and no rows."""
    path = files["x"].parent / "empty.feat"
    with pio.FeatureMatrixWriter(path, cols):
        pass
    return path.read_bytes()


# Each count, level or index an entry point takes outside a settings dataclass:
# a call on the value (and the small_set files), the name its InputError
# starts with, a value it takes, and one past its bound.
NUMBER_INPUTS = {
    "signature_dimension.d": (lambda v, f: signature_dimension(v, 3), "d", 2, 0),
    "signature_dimension.n": (lambda v, f: signature_dimension(2, v), "n", 3, -1),
    "TruncatedSignature.d": (lambda v, f: TruncatedSignature(v, 2, np.ones(6)).data.tolist(),
                             "d", 2, 0),
    "TruncatedSignature.n": (lambda v, f: TruncatedSignature(2, v, np.ones(6)).data.tolist(),
                             "n", 2, 0),
    "TruncatedSignature.level": (lambda v, f: path_signature(PATH, 2).level(v).tolist(),
                                 "k", 2, 3),
    "TruncatedSignature.coefficient": (lambda v, f: path_signature(PATH, 2).coefficient((1, v)),
                                       "channel index", 1, 2),
    "path_signature.level": (lambda v, f: path_signature(PATH, v).data.tolist(), "level", 3, 0),
    "path_signature_batch.level": (lambda v, f: path_signature_batch([PATH], v).tolist(),
                                   "level", 3, 0),
    "signature_bruteforce.level": (lambda v, f: signature_bruteforce(PATH, v, 10).data.tolist(),
                                   "level", 2, 0),
    "signature_bruteforce.subdivisions": (
        lambda v, f: signature_bruteforce(PATH, 2, v).data.tolist(), "subdivisions", 10, 0),
    "lead_lag.delay_dim": (lambda v, f: lead_lag([1.0, 2.0, 4.0], v).tolist(), "delay_dim", 2, 0),
    "dyadic_windows.length": (lambda v, f: dyadic_windows(v, 2), "length", 5, 1),
    "dyadic_windows.depth": (lambda v, f: dyadic_windows(9, v), "depth", 2, 0),
    "uniform_sample.frame_count": (lambda v, f: uniform_sample(v, 4).tolist(), "frame_count",
                                   10, 0),
    "uniform_sample.count": (lambda v, f: uniform_sample(10, v).tolist(), "count", 4, 0),
    "DatasetDescriptor.joint_count": (lambda v, f: DatasetDescriptor(v, 2), "joint_count", 3, 1),
    "DatasetDescriptor.dim": (lambda v, f: DatasetDescriptor(3, v), "dim", 2, 4),
    "DatasetDescriptor.horizontal_axis": (lambda v, f: DatasetDescriptor(3, 2, horizontal_axis=v),
                                          "horizontal_axis", 1, 2),
    "DatasetDescriptor.priority": (lambda v, f: DatasetDescriptor(3, 2, priority=(v, 0, 2)),
                                   "priority", 1, 3),
    "DatasetDescriptor.mirror": (lambda v, f: DatasetDescriptor(3, 2, mirror=(v, 0, 2)),
                                 "mirror", 1, 3),
    "DatasetDescriptor.merged": (lambda v, f: DatasetDescriptor(3, 2).merged(v), "bodies", 2, 0),
    "enumerate_pathlets.joint_count": (lambda v, f: enumerate_pathlets(v, 2), "joint_count", 4, 1),
    "enumerate_pathlets.size": (lambda v, f: enumerate_pathlets(4, v), "size", 3, 4),
    "merge_actors.bodies": (lambda v, f: merge_actors(CLIP, [1], v).joints.tolist(), "bodies",
                            2, 0),
    "merge_actors.actor_indices": (lambda v, f: merge_actors(CLIP, [v], 1).joints.tolist(),
                                   "actor index", 1, 2),
    "init_model.input_dim": (lambda v, f: init_model(v, 2, hidden_dim=2).w1.tolist(),
                             "input_dim", 3, 0),
    "init_model.class_count": (lambda v, f: init_model(3, v, hidden_dim=2).w2.tolist(),
                               "class_count", 2, 1),
    "init_model.hidden_dim": (lambda v, f: init_model(3, 2, hidden_dim=v).w1.tolist(),
                              "hidden_dim", 2, 0),
    "lr_schedule.epoch": (lambda v, f: lr_schedule(v, TrainConfig()), "epoch", 3, -1),
    "gradient_check.label": (lambda v, f: gradient_check(MODEL, np.ones(3), v), "label", 1, 2),
    "stage_partition.class_count": (
        lambda v, f: stage_partition([0, 1], [1, 2], v).multi_body.tolist(), "class_count", 2, 0),
    "FeatureMatrixWriter.cols": (_empty_matrix, "cols", 3, -1),
    "read_clip_file.min_actors": (
        lambda v, f: pio.read_clip_file(f["clip"], pio.read_descriptor(f["descriptor"]),
                                        min_actors=v).joints.tolist(), "min_actors", 3, 0),
    **{f"cmd_bench.{name}": (lambda v, f, name=name: cli.cmd_bench(argparse.Namespace(
        **{**BENCH, name: v})), f"--{name}", 2, low - 1)
       for name, low in (("repeats", 1), ("points", 1), ("dim", 1), ("seed", 0))},
}


@pytest.mark.parametrize("entry", NUMBER_INPUTS)
def test_each_count_is_an_integer_within_its_bounds(entry, small_set):
    call, what, good, past = NUMBER_INPUTS[entry]
    with pytest.raises(InputError, match=f"^{re.escape(what)} = 2.5 is not an integer$"):
        call(2.5, small_set)
    with pytest.raises(InputError, match=f"^{re.escape(what)}"):
        call(past, small_set)
    assert call(np.int64(good), small_set) == call(good, small_set)


def test_noise_sigma_is_a_finite_float_at_least_0():
    for bad in ("0.01", -0.01, math.nan, math.inf):
        with pytest.raises(InputError, match="^sigma = "):
            add_gaussian_noise(CLIP, bad, 0)
    assert np.array_equal(add_gaussian_noise(CLIP, np.float64(0.01), 0).joints,
                          add_gaussian_noise(CLIP, 0.01, 0).joints)


def test_synthetic_clips_take_their_classes_in_two_dimensions():
    for make, kind in ((make_action_clip, "action"), (make_interaction_clip, "interaction")):
        with pytest.raises(InputError, match=f"^unknown {kind} class id 4$"):
            make(4, 0)
        with pytest.raises(InputError, match="^synthetic actions are generated in 2 dimensions$"):
            make(0, 0, dim=3)


def test_a_label_outside_the_classes_is_named():
    x, config = np.ones((3, 3)), TrainConfig(max_epochs=1)
    for labels, bad in (([0, 1, 2], "2"), ([0, 1.5, 1], "1.5"), ([0, -1, 1], "-1")):
        message = rf"^labels: label {bad} is outside 0\.\.1$"
        with pytest.raises(InputError, match=message):
            train(init_model(3, 2, config, hidden_dim=2), x, labels)
        with pytest.raises(InputError, match=message):
            stage_partition(labels, [1, 2, 1], 2)


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
                 ["predict", "--clip", small_set["clip"], "--features", small_set["prefix"]]):
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
