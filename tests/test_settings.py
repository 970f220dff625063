"""Every setting's bounds are declared once, with its dataclass field, and
enforced alike from Python (InputError), from a feature config or model
file (FormatError, exit 2, naming the file) and from a ``train`` flag
(exit 1, before any feature file is read)."""

import dataclasses
import math
import re
import struct

import numpy as np
import pytest

from pathsig import cli
from pathsig import io as pio
from pathsig.classifier import TrainConfig, init_model, load_model, save_model
from pathsig.errors import FormatError, InputError
from pathsig.io import ExtractionOptions, read_feature_config
from pathsig.skeleton import FeatureConfig
from pathsig.synth import make_action_dataset, write_dataset

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
