"""Command line surface: output text, exit codes, file-level determinism."""

import dataclasses
import pathlib
import re
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from pathsig import classifier, cli
from pathsig.classifier import TrainConfig
from pathsig import io as pio
from pathsig.errors import InputError
from pathsig.io import (ExtractionOptions, read_feature_matrix, write_feature_config,
                        write_feature_matrix)
from pathsig.skeleton import (FeatureConfig, FeatureScaler, apply_scaler, assemble_features,
                              augment_clips, feature_layout, fit_scaler)
from pathsig.synth import make_action_dataset, make_interaction_dataset, write_dataset


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "pathsig", *map(str, args)],
                          capture_output=True, text=True, **kwargs)


def _copy_prefix(prefix, new, suffixes=None):
    """Copy the files ``prefix.*`` of an extract or train run to ``new.*``, or
    only those ending in one of ``suffixes``."""
    prefix, new = pathlib.Path(prefix), pathlib.Path(new)
    for path in prefix.parent.glob(f"{prefix.name}.*"):
        if suffixes is None or path.name.endswith(suffixes):
            (new.parent / (new.name + path.name[len(prefix.name):])).write_bytes(path.read_bytes())


SMALL_CONFIG = FeatureConfig(sampled_frames=4, pair_level=2, triple_level=2,
                             joint_level=3, evolution_level=2)


@pytest.fixture(scope="module")
def action_ds(tmp_path_factory):
    root = tmp_path_factory.mktemp("action_ds")
    train, test, desc = make_action_dataset(train_clips=16, test_clips=8,
                                            joint_count=5, dim=2, seed=7)
    manifest, descriptor = write_dataset(train, test, desc, root)
    config = root / "featcfg.txt"
    write_feature_config(SMALL_CONFIG, ExtractionOptions(noise_copies=1), config)
    return {"root": root, "manifest": manifest, "descriptor": descriptor,
            "config": config}


@pytest.fixture(scope="module")
def extracted(action_ds):
    prefix = action_ds["root"] / "feat"
    result = run_cli("features", "extract",
                     "--manifest", action_ds["manifest"],
                     "--descriptor", action_ds["descriptor"],
                     "--config", action_ds["config"],
                     "--output", prefix)
    assert result.returncode == 0, result.stderr
    return {"prefix": prefix, "stdout": result.stdout, **action_ds}


@pytest.fixture(scope="module")
def trained(extracted):
    model = extracted["root"] / "net.model"
    result = run_cli("train",
                     "--features", f"{extracted['prefix']}.train.feat",
                     "--labels", f"{extracted['prefix']}.train.labels",
                     "--model", model, "--epochs", 30)
    assert result.returncode == 0, result.stderr
    return {"model": model, **extracted}


# --------------------------------------------------------------- sig compute


def test_sig_compute_prints_level_value_lines(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("0,0\n1,0.5\n2,2\n")
    result = run_cli("sig", "compute", p, "--level", 2)
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines == ["1 2", "1 2", "2 2", "2 2.5", "2 1.5", "2 2"]


def test_sig_compute_17_digit_output(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("0\n0.1\n")
    result = run_cli("sig", "compute", p, "--level", 2)
    # 0.1 has no exact binary form; all 17 significant digits must survive
    assert result.stdout.splitlines() == ["1 0.10000000000000001",
                                          "2 0.005000000000000001"]


def test_sig_compute_transforms_compose(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("0\n1\n3\n")
    result = run_cli("sig", "compute", p, "--level", 1, "--lead-lag", 2, "--add-time")
    assert result.returncode == 0
    # columns: series, 1-step lag, time
    assert result.stdout.splitlines() == ["1 3", "1 1", "1 1"]


def test_sig_compute_lead_lag_needs_1d(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("0,0\n1,1\n")
    result = run_cli("sig", "compute", p, "--level", 2, "--lead-lag", 2)
    assert result.returncode == 1
    assert "1-dimensional" in result.stderr


def test_exit_codes():
    missing = run_cli("sig", "compute", "/nonexistent/path.txt", "--level", 2)
    assert missing.returncode == 1
    usage = run_cli("sig", "compute")  # missing required arguments
    assert usage.returncode == 1
    unknown = run_cli("frobnicate")
    assert unknown.returncode == 1


def test_main_returns_its_usage_status_in_process(capsys):
    for argv in ([], ["train"]):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("usage: pathsig")
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: pathsig")


def test_malformed_content_is_exit_2(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("1,2\nnope,4\n")
    result = run_cli("sig", "compute", p, "--level", 2)
    assert result.returncode == 2
    assert f"{p}:2" in result.stderr


# --------------------------------------------------------------------- bench


def test_bench_reports_coefficients_and_times():
    result = run_cli("bench", "--dim", 4, "--level", 3, "--points", 30,
                     "--repeats", 2)
    assert result.returncode == 0
    assert "coefficients: 84" in result.stdout
    assert re.search(r"min \d+\.\d{3}s mean \d+\.\d{3}s max \d+\.\d{3}s",
                     result.stdout)
    # 84 coefficients x 29 segments / min time, as perfbench's sig_coeffs_per_s
    rate = re.search(r"^coefficient-segments per second: (\d{1,3}(?:,\d{3})*)$",
                     result.stdout, re.MULTILINE)
    assert rate and int(rate.group(1).replace(",", "")) > 0, result.stdout


def test_bench_thousands_separator():
    result = run_cli("bench", "--dim", 60, "--level", 2, "--points", 3)
    assert "coefficients: 3,660" in result.stdout


def test_bench_rejects_zero_repeats():
    result = run_cli("bench", "--dim", 2, "--level", 2, "--points", 5,
                     "--repeats", 0)
    assert result.returncode == 1
    result = run_cli("bench", "--dim", -1, "--level", 2, "--points", 5)
    assert result.returncode == 1
    assert "--dim = -1 must be >= 1" in result.stderr
    result = run_cli("bench", "--dim", 2, "--level", 2, "--points", 5, "--seed", -1)
    assert result.returncode == 1
    assert result.stderr == "error: --seed = -1 must be >= 0\n"


def test_bench_reports_peak_rss():
    # dimension 60, level 4: the 13,179,660-coefficient output alone is 100.6 MiB
    result = run_cli("bench", "--dim", 60, "--level", 4, "--points", 2)
    assert result.returncode == 0, result.stderr
    match = re.search(r"^peak RSS: (\d+\.\d) MiB$", result.stdout, re.MULTILINE)
    assert match, result.stdout
    assert float(match.group(1)) >= 13_179_660 * 8 / 2**20


def test_bench_too_large_to_allocate_is_exit_1(tmp_path):
    path, series = tmp_path / "path.txt", tmp_path / "series.txt"
    path.write_text("0,0\n1,0.5\n")
    series.write_text("0\n1\n")
    for argv in (
        # 72.8 PiB of coefficients: numpy refuses the allocation up front
        ["bench", "--dim", 60, "--level", 9, "--points", 2],
        # past any array's byte count, where numpy would raise ValueError
        ["bench", "--dim", 60, "--level", 30, "--points", 2],
        ["bench", "--dim", 10**20, "--level", 1, "--points", 2],
        ["sig", "compute", path, "--level", 60],
        ["sig", "compute", path, "--level", 10**30],
        ["sig", "compute", series, "--level", 2, "--lead-lag", 10**20],
    ):
        result = run_cli(*argv)
        assert result.returncode == 1, argv
        assert result.stderr.startswith("error: out of memory: ")
        assert "Traceback" not in result.stderr


# ------------------------------------------------------------------- extract


def test_extract_prints_every_block_width(extracted):
    out = extracted["stdout"]
    for token in ("joints", "pair_sig", "triple_sig", "joint_motion_sig",
                  "spatial_evolution_sig", "total dimension"):
        assert token in out
    assert "train rows: 48" in out  # 16 clips x (1 + flip + 1 noisy)
    assert "test rows: 8" in out


def test_extract_writes_expected_files(extracted):
    prefix = extracted["prefix"]
    for suffix in (".train.feat", ".train.labels", ".test.feat",
                   ".test.labels", ".scaler.feat", ".descriptor.txt", ".config.txt"):
        assert (prefix.parent / (prefix.name + suffix)).exists()


def test_extract_rerun_is_byte_identical(extracted):
    again = extracted["root"] / "feat2"
    result = run_cli("features", "extract",
                     "--manifest", extracted["manifest"],
                     "--descriptor", extracted["descriptor"],
                     "--config", extracted["config"],
                     "--output", again)
    assert result.returncode == 0
    for suffix in (".train.feat", ".test.feat", ".train.labels",
                   ".test.labels", ".scaler.feat", ".descriptor.txt", ".config.txt"):
        a = (extracted["prefix"].parent / (extracted["prefix"].name + suffix)).read_bytes()
        b = (again.parent / (again.name + suffix)).read_bytes()
        assert a == b, suffix


@pytest.mark.parametrize("bodies, two_stage", [(None, False), (1, False), (2, False), (1, True)],
                         ids=["default", "config", "two_bodies", "two_stage"])
def test_extract_records_the_descriptor_and_config_it_used(interaction_ds, tmp_path, capsys,
                                                           bodies, two_stage):
    # hand-written inputs: comments, spacing and omitted keys are not kept
    descriptor = tmp_path / "d.txt"
    descriptor.write_text("# five joints\n" + pathlib.Path(interaction_ds["descriptor"]).read_text()
                          .replace(" = ", "="))
    config = tmp_path / "c.txt"
    config.write_text(f"# small\nbodies ={bodies}\nsampled_frames= 4\ntriple_level = 2\n"
                      "joint_level = 3\nnoise_copies = 0\n")
    flags = (["--config", str(config)] if bodies else []) + (["--two-stage"] if two_stage else [])
    for prefix in ("f", "again"):
        assert cli.main(["features", "extract", "--manifest", str(interaction_ds["manifest"]),
                         "--descriptor", str(descriptor), "--output", str(tmp_path / prefix),
                         *flags]) == 0
    capsys.readouterr()
    pio.write_descriptor(pio.read_descriptor(descriptor), tmp_path / "ref.descriptor.txt")
    pio.write_feature_config(*(pio.read_feature_config(config) if bodies
                               else (FeatureConfig(), ExtractionOptions())),
                             tmp_path / "ref.config.txt")
    for suffix in (".descriptor.txt", ".config.txt"):
        assert (tmp_path / f"f{suffix}").read_bytes() == (tmp_path / f"ref{suffix}").read_bytes()
    outputs = sorted(p.name[len("f"):] for p in tmp_path.glob("f.*"))
    assert len(outputs) == (18 if two_stage else 7)
    assert sorted(p.name[len("again"):] for p in tmp_path.glob("again.*")) == outputs
    for suffix in outputs:  # a rerun writes every file byte-identical
        assert (tmp_path / f"f{suffix}").read_bytes() == (tmp_path / f"again{suffix}").read_bytes()


def test_extract_unknown_label_fails(action_ds, tmp_path):
    bad = tmp_path / "manifest.txt"
    first_clip = next((action_ds["root"] / "clips").iterdir())
    bad.write_text(f"{first_clip},unheard_of,train,1\n")
    result = run_cli("features", "extract", "--manifest", bad,
                     "--descriptor", action_ds["descriptor"],
                     "--output", tmp_path / "x")
    assert result.returncode == 1
    assert "unheard_of" in result.stderr


def test_extract_needs_a_train_record(action_ds, tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    first_clip = next((action_ds["root"] / "clips").iterdir())
    name = pio.read_descriptor(action_ds["descriptor"]).class_names[0]
    manifest.write_text(f"{first_clip},{name},test,1\n")
    assert cli.main(["features", "extract", "--manifest", str(manifest), "--descriptor",
                     str(action_ds["descriptor"]), "--output", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: {manifest}: no train records\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.txt"]


# ---------------------------------------------------------------- train/eval


def test_train_writes_model_and_history(trained):
    assert trained["model"].exists()
    history = trained["model"].parent / (trained["model"].name + ".history.txt")
    lines = history.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 31
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0.01"


def test_eval_confusion_matches_reported_accuracy(trained):
    result = run_cli("eval",
                     "--features", f"{trained['prefix']}.test.feat",
                     "--labels", f"{trained['prefix']}.test.labels",
                     "--model", trained["model"])
    assert result.returncode == 0, result.stderr
    out = result.stdout.splitlines()
    matrix_start = next(i for i, l in enumerate(out) if l.startswith("confusion")) + 1
    matrix = np.array([[int(v) for v in row.split()]
                       for row in out[matrix_start:matrix_start + 4]])
    overall = re.search(r"overall accuracy: (\d+)/(\d+) = (\d+\.\d{6})", out[-1])
    correct, total = int(overall.group(1)), int(overall.group(2))
    assert matrix.sum() == total == 8
    assert np.trace(matrix) == correct
    assert f"{correct / total:.6f}" == overall.group(3)
    for c in range(4):
        line = re.match(rf"class {c}: (\d+)/(\d+)", out[c])
        assert int(line.group(1)) == matrix[c, c]
        assert int(line.group(2)) == matrix[c].sum()


def test_eval_rejects_mismatched_labels(trained, tmp_path):
    labels = tmp_path / "wrong.labels"
    labels.write_text("0\n1\n")
    result = run_cli("eval", "--features", f"{trained['prefix']}.test.feat",
                     "--labels", labels, "--model", trained["model"])
    assert result.returncode == 1


def test_train_divergence_is_exit_1_without_model(tmp_path):
    feat = tmp_path / "huge.feat"
    write_feature_matrix(feat, np.full((6, 5), 1e300))
    labels = tmp_path / "huge.labels"
    labels.write_text("0\n1\n0\n1\n0\n1\n")
    model = tmp_path / "huge.model"
    result = run_cli("train", "--features", feat, "--labels", labels,
                     "--model", model, "--epochs", 3, "--batch-size", 2)
    assert result.returncode == 1
    assert re.search(r"diverged.*epoch \d+, batch \d+", result.stderr)
    assert "RuntimeWarning" not in result.stderr
    assert not model.exists()


def test_eval_oversized_header_is_exit_2(trained, tmp_path):
    feat = tmp_path / "hostile.feat"
    feat.write_bytes(b"SIGFEAT1" + struct.pack("<QQ", 10**6, 10**6) + b"\x00" * 64)
    result = run_cli("eval", "--features", feat,
                     "--labels", f"{trained['prefix']}.test.labels",
                     "--model", trained["model"])
    assert result.returncode == 2
    assert str(feat) in result.stderr and "88 bytes" in result.stderr


def test_train_zero_row_hostile_width_is_exit_2(tmp_path):
    feat = tmp_path / "hostile.feat"
    feat.write_bytes(b"SIGFEAT1" + struct.pack("<QQ", 0, 2**62))  # 0 payload bytes
    labels = tmp_path / "y.labels"
    labels.write_text("0\n")
    result = run_cli("train", "--features", feat, "--labels", labels,
                     "--model", tmp_path / "m.model")
    assert result.returncode == 2
    assert f"{feat}: data shape (0, {2**62}) is too large" in result.stderr
    assert "Traceback" not in result.stderr


def test_train_zero_column_huge_row_count_ends_quickly(tmp_path):
    # 2^59 rows of no columns fill no bytes: the non-finite check takes them
    # as one empty block, and the labels file decides
    feat = tmp_path / "wide.feat"
    feat.write_bytes(b"SIGFEAT1" + struct.pack("<QQ", 2**59, 0))
    (tmp_path / "y.labels").write_text("0\n1\n")
    result = run_cli("train", "--features", feat, "--labels", tmp_path / "y.labels",
                     "--model", tmp_path / "m.model", timeout=60)
    assert result.returncode == 1, result.stderr
    assert f"2 labels for {2**59} feature rows" in result.stderr


def test_eval_non_ascii_model_config_is_exit_2(trained, tmp_path):
    model = tmp_path / "bad.model"
    model.write_bytes(trained["model"].read_bytes()[:-1] + b"\xff")  # config text is last
    result = run_cli("eval", "--features", f"{trained['prefix']}.test.feat",
                     "--labels", f"{trained['prefix']}.test.labels", "--model", model)
    assert result.returncode == 2
    assert f"{model} config text" in result.stderr and "byte 0xff" in result.stderr
    assert "Traceback" not in result.stderr


# ------------------------------------------------------------------- predict


def test_predict_prints_class_and_probability(trained):
    manifest_lines = (trained["root"] / "manifest.txt").read_text().splitlines()
    clip_rel, label, _, _ = manifest_lines[0].split(",")
    result = run_cli("predict", "--clip", trained["root"] / clip_rel,
                     "--features", trained["prefix"],
                     "--model", trained["model"])
    assert result.returncode == 0, result.stderr
    name, prob = result.stdout.split()
    assert name in ("sway", "drift", "shake", "pulse")
    assert 0.25 <= float(prob) <= 1.0


def test_predict_rejects_non_finite_scaler(trained, tmp_path, capsys):
    # an infinite scale would zero its column of every predicted row
    _copy_prefix(trained["prefix"], tmp_path / "inf")
    scaler = tmp_path / "inf.scaler.feat"
    x, layout = read_feature_matrix(f"{trained['prefix']}.scaler.feat")
    x[0, 3] = np.inf
    write_feature_matrix(scaler, x, layout)
    clip_rel = (trained["root"] / "manifest.txt").read_text().splitlines()[0].split(",")[0]
    argv = ["predict", "--clip", trained["root"] / clip_rel, "--features", tmp_path / "inf",
            "--model", trained["model"]]
    assert cli.main([str(a) for a in argv]) == 2
    assert f"{scaler}: invalid scaler: scale contains non-finite values" in capsys.readouterr().err


def test_predict_takes_no_descriptor_config_or_scaler_flag(trained, capsys):
    clip_rel = (trained["root"] / "manifest.txt").read_text().splitlines()[0].split(",")[0]
    argv = ["predict", "--clip", str(trained["root"] / clip_rel), "--features",
            str(trained["prefix"]), "--model", str(trained["model"])]
    for flag, value in (("--descriptor", trained["descriptor"]), ("--config", trained["config"]),
                        ("--scaler", f"{trained['prefix']}.scaler.feat")):
        assert cli.main(argv + [flag, str(value)]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_predict_on_a_prefix_without_its_descriptor_names_it(trained, tmp_path):
    # an extract from before the prefix kept its descriptor and config
    _copy_prefix(trained["prefix"], tmp_path / "old", (".feat", ".labels"))
    clip_rel = (trained["root"] / "manifest.txt").read_text().splitlines()[0].split(",")[0]
    result = run_cli("predict", "--clip", trained["root"] / clip_rel, "--features",
                     tmp_path / "old", "--model", trained["model"])
    assert result.returncode == 1
    assert f"{tmp_path / 'old.descriptor.txt'}" in result.stderr
    assert "Traceback" not in result.stderr


def _test_clips(root):
    """The paths of the test clips of the manifest under ``root``."""
    lines = (root / "manifest.txt").read_text().splitlines()
    return [root / line.split(",")[0] for line in lines if line.split(",")[2] == "test"]


def test_predict_prints_what_the_extract_inputs_give(trained, capsys):
    # the line predict printed when it took the descriptor, config and scaler as files
    descriptor = pio.read_descriptor(trained["descriptor"])
    config, options = pio.read_feature_config(trained["config"])
    model = classifier.load_model(trained["model"])
    scaler = pio.read_scaler(f"{trained['prefix']}.scaler.feat")
    clips = _test_clips(trained["root"])
    assert len(clips) == 8
    for clip in clips:
        x = classifier.extract_body_features(pio.read_clip_file(clip, descriptor), options.bodies,
                                             config, descriptor)
        probs = classifier.forward(model, apply_scaler(scaler, x))
        label = int(probs.argmax())
        assert cli.main(["predict", "--clip", str(clip), "--features", str(trained["prefix"]),
                         "--model", str(trained["model"])]) == 0
        assert capsys.readouterr().out == f"{descriptor.class_names[label]} {probs[label]:.6f}\n"


# ----------------------------------------------------------------- two-stage


def test_two_stage_cli_flow(tmp_path):
    train, test, desc = make_interaction_dataset(train_clips=16, test_clips=8,
                                                 joint_count=5, dim=2, seed=3)
    manifest, descriptor = write_dataset(train, test, desc, tmp_path)
    config = tmp_path / "featcfg.txt"
    write_feature_config(SMALL_CONFIG, ExtractionOptions(noise_copies=0), config)
    prefix = tmp_path / "f"
    extract = run_cli("features", "extract", "--manifest", manifest,
                      "--descriptor", descriptor, "--config", config,
                      "--output", prefix, "--two-stage")
    assert extract.returncode == 0, extract.stderr
    assert "one-body classes: [0, 1]" in extract.stdout
    assert "multi-body classes: [2, 3]" in extract.stdout
    assert (tmp_path / "f.partition.txt").exists()
    assert (tmp_path / "f.gate.train.feat").exists()

    model = tmp_path / "m"
    fit = run_cli("train", "--features", prefix, "--model", model,
                  "--epochs", 30, "--two-stage")
    assert fit.returncode == 0, fit.stderr
    for stage in ("gate", "one", "multi"):
        assert (tmp_path / f"m.{stage}.model").exists()

    evaluation = run_cli("eval", "--features", prefix, "--model", model, "--two-stage")
    assert evaluation.returncode == 0, evaluation.stderr
    overall = re.search(r"overall accuracy: (\d+)/8", evaluation.stdout)
    assert int(overall.group(1)) >= 6  # tiny train set; routing must work

    clip_rel = (tmp_path / "manifest.txt").read_text().splitlines()[0].split(",")[0]
    predict = run_cli("predict", "--clip", tmp_path / clip_rel, "--features", prefix,
                      "--model", model, "--two-stage")
    assert predict.returncode == 0, predict.stderr
    name, prob = predict.stdout.split()
    assert name in ("solo_sway", "solo_drift", "pair_approach", "pair_circle")
    assert 0.25 <= float(prob) <= 1.0


def test_two_joint_skeleton_extracts_trains_and_evaluates(tmp_path, capsys):
    train, test, desc = make_action_dataset(train_clips=8, test_clips=4, joint_count=2, seed=5)
    manifest, descriptor = write_dataset(train, test, desc, tmp_path)
    prefix, model = tmp_path / "f", tmp_path / "m.model"
    for argv in (["features", "extract", "--manifest", manifest, "--descriptor", descriptor,
                  "--output", prefix],
                 ["train", "--features", f"{prefix}.train.feat", "--labels",
                  f"{prefix}.train.labels", "--model", model, "--epochs", 3],
                 ["eval", "--features", f"{prefix}.test.feat", "--labels",
                  f"{prefix}.test.labels", "--model", model]):
        assert cli.main([str(a) for a in argv]) == 0, capsys.readouterr().err
    assert "total dimension: 898" in capsys.readouterr().out
    for split in ("train", "test"):  # C(2,3) = 0 triples: the triple blocks are 0 wide
        with pio.FeatureRows(f"{prefix}.{split}.feat") as rows:
            assert rows.shape[1] == 898
            assert {b.width for b in rows.layout if b.name == "triple_sig"} == {0}


def test_two_stage_models_must_match_the_partition(interaction_ds, tmp_path, capsys):
    prefix = tmp_path / "f"
    assert cli.main(["features", "extract", "--manifest", str(interaction_ds["manifest"]),
                     "--descriptor", str(interaction_ds["descriptor"]), "--config",
                     str(interaction_ds["config"]), "--output", str(prefix), "--two-stage"]) == 0
    assert cli.main(["train", "--features", str(prefix), "--model", str(tmp_path / "m"),
                     "--epochs", "1", "--two-stage"]) == 0
    partition = tmp_path / "f.partition.txt"
    assert "multi = 0,0,1,1\n" in partition.read_text()
    partition.write_text(partition.read_text().replace("multi = 0,0,1,1", "multi = 0,1,1,1"))
    capsys.readouterr()
    message = f"{tmp_path / 'm.one.model'}: 2 classes, but {partition} gives the one stage 1"
    assert cli.main(["eval", "--features", str(prefix), "--model", str(tmp_path / "m"),
                     "--two-stage"]) == 1
    assert message in capsys.readouterr().err
    root = interaction_ds["root"]
    for line in (root / "manifest.txt").read_text().splitlines()[:8]:
        assert cli.main(["predict", "--clip", str(root / line.split(",")[0]), "--features",
                         str(prefix), "--model", str(tmp_path / "m"), "--two-stage"]) == 1
        assert message in capsys.readouterr().err


def test_two_stage_extract_needs_two_classes_per_side(action_ds, tmp_path):
    train, test, desc = make_interaction_dataset(train_clips=8, test_clips=4,
                                                 joint_count=5, dim=2, seed=3)
    manifest, descriptor = write_dataset(train, test, desc, tmp_path)
    # count pair_circle's two actors as one: pair_approach is the only multi-body class
    with open(manifest) as f:
        lines = f.read().splitlines()
    with open(manifest, "w") as f:
        f.writelines(re.sub(r"(,pair_circle,\w+,)2$", r"\g<1>1", l) + "\n" for l in lines)
    # every action clip has one actor, so no class is multi-body
    for man, dsc, multi in ((action_ds["manifest"], action_ds["descriptor"], []),
                            (manifest, descriptor, [2])):
        result = run_cli("features", "extract", "--manifest", man,
                         "--descriptor", dsc, "--output", tmp_path / "f", "--two-stage")
        assert result.returncode == 1
        assert f"at least two multi-body classes, got {multi}" in result.stderr
        assert not (tmp_path / "f.partition.txt").exists()


# ------------------------------------------------------- streamed extraction


def _reference_split(records, descriptor, config, options, bodies, augment):
    """Yield (feature row, label) for one split and one body count, each clip
    read and prepared on its own: extraction as it was before one pass
    served every body count."""
    body_desc = descriptor.merged(bodies)
    for index, rec in enumerate(records):
        label = cli._class_id(rec.label_name, descriptor, rec.clip_path)
        clip = pio.read_clip_file(rec.clip_path, descriptor, label=label,
                                  min_actors=rec.actor_count)
        prepared = classifier.prepare_body(clip, bodies)
        if augment:
            variants = augment_clips(prepared, body_desc, options, index)
        else:
            variants = [prepared]
        for variant in variants:
            yield assemble_features(variant.joints[:, 0], config, body_desc), label


def _reference_extract(manifest, descriptor_path, config_path, prefix, two_stage):
    """``features extract`` as it was before rows streamed to disk: every
    split is one in-memory matrix, scaled by ``apply_scaler`` as a whole."""
    records = pio.read_manifest(manifest)
    descriptor = pio.read_descriptor(descriptor_path)
    config, options = pio.read_feature_config(config_path)
    pio.write_descriptor(descriptor, f"{prefix}.descriptor.txt")
    pio.write_feature_config(config, options, f"{prefix}.config.txt")
    splits = [(s, [r for r in records if r.split == s], s == "train") for s in ("train", "test")]

    def matrix(recs, bodies, augment):
        pairs = list(_reference_split(recs, descriptor, config, options, bodies, augment))
        return np.array([row for row, _ in pairs]), np.array([y for _, y in pairs])

    if not two_stage:
        layout = feature_layout(config, descriptor.merged(options.bodies))
        for split, recs, augment in splits:
            x, y = matrix(recs, options.bodies, augment)
            scaler = fit_scaler(x) if split == "train" else scaler
            write_feature_matrix(f"{prefix}.{split}.feat", apply_scaler(scaler, x), layout)
            pio.write_labels(y, f"{prefix}.{split}.labels")
        pio.write_scaler(scaler, f"{prefix}.scaler.feat")
        return
    train_recs = splits[0][1]
    partition = classifier.stage_partition(
        [cli._class_id(r.label_name, descriptor, "") for r in train_recs],
        [r.actor_count for r in train_recs], len(descriptor.class_names))
    pio.write_partition(partition.mean_actor_counts, partition.multi_body,
                        f"{prefix}.partition.txt")
    one_layout = feature_layout(config, descriptor)
    two_layout = feature_layout(config, descriptor.merged(2))
    for split, recs, augment in splits:
        x_two, y = matrix(recs, 2, augment)
        x_one, _ = matrix(recs, 1, augment)
        is_multi = np.isin(y, partition.multi_body_classes)
        if split == "train":
            scalers = {"gate": fit_scaler(x_two), "one": fit_scaler(x_one[~is_multi]),
                       "multi": fit_scaler(x_two[is_multi])}
            for stage, scaler in scalers.items():
                pio.write_scaler(scaler, f"{prefix}.{stage}.scaler.feat")
        for stage, x, layout, labels in (("gate", x_two, two_layout, is_multi.astype(np.int64)),
                                         ("one", x_one, one_layout, y),
                                         ("multi", x_two, two_layout, y)):
            write_feature_matrix(f"{prefix}.{stage}.{split}.feat",
                                 apply_scaler(scalers[stage], x), layout)
            pio.write_labels(labels, f"{prefix}.{stage}.{split}.labels")


@pytest.fixture(scope="module")
def interaction_ds(tmp_path_factory):
    root = tmp_path_factory.mktemp("interaction_ds")
    train, test, desc = make_interaction_dataset(train_clips=12, test_clips=6,
                                                 joint_count=5, dim=2, seed=4)
    manifest, descriptor = write_dataset(train, test, desc, root)
    config = root / "featcfg.txt"
    write_feature_config(SMALL_CONFIG, ExtractionOptions(noise_copies=1), config)
    return {"root": root, "manifest": manifest, "descriptor": descriptor, "config": config}


@pytest.mark.parametrize("two_stage", [False, True])
def test_extract_matches_in_memory_reference(interaction_ds, tmp_path, two_stage):
    flag = ["--two-stage"] if two_stage else []
    result = run_cli("features", "extract", "--manifest", interaction_ds["manifest"],
                     "--descriptor", interaction_ds["descriptor"],
                     "--config", interaction_ds["config"], "--output", tmp_path / "new", *flag)
    assert result.returncode == 0, result.stderr
    _reference_extract(interaction_ds["manifest"], interaction_ds["descriptor"],
                       interaction_ds["config"], tmp_path / "ref", two_stage)
    ref = sorted(p.name[len("ref"):] for p in tmp_path.glob("ref.*"))
    assert sorted(p.name[len("new"):] for p in tmp_path.glob("new.*")) == ref
    assert len(ref) == (18 if two_stage else 7)
    for suffix in ref:
        assert (tmp_path / f"new{suffix}").read_bytes() == (tmp_path / f"ref{suffix}").read_bytes()
        if suffix.endswith(".feat"):  # every written matrix reads back: the footer tiles it
            read_feature_matrix(tmp_path / f"new{suffix}")


def test_two_stage_extract_reads_each_clip_once(interaction_ds, tmp_path, monkeypatch, capsys):
    reads, read = [], pio.read_clip_file

    def counting_read(path, *args, **kwargs):
        reads.append(path)
        return read(path, *args, **kwargs)

    monkeypatch.setattr(pio, "read_clip_file", counting_read)
    assert cli.main(["features", "extract", "--manifest", str(interaction_ds["manifest"]),
                     "--descriptor", str(interaction_ds["descriptor"]),
                     "--config", str(interaction_ds["config"]),
                     "--output", str(tmp_path / "f"), "--two-stage"]) == 0
    capsys.readouterr()
    records = pio.read_manifest(interaction_ds["manifest"])
    assert len(records) == 18
    assert reads == [r.clip_path for r in records if r.split == "train"] + \
        [r.clip_path for r in records if r.split == "test"]


def _running_max_abs(x):
    """The bound ``cmd_extract`` folds its training rows into: each row is
    made |row| in place, then folded in with ``np.maximum``."""
    bound = np.zeros(x.shape[1])
    for row in x.copy():
        np.maximum(bound, np.abs(row, out=row), out=bound)
    return bound


def _streamed_scaler(x):
    """The scaler ``cmd_extract`` writes: the running bound, its zeros set to 1 in place."""
    bound = _running_max_abs(x)
    bound[bound == 0.0] = 1.0
    return FeatureScaler(bound)


def test_streamed_scaler_matches_fit_scaler_bit_for_bit():
    rng = np.random.default_rng(11)
    for trial in range(20):
        rows, cols = int(rng.integers(1, 30)), int(rng.integers(1, 12))
        x = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-3, 4, size=cols)
        x[:, rng.random(cols) < 0.2] = 0.0
        x[:, rng.random(cols) < 0.2] = -0.0
        x[:, rng.random(cols) < 0.2] = -np.abs(x[:, :1])  # non-positive columns
        zeros = rng.random((rows, cols)) < 0.3
        x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
        bound = _running_max_abs(x)
        assert fit_scaler(bound[None]).scale.tobytes() == fit_scaler(x).scale.tobytes(), trial
        scale = _streamed_scaler(x).scale
        assert scale.tobytes() == fit_scaler(x).scale.tobytes(), trial
        scaled = x.copy()
        for row in scaled:  # map_rows' blocks, divided in place
            np.divide(row, scale, out=row)
        assert scaled.tobytes() == apply_scaler(fit_scaler(x), x).tobytes(), trial
    x[rows // 2, cols // 2] = np.nan
    with pytest.raises(InputError, match="scale contains non-finite values"):
        fit_scaler(_running_max_abs(x)[None])
    with pytest.raises(InputError, match="scale contains non-finite values"):
        _streamed_scaler(x)
    with pytest.raises(InputError, match="scale contains non-finite values"):
        fit_scaler(x)


def _extract_peak(root, clips, joint_count=5, feature_config=FeatureConfig()):
    """tracemalloc peak of an in-process extract of ``clips`` train and test clips."""
    train, test, desc = make_action_dataset(train_clips=clips, test_clips=clips,
                                            joint_count=joint_count, dim=2, seed=clips)
    manifest, descriptor = write_dataset(train, test, desc, root)
    config = root / "featcfg.txt"
    write_feature_config(feature_config, ExtractionOptions(noise_copies=1), config)
    tracemalloc.start()
    try:
        code = cli.main(["features", "extract", "--manifest", str(manifest),
                         "--descriptor", str(descriptor), "--config", str(config),
                         "--output", str(root / "f")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    rows, cols = read_feature_matrix(root / "f.train.feat")[0].shape
    assert rows == 3 * clips
    return peak, 8 * cols


def test_extract_memory_does_not_grow_with_clips(tmp_path, capsys):
    small, row_bytes = _extract_peak(tmp_path / "n", 4)
    large, _ = _extract_peak(tmp_path / "4n", 16)
    capsys.readouterr()
    assert row_bytes > 50_000  # rows wide enough that a held matrix would show
    assert large < small + row_bytes  # 48 train rows cost what 12 do
    assert large < 32 * row_bytes  # a whole-matrix path holds 3 copies of 48 rows


def test_dyadic_extract_holds_about_one_row(tmp_path, capsys):
    # the benchmark's shape: 15 joints, 2-D, dyadic rows of 1,380,735 columns
    peak, row_bytes = _extract_peak(tmp_path, 2, 15, FeatureConfig(dyadic=True))
    capsys.readouterr()
    assert peak < 3.2 * row_bytes, peak / row_bytes


@pytest.mark.parametrize("split", ["train", "test"])
def test_extract_bad_late_clip_leaves_no_matrix(action_ds, interaction_ds, tmp_path, split):
    # two-stage extract needs two one-body and two multi-body classes, which
    # the interaction set has
    bad = tmp_path / "bad.clip"
    bad.write_text("0,0,0,1.0,not-a-number\n")
    manifest = tmp_path / "manifest.txt"
    for ds, flag in ((action_ds, []), (interaction_ds, ["--two-stage"])):
        lines = (ds["root"] / "manifest.txt").read_text().splitlines()
        last = max(i for i, line in enumerate(lines) if f",{split}," in line)
        lines[last] = f"{bad},{lines[last].split(',', 1)[1]}"
        lines = [l if l.startswith(str(bad)) else f"{ds['root']}/{l}" for l in lines]
        manifest.write_text("\n".join(lines) + "\n")
        result = run_cli("features", "extract", "--manifest", manifest,
                         "--descriptor", ds["descriptor"],
                         "--config", ds["config"], "--output", tmp_path / "f", *flag)
        assert result.returncode == 2, result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.clip", "manifest.txt"]


def test_huge_clip_index_is_exit_2(trained, tmp_path):
    clip = tmp_path / "huge.clip"
    clip.write_text("0,0,0,1.0,2.0\n2000000000,0,1,1.0,2.0\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{clip},sway,train,1\n")
    commands = [
        ["features", "extract", "--manifest", manifest, "--descriptor", trained["descriptor"],
         "--output", tmp_path / "f"],
        ["predict", "--clip", clip, "--features", trained["prefix"], "--model", trained["model"]],
    ]
    for argv in commands:
        result = run_cli(*argv)
        assert result.returncode == 2, result.stderr
        assert str(clip) in result.stderr and "frame index 2000000000" in result.stderr
        assert "Traceback" not in result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.clip", "manifest.txt"]


def _corrupt(src, dst, row, value):
    x, layout = read_feature_matrix(src)
    x[row, x.shape[1] // 2] = value
    write_feature_matrix(dst, x, layout)


@pytest.fixture
def no_model_math(monkeypatch):
    """Make init_model and forward fail if a command reaches them."""
    def unreachable(*args, **kwargs):
        raise AssertionError("reached model code with a non-finite matrix")

    for module in (cli, classifier):
        monkeypatch.setattr(module, "forward", unreachable)
    monkeypatch.setattr(cli, "init_model", unreachable)


def test_train_and_eval_reject_non_finite_matrix(trained, tmp_path, capsys, no_model_math):
    prefix = trained["prefix"]
    for split, value in (("train", np.nan), ("test", -np.inf)):
        _corrupt(f"{prefix}.{split}.feat", tmp_path / f"{split}.feat", 3, value)
    argvs = [["train", "--features", tmp_path / "train.feat",
              "--labels", f"{prefix}.train.labels", "--model", tmp_path / "m.model"],
             ["eval", "--features", tmp_path / "test.feat",
              "--labels", f"{prefix}.test.labels", "--model", trained["model"]]]
    for argv, split in zip(argvs, ("train", "test")):
        assert cli.main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / f'{split}.feat'}: row 3 has a non-finite entry" in err
    assert not (tmp_path / "m.model").exists()


def test_two_stage_train_and_eval_reject_non_finite_matrix(interaction_ds, tmp_path, capsys,
                                                           no_model_math):
    good = tmp_path / "good"
    result = run_cli("features", "extract", "--manifest", interaction_ds["manifest"],
                     "--descriptor", interaction_ds["descriptor"],
                     "--config", interaction_ds["config"], "--output", good, "--two-stage")
    assert result.returncode == 0, result.stderr
    result = run_cli("train", "--features", good, "--model", tmp_path / "m",
                     "--epochs", 1, "--two-stage")
    assert result.returncode == 0, result.stderr
    bad = tmp_path / "bad"
    _copy_prefix(good, bad)
    _corrupt(f"{good}.multi.train.feat", f"{bad}.multi.train.feat", 2, np.inf)
    _corrupt(f"{good}.one.test.feat", f"{bad}.one.test.feat", 1, np.nan)
    cases = [(["train", "--features", bad, "--model", tmp_path / "n", "--two-stage"],
              f"{bad}.multi.train.feat: row 2"),
             (["eval", "--features", bad, "--model", tmp_path / "m", "--two-stage"],
              f"{bad}.one.test.feat: row 1")]
    for argv, message in cases:
        assert cli.main([str(a) for a in argv]) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "n.multi.model").exists()


@pytest.fixture(scope="module")
def two_stage_prefix(interaction_ds):
    prefix = interaction_ds["root"] / "two"
    result = run_cli("features", "extract", "--manifest", interaction_ds["manifest"],
                     "--descriptor", interaction_ds["descriptor"],
                     "--config", interaction_ds["config"], "--output", prefix, "--two-stage")
    assert result.returncode == 0, result.stderr
    return prefix


def _two_stage_train_with_labels(prefix, tmp_path, stage, edit, capsys):
    """Exit status and stderr of a two-stage train on a copy of ``prefix``
    whose ``stage`` train labels are ``edit(labels)``, and that labels file."""
    _copy_prefix(prefix, tmp_path / "bad")
    labels = tmp_path / f"bad.{stage}.train.labels"
    labels.write_text("".join(f"{v}\n" for v in edit(labels.read_text().split())))
    code = cli.main(["train", "--features", str(tmp_path / "bad"), "--model",
                     str(tmp_path / "m"), "--epochs", "1", "--two-stage"])
    return code, capsys.readouterr().err, labels


def test_two_stage_train_rejects_short_labels_before_training(two_stage_prefix, tmp_path,
                                                              capsys):
    rows = len(pathlib.Path(f"{two_stage_prefix}.one.train.labels").read_text().split())
    code, err, labels = _two_stage_train_with_labels(two_stage_prefix, tmp_path, "one",
                                                     lambda y: y[:-1], capsys)
    assert code == 1
    assert f"{labels}: {rows - 1} labels for {rows} feature rows" in err
    assert not list(tmp_path.glob("m.*"))


def test_two_stage_train_rejects_out_of_range_gate_label(two_stage_prefix, tmp_path, capsys):
    code, err, labels = _two_stage_train_with_labels(two_stage_prefix, tmp_path, "gate",
                                                     lambda y: ["7"] + y[1:], capsys)
    assert code == 1
    assert f"{labels}: label 7 is outside 0..1" in err
    assert not list(tmp_path.glob("m.*"))


@pytest.fixture(scope="module")
def two_stage_models(two_stage_prefix):
    """The train prefix of models trained on ``two_stage_prefix``."""
    model = two_stage_prefix.parent / "two_models"
    result = run_cli("train", "--features", two_stage_prefix, "--model", model,
                     "--epochs", 3, "--two-stage")
    assert result.returncode == 0, result.stderr
    return model


def _two_stage_inputs(prefix, model):
    """The models, in ``cli._STAGES`` order, the partition and the scalers of a
    two-stage extract and train."""
    models = [classifier.load_model(f"{model}.{stage}.model") for stage, _ in cli._STAGES]
    partition = classifier.StagePartition(*pio.read_partition(f"{prefix}.partition.txt"))
    scalers = [pio.read_scaler(f"{prefix}.{stage}.scaler.feat") for stage, _ in cli._STAGES]
    return models, partition, scalers


def test_two_stage_predict_prints_what_the_extract_inputs_give(interaction_ds, two_stage_prefix,
                                                               two_stage_models, capsys):
    descriptor = pio.read_descriptor(interaction_ds["descriptor"])
    config, _ = pio.read_feature_config(interaction_ds["config"])
    models, partition, scalers = _two_stage_inputs(two_stage_prefix, two_stage_models)
    clips = _test_clips(interaction_ds["root"])
    assert len(clips) == 6
    for clip in clips:
        read = pio.read_clip_file(clip, descriptor)
        rows = {bodies: classifier.extract_body_features(read, bodies, config, descriptor)[None]
                for bodies in (1, 2)}
        scaled = [apply_scaler(scaler, rows[bodies])
                  for scaler, (_, bodies) in zip(scalers, cli._STAGES)]
        labels, probs = classifier.two_stage_route(*models, partition, *scaled)
        assert cli.main(["predict", "--clip", str(clip), "--features", str(two_stage_prefix),
                         "--model", str(two_stage_models), "--two-stage"]) == 0
        assert capsys.readouterr().out == \
            f"{descriptor.class_names[labels[0]]} {probs[0]:.6f}\n"


def test_two_stage_eval_of_the_train_split(two_stage_prefix, two_stage_models, capsys):
    prefix = two_stage_prefix
    models, partition, _ = _two_stage_inputs(prefix, two_stage_models)
    xs = [read_feature_matrix(f"{prefix}.{stage}.train.feat")[0] for stage, _ in cli._STAGES]
    y = pio.read_labels(f"{prefix}.one.train.labels")
    assert y.size <= cli._EVAL_ROWS  # eval routes the rows in one block too
    pred, _ = classifier.two_stage_route(*models, partition, *xs)
    cli._report_eval(y, pred, partition.multi_body.size)
    expect = capsys.readouterr().out
    assert f"overall accuracy: {int((pred == y).sum())}/{y.size} = " in expect
    # --labels is ignored: the gate's 0/1 body flags are in 0..C-1 but are no class ids
    for labels in ([], ["--labels", f"{prefix}.gate.train.labels"]):
        assert cli.main(["eval", "--features", str(prefix), "--model", str(two_stage_models),
                         "--split", "train", "--two-stage", *labels]) == 0
        assert capsys.readouterr().out == expect


def test_labels_are_required_without_two_stage(trained, tmp_path, capsys):
    prefix = trained["prefix"]
    for argv in (["train", "--features", f"{prefix}.train.feat", "--model",
                  str(tmp_path / "m.model")],
                 ["eval", "--features", f"{prefix}.test.feat", "--model", str(trained["model"])]):
        assert cli.main(argv) == 1
        assert "error: --labels is required without --two-stage" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# ------------------------------------------------- streamed train and eval


def _in_memory_fit(x, y, class_count, config, path):
    """``pathsig train`` as it was before rows streamed: the matrix in memory."""
    model = classifier.init_model(x.shape[1], class_count, config,
                                  hidden_dim=classifier.HIDDEN_UNITS)
    history = classifier.train(model, x, y)
    classifier.save_model(model, path)
    cli._write_history(history, f"{path}.history.txt")
    return model


def test_train_streams_the_same_model_as_in_memory(extracted, tmp_path, monkeypatch, capsys):
    # 48 rows in batches of 30 and 18; W1 rows in chunks of 500 and a ragged one
    monkeypatch.setattr(classifier, "_CHUNK_ROWS", 500)
    prefix = extracted["prefix"]
    feat, labels = f"{prefix}.train.feat", f"{prefix}.train.labels"
    assert cli.main(["train", "--features", feat, "--labels", labels,
                     "--model", str(tmp_path / "m.model"), "--epochs", "3"]) == 0
    x, y = read_feature_matrix(feat)[0], pio.read_labels(labels)
    assert x.shape[1] % 500 and x.shape[0] % 30
    _in_memory_fit(x, y, 4, TrainConfig(max_epochs=3), tmp_path / "ref.model")
    for suffix in (".model", ".model.history.txt"):
        assert (tmp_path / f"m{suffix}").read_bytes() == (tmp_path / f"ref{suffix}").read_bytes()


def test_eval_in_blocks_prints_the_whole_matrix_report(trained, monkeypatch, capsys):
    prefix = trained["prefix"]
    x, y = read_feature_matrix(f"{prefix}.test.feat")[0], pio.read_labels(f"{prefix}.test.labels")
    model = classifier.load_model(trained["model"])
    cli._report_eval(y, classifier.forward(model, x).argmax(axis=1), model.class_count)
    expect = capsys.readouterr().out
    for rows in (64, 3):  # 8 rows: one block, then blocks of 3, 3 and 2
        monkeypatch.setattr(cli, "_EVAL_ROWS", rows)
        assert cli.main(["eval", "--features", f"{prefix}.test.feat", "--labels",
                         f"{prefix}.test.labels", "--model", str(trained["model"])]) == 0
        assert capsys.readouterr().out == expect


def test_two_stage_train_and_eval_stream_the_same_results(two_stage_prefix, tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.setattr(classifier, "_CHUNK_ROWS", 700)
    prefix = two_stage_prefix
    assert cli.main(["train", "--features", str(prefix), "--model", str(tmp_path / "m"),
                     "--epochs", "2", "--two-stage"]) == 0
    capsys.readouterr()
    partition = classifier.StagePartition(*pio.read_partition(f"{prefix}.partition.txt"))
    models, xs = [], []
    for (stage, _), (_, classes, _) in zip(cli._STAGES, cli._stage_labels(partition)):
        x = read_feature_matrix(f"{prefix}.{stage}.train.feat")[0]
        y = pio.read_labels(f"{prefix}.{stage}.train.labels")
        keep = np.isin(y, classes)
        ref = tmp_path / f"ref.{stage}.model"
        models.append(_in_memory_fit(x[keep], np.searchsorted(classes, y[keep]), classes.size,
                                     TrainConfig(max_epochs=2), ref))
        assert (tmp_path / f"m.{stage}.model").read_bytes() == ref.read_bytes(), stage
        xs.append(read_feature_matrix(f"{prefix}.{stage}.test.feat")[0])
    y = pio.read_labels(f"{prefix}.one.test.labels")
    pred, _ = classifier.two_stage_route(*models, partition, *xs)
    cli._report_eval(y, pred, partition.multi_body.size)
    expect = capsys.readouterr().out
    monkeypatch.setattr(cli, "_EVAL_ROWS", 4)  # 6 rows: blocks of 4 and 2
    assert cli.main(["eval", "--features", str(prefix), "--model", str(tmp_path / "m"),
                     "--two-stage"]) == 0
    assert capsys.readouterr().out == expect


def test_train_does_not_load_the_matrix(tmp_path, capsys):
    rng = np.random.default_rng(21)
    x = rng.standard_normal((60, 100_000))
    write_feature_matrix(tmp_path / "x.feat", x)
    pio.write_labels(np.arange(60) % 3, tmp_path / "x.labels")
    tracemalloc.start()
    try:
        assert cli.main(["train", "--features", str(tmp_path / "x.feat"), "--labels",
                         str(tmp_path / "x.labels"), "--model", str(tmp_path / "m.model"),
                         "--epochs", "1", "--hidden", "4"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # w1, its momentum, one chunk of 30 batch rows and the buffers: under a
    # quarter of the 48 MB matrix
    assert peak < x.nbytes / 4


def test_config_bodies_past_the_joint_cap_is_exit_2(trained, tmp_path, capsys):
    # extract reads the config of a copied prefix, and predict reads it there
    _copy_prefix(trained["prefix"], tmp_path / "p", (".descriptor.txt",))
    config = tmp_path / "p.config.txt"
    clip_rel = (trained["root"] / "manifest.txt").read_text().splitlines()[0].split(",")[0]
    argvs = [["features", "extract", "--manifest", trained["manifest"], "--descriptor",
              trained["descriptor"], "--config", config, "--output", tmp_path / "f"],
             ["predict", "--clip", trained["root"] / clip_rel, "--features", tmp_path / "p",
              "--model", trained["model"]]]
    # 5 joints a body: at most 200 bodies; a trillion would never return if
    # its priority and mirror tuples were built before the check
    for body, message in (("bodies = 201", "bodies = 201 is more than the 200 allowed"),
                          ("bodies = 1000000000000",
                           "bodies = 1000000000000 is more than the 200 allowed"),
                          ("sampled_frames = 100000000", "sampled_frames = 100000000 is more"),
                          ("noise_copies = 100000000", "noise_copies = 100000000 is more"),
                          ("triple_level = 1000000000", "triple_level = 1000000000 is more"),
                          ("dyadic = true\ndyadic_depth = 1000000000",
                           "dyadic_depth = 1000000000 is more"),
                          ("triple_level = 30", "feature row columns = 472446405355 is more "
                                                "than the 67108864 allowed")):
        config.write_text(body + "\n")
        for argv in argvs:
            assert cli.main([str(a) for a in argv]) == 2
            assert f"{config}: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.config.txt", "p.descriptor.txt"]


def test_default_config_past_the_column_cap_is_exit_2(tmp_path, capsys):
    train, _, desc = make_action_dataset(train_clips=1, test_clips=0, joint_count=200, seed=1)
    manifest, descriptor = write_dataset(train, [], desc, tmp_path)
    assert cli.main(["features", "extract", "--manifest", str(manifest), "--descriptor",
                     str(descriptor), "--output", str(tmp_path / "f")]) == 2
    assert ("default feature config: feature row columns = 869547400 is more than the "
            "67108864 allowed") in capsys.readouterr().err
    assert not list(tmp_path.glob("f*"))


def test_two_stage_checks_the_two_body_layout_before_any_clip(tmp_path, monkeypatch, capsys):
    # one 60-joint body fits in 22,841,820 columns, two need 186,342,840
    train, test, desc = make_interaction_dataset(train_clips=4, test_clips=2, joint_count=60,
                                                 seed=2)
    manifest, descriptor = write_dataset(train, test, desc, tmp_path)
    assert cli._feature_config(None, desc, two_stage=False) == (FeatureConfig(),
                                                                 ExtractionOptions())

    def unreachable(*args, **kwargs):
        raise AssertionError("read a clip")

    monkeypatch.setattr(pio, "read_clip_file", unreachable)
    # the default settings, as a config file and as the config of a prefix predict reads
    config = tmp_path / "p.config.txt"
    write_feature_config(FeatureConfig(), ExtractionOptions(), config)
    pio.write_descriptor(desc, tmp_path / "p.descriptor.txt")
    clip = tmp_path / (tmp_path / "manifest.txt").read_text().split(",")[0]
    outputs = sorted(tmp_path.iterdir())
    extract = ["features", "extract", "--manifest", manifest, "--descriptor", descriptor,
               "--output", tmp_path / "f", "--two-stage"]
    for where, argv in (("default feature config", extract),
                        (config, extract + ["--config", config]),
                        (config, ["predict", "--clip", clip, "--features", tmp_path / "p",
                                  "--model", tmp_path / "m", "--two-stage"])):
        assert cli.main([str(a) for a in argv]) == 2
        assert (f"{where}: feature row columns = 186342840 is more than the 67108864 "
                "allowed") in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == outputs


# ------------------------------------------------------------ train and eval


def test_train_flag_defaults_are_train_config(extracted, tmp_path, monkeypatch):
    configs = []
    monkeypatch.setattr(cli, "_fit", lambda x, y, count, config, *rest: configs.append(config))
    prefix = extracted["prefix"]
    argv = ["train", "--features", f"{prefix}.train.feat", "--labels", f"{prefix}.train.labels",
            "--model", str(tmp_path / "m.model")]
    assert cli.main(argv) == 0
    assert cli.main(argv + ["--lr", "0.5", "--epochs", "3", "--batch-size", "7",
                            "--drop-rate", "0.5", "--seed", "9"]) == 0
    assert configs == [TrainConfig(), TrainConfig(learning_rate=0.5, max_epochs=3, batch_size=7,
                                                  drop_rate=0.5, seed=9)]
    for config in configs:
        assert [type(getattr(config, f.name)) for f in dataclasses.fields(TrainConfig)] == \
            [type(f.default) for f in dataclasses.fields(TrainConfig)]


def _bad_label_cases(labels_path, tmp_path, class_count):
    """Copies of a labels file with its first label set to -1 and to ``class_count``."""
    lines = labels_path.read_text().splitlines()
    for bad in (-1, class_count):
        path = tmp_path / f"bad{bad}.labels"
        path.write_text("\n".join([str(bad)] + lines[1:]) + "\n")
        yield path, bad


def test_eval_rejects_out_of_range_labels(trained, tmp_path, capsys, no_model_math):
    prefix = trained["prefix"]
    for labels, bad in _bad_label_cases(pathlib.Path(f"{prefix}.test.labels"), tmp_path, 4):
        assert cli.main(["eval", "--features", f"{prefix}.test.feat", "--labels", str(labels),
                         "--model", str(trained["model"])]) == 1
        assert f"{labels}: label {bad} is outside 0..3" in capsys.readouterr().err


def test_two_stage_eval_rejects_out_of_range_labels(interaction_ds, tmp_path, capsys,
                                                    monkeypatch):
    prefix = tmp_path / "f"
    result = run_cli("features", "extract", "--manifest", interaction_ds["manifest"],
                     "--descriptor", interaction_ds["descriptor"],
                     "--config", interaction_ds["config"], "--output", prefix, "--two-stage")
    assert result.returncode == 0, result.stderr
    result = run_cli("train", "--features", prefix, "--model", tmp_path / "m",
                     "--epochs", 1, "--two-stage")
    assert result.returncode == 0, result.stderr

    def unreachable(*args, **kwargs):
        raise AssertionError("ran a model on out-of-range labels")

    monkeypatch.setattr(cli, "two_stage_route", unreachable)
    # eval reads the labels of the prefix it is given: plant each bad file in a copy
    _copy_prefix(prefix, tmp_path / "bad")
    labels = tmp_path / "bad.one.test.labels"
    for bad_labels, bad in _bad_label_cases(pathlib.Path(f"{prefix}.one.test.labels"),
                                            tmp_path, 4):
        labels.write_bytes(bad_labels.read_bytes())
        assert cli.main(["eval", "--features", str(tmp_path / "bad"), "--model",
                         str(tmp_path / "m"), "--two-stage"]) == 1
        assert f"{labels}: label {bad} is outside 0..3" in capsys.readouterr().err


def test_width_errors_name_the_model_and_the_features(trained, interaction_ds, two_stage_prefix,
                                                      two_stage_models, tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(cli, "forward", lambda *args: pytest.fail("ran a model on narrow rows"))
    monkeypatch.setattr(cli, "two_stage_route",
                        lambda *args: pytest.fail("routed rows to a model of another width"))
    single, two, short = tmp_path / "single", tmp_path / "two", tmp_path / "short"
    _copy_prefix(trained["prefix"], single)
    _copy_prefix(two_stage_prefix, two)
    _copy_prefix(two_stage_prefix, short)
    for prefix in (single, two):  # a narrower pair signature than the models were trained on
        write_feature_config(dataclasses.replace(SMALL_CONFIG, pair_level=1),
                             ExtractionOptions(noise_copies=1), f"{prefix}.config.txt")
    for feat in [f"{single}.test.feat"] + [f"{two}.{stage}.test.feat" for stage, _ in cli._STAGES]:
        x, _ = read_feature_matrix(feat)
        write_feature_matrix(feat, x[:, 1:])
    labels = pathlib.Path(f"{short}.one.test.labels")
    labels.write_text("".join(f"{v}\n" for v in labels.read_text().split()[:-1]))
    model, gate = trained["model"], f"{two_stage_models}.gate.model"
    cases = [
        (["eval", "--features", f"{single}.test.feat", "--labels", f"{single}.test.labels",
          "--model", model], f"{single}.test.feat: ", model),
        (["eval", "--features", two, "--model", two_stage_models, "--two-stage"],
         f"{two}.gate.test.feat: ", gate),
        (["predict", "--clip", _test_clips(trained["root"])[0], "--features", single,
          "--model", model], f"{single}: ", model),
        (["predict", "--clip", _test_clips(interaction_ds["root"])[0], "--features", two,
          "--model", two_stage_models, "--two-stage"], f"{two}: ", gate),
    ]
    for argv, features, model_path in cases:
        assert cli.main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert features in err and f"feature dims, {model_path} expects" in err, err
    assert cli.main(["eval", "--features", str(short), "--model", str(two_stage_models),
                     "--two-stage"]) == 1
    err = capsys.readouterr().err
    assert f"{labels}: 5 labels, 6 rows in {short}.gate.test.feat" in err


# ------------------------------------------------------- all-or-none outputs


def _files(directory):
    """Every file under ``directory``: its bytes by its relative path."""
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(pathlib.Path(directory).rglob("*")) if path.is_file()}


def _fails_and_replaces_nothing(directory, argv, capsys, message):
    """Run ``argv`` in-process; it exits 1 with ``message`` on stderr, and
    every file under ``directory`` keeps its bytes: none appears (no
    ``*.tmp`` either) and none goes.  Returns the run's stdout."""
    before = _files(directory)
    assert cli.main([str(a) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert message in err
    assert _files(directory) == before
    return out


def test_two_stage_train_whose_last_stage_diverges_replaces_no_model(two_stage_prefix,
                                                                     tmp_path, capsys):
    prefix = tmp_path / "p"
    _copy_prefix(two_stage_prefix, prefix)
    argv = ["train", "--features", prefix, "--model", tmp_path / "m", "--epochs", 3,
            "--two-stage"]
    assert cli.main([str(a) for a in argv]) == 0
    assert len(list(tmp_path.glob("m.*.model"))) == len(list(tmp_path.glob("m.*.history.txt"))) == 3
    feat = f"{prefix}.{cli._STAGES[-1][0]}.train.feat"
    x, layout = read_feature_matrix(feat)
    write_feature_matrix(feat, np.full_like(x, 1e300), layout)
    # another seed: the first two stages train models of other bytes before the last fails
    out = _fails_and_replaces_nothing(tmp_path, argv + ["--seed", 1], capsys, "training diverged")
    assert f"{tmp_path / 'm'}.one.model: 3 epochs" in out


def test_train_with_a_history_it_cannot_write_replaces_no_model(extracted, tmp_path, capsys):
    prefix = extracted["prefix"]
    argv = ["train", "--features", f"{prefix}.train.feat", "--labels", f"{prefix}.train.labels",
            "--model", tmp_path / "m.model", "--epochs", 1]
    history = ["--history", tmp_path / "nodir" / "h.txt"]
    _fails_and_replaces_nothing(tmp_path, argv + history, capsys, "nodir")
    assert not list(tmp_path.iterdir())
    assert cli.main([str(a) for a in argv]) == 0
    _fails_and_replaces_nothing(tmp_path, argv + history + ["--seed", 1], capsys, "nodir")


def test_train_checks_its_outputs_before_training(extracted, two_stage_prefix, tmp_path,
                                                   monkeypatch, capsys):
    # an output that cannot be written fails before any model trains, named as given
    def no_training(*args):
        raise AssertionError("a model trained before its outputs were checked")

    monkeypatch.setattr(cli, "train", no_training)
    prefix = extracted["prefix"]
    nodir = tmp_path / "nodir"
    single = ["train", "--features", f"{prefix}.train.feat", "--labels",
              f"{prefix}.train.labels", "--model", tmp_path / "m.model"]
    for argv, named in ((single + ["--history", nodir / "h.txt"], nodir / "h.txt"),
                        (single[:-1] + [nodir / "m.model"], nodir / "m.model"),
                        (["train", "--features", two_stage_prefix, "--two-stage", "--model",
                          nodir / "m"], f"{nodir / 'm'}.gate.model")):
        before = _files(tmp_path)
        assert cli.main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert f"No such file or directory: '{named}'" in err
        assert ".tmp" not in err
        assert _files(tmp_path) == before


def test_an_output_that_cannot_be_renamed_is_named_as_given(interaction_ds, tmp_path, capsys):
    (tmp_path / "f.test.labels").mkdir()
    argv = ["features", "extract", "--manifest", interaction_ds["manifest"], "--descriptor",
            interaction_ds["descriptor"], "--config", interaction_ds["config"],
            "--output", tmp_path / "f"]
    assert cli.main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert f"Is a directory: '{tmp_path / 'f.test.labels'}'" in err
    assert ".tmp" not in err
    assert [path.name for path in tmp_path.iterdir()] == ["f.test.labels"]


@pytest.mark.parametrize("flag", [[], ["--two-stage"]])
def test_extract_whose_last_output_fails_replaces_nothing(interaction_ds, tmp_path, monkeypatch,
                                                          capsys, flag):
    write_labels, calls, last = pio.write_labels, [], []

    def fails_last(labels, path):
        calls.append(path)
        if len(calls) in last:
            raise OSError(f"{path}: no space left on device")
        write_labels(labels, path)

    monkeypatch.setattr(pio, "write_labels", fails_last)
    argv = ["features", "extract", "--manifest", interaction_ds["manifest"], "--descriptor",
            interaction_ds["descriptor"], "--config", interaction_ds["config"],
            "--output", tmp_path / "f", *flag]
    assert cli.main([str(a) for a in argv]) == 0
    capsys.readouterr()
    # a rerun writes the same bytes: mark the old files so a replaced one shows
    for path in tmp_path.iterdir():
        path.write_bytes(b"old " + path.name.encode())
    last.append(len(calls) * 2)
    _fails_and_replaces_nothing(tmp_path, argv, capsys, "no space left on device")
    assert len(list(tmp_path.iterdir())) == (18 if flag else 7)
