"""``cli.main``, run in-process on a small 5-joint set with settings and flag
values drawn from edge sets (negative, zero, huge, nan, inf, non-ASCII),
ends every run with exit status 0, 1 or 2: no exception escapes, and the
memory a run traces stays under a fixed bound.  A pipeline run leaves no
``*.tmp`` file, and one that fails replaces no file."""

import contextlib
import dataclasses
import io
import tempfile
import tracemalloc
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pathsig import cli  # noqa: E402
from pathsig.classifier import TrainConfig  # noqa: E402
from pathsig.io import ExtractionOptions  # noqa: E402
from pathsig.skeleton import FeatureConfig  # noqa: E402
from pathsig.synth import make_action_dataset, write_dataset  # noqa: E402

MiB = 1 << 20
BOUND = 64 * MiB  # the largest run below, an extract, traces about 9 MiB

# Small valid values, then edge values: "٣" is an Arabic-Indic 3, which
# Python's int() reads as 3.  The huge ones pass every cap, and a size built
# from one passes any array's byte count, so it is refused before numpy tries
# it (numpy traces the bytes of an allocation it tried and could not make).
_SMALL = ("1", "2", "٣")
_EDGES = _SMALL + ("-1", "0", "0.5", "1e308", "-1e308", "nan", "inf", "-inf", str(2**63),
                   "1" + "0" * 30, "true", "é", "")
# for settings that only make a valid run longer
_SHORT = _SMALL + ("-1", "0", "nan", "é", "")
# lead-lag delays past the 3-point paths and the 16..40-frame clips
_DELAYS = ("5", "42", "60")

_CONFIG_KEYS = [f.name for cls in (FeatureConfig, ExtractionOptions)
                for f in dataclasses.fields(cls)]
# every drawn config line overrides one of these: a 2-joint-level stack on few frames
_BASE_CONFIG = {"sampled_frames": "2", "pair_level": "2", "triple_level": "2", "joint_level": "2",
                "evolution_level": "2", "noise_copies": "1"}
_TRAIN_FLAGS = ["--" + cli._TRAIN_FLAGS.get(f.name, f.name).replace("_", "-")
                for f in dataclasses.fields(TrainConfig) if f.name != "max_epochs"]
_TRAIN_FLAGS += ["--hidden", "--classes"]  # --epochs is drawn from _SHORT alone
_HYPOTHESIS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def small_set(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fuzz")
    train, test, desc = make_action_dataset(train_clips=8, test_clips=4, joint_count=5, seed=5)
    manifest, descriptor = write_dataset(train, test, desc, root)
    clip = root / (root / "manifest.txt").read_text().splitlines()[0].split(",")[0]
    (root / "path2.txt").write_text("0,0\n1,0.5\n-1,2\n")
    (root / "path1.txt").write_text("0\n1\n3\n")
    return {"root": root, "manifest": manifest, "descriptor": descriptor, "clip": clip}


# argparse's messages for a flag the parser does not have or one it needs: a
# test run that draws them tests nothing past the parser
_USAGE_ERRORS = ("unrecognized arguments", "the following arguments are required")


def _run(*argv) -> int:
    """Exit status of ``cli.main(argv)``, asserting it is 0, 1 or 2, that the
    command line names only flags the parser has, and every flag it needs,
    and that the run traced less than ``BOUND`` bytes.  A value argparse
    rejects, such as ``--epochs=é``, is a usage error the run may draw."""
    argv = [str(a) for a in argv]
    stderr = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code in (0, 1, 2), argv
    assert not any(error in stderr.getvalue() for error in _USAGE_ERRORS), (argv, stderr.getvalue())
    assert peak < BOUND, (argv, peak)
    return code


def _files(directory) -> dict:
    return {path.name: path.read_bytes() for path in Path(directory).iterdir()}


def _run_in(directory, *argv) -> int:
    """``_run(*argv)``, asserting that the run leaves no ``*.tmp`` file in
    ``directory`` and, when it fails, every file there as it was: none
    replaced, none added."""
    before = _files(directory)
    code = _run(*argv)
    after = _files(directory)
    assert not [name for name in after if name.endswith(".tmp")], argv
    assert code == 0 or after == before, argv
    return code


def _pairs(names, values):
    """One of ``names`` with one of ``values``: one edge per run, so no other
    rejected value can stop the run before it reaches the drawn one."""
    return st.tuples(st.sampled_from(names), st.sampled_from(values))


# config lines over _BASE_CONFIG: one edge, or a delay past every clip, signed
# at evolution level 1 so that the rows stay narrow enough to train on
_CONFIGS = st.one_of(_pairs(_CONFIG_KEYS, _EDGES).map(lambda pair: dict([pair])),
                     st.sampled_from(_DELAYS).map(lambda k: {"lead_lag_dim": k,
                                                             "evolution_level": "1"}))


@_HYPOTHESIS
@given(config=_CONFIGS, train_flag=_pairs(_TRAIN_FLAGS, _EDGES), epochs=st.sampled_from(_SHORT))
def test_pipeline_exits_cleanly(small_set, config, train_flag, epochs):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, prefix, model = Path(tmp, "cfg.txt"), Path(tmp, "f"), Path(tmp, "m.model")
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**_BASE_CONFIG, **config}.items()),
                       encoding="utf-8")
        _run_in(tmp, "features", "extract", "--manifest", small_set["manifest"], "--descriptor",
                small_set["descriptor"], "--config", cfg, "--output", prefix)
        _run_in(tmp, "train", "--features", f"{prefix}.train.feat", "--labels",
                f"{prefix}.train.labels", "--model", model, f"--epochs={epochs}",
                "=".join(train_flag))
        _run_in(tmp, "eval", "--features", f"{prefix}.test.feat", "--labels",
                f"{prefix}.test.labels", "--model", model)
        _run_in(tmp, "predict", "--clip", small_set["clip"], "--features", prefix, "--model", model)


@settings(_HYPOTHESIS, max_examples=100)
@given(path=st.sampled_from(["path1.txt", "path2.txt"]), level=st.sampled_from(_EDGES),
       lead_lag=st.sampled_from(_EDGES + _DELAYS), add_time=st.booleans())
def test_sig_compute_exits_cleanly(small_set, path, level, lead_lag, add_time):
    _run("sig", "compute", small_set["root"] / path, f"--level={level}", f"--lead-lag={lead_lag}",
         *(["--add-time"] if add_time else []))


@settings(_HYPOTHESIS, max_examples=100)
@given(dim=st.sampled_from(_EDGES), level=st.sampled_from(_EDGES), seed=st.sampled_from(_EDGES),
       points=st.sampled_from(_SHORT), repeats=st.sampled_from(_SHORT))
def test_bench_exits_cleanly(dim, level, seed, points, repeats):
    _run("bench", f"--dim={dim}", f"--level={level}", f"--points={points}",
         f"--repeats={repeats}", f"--seed={seed}")
