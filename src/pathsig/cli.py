"""Command-line entry points.

Subcommands:

* ``sig compute``      signature of a path file, printed as text
* ``features extract`` manifest of clips -> feature matrix files under PREFIX
* ``train``            feature matrix -> model file (+ history)
* ``eval``             model + labeled features -> accuracy report
* ``predict``          model + extract PREFIX + one clip -> class name and probability
* ``bench``            time, coefficient-segment rate and peak RSS of one large signature

Exit status: 0 on success, 1 on input/usage errors (and on a result too
large to allocate), 2 on file format errors.  Every command is
deterministic given its seed flags; rerunning ``features extract`` with
the same inputs rewrites byte-identical files, PREFIX.descriptor.txt and
PREFIX.config.txt among them, which ``predict`` reads with PREFIX's scaler(s).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import resource
import sys
import time

import numpy as np

from .errors import FormatError, InputError, check_entries, check_labels, check_number
from . import io as pio
from .classifier import (
    HIDDEN_UNITS,
    TrainConfig,
    StagePartition,
    extract_body_features,
    forward,
    init_model,
    load_model,
    prepare_body,
    rank_actors,  # noqa: F401  (not called here; perfbench wraps it on this module)
    save_model,
    stage_partition,
    train,
    two_stage_route,
)
from .signature import path_signature, signature_dimension
from .skeleton import (
    DatasetDescriptor,
    ExtractionOptions,
    FeatureConfig,
    FeatureScaler,
    apply_scaler,
    assemble_features,
    augment_clips,
    feature_layout,
    fill_clip,  # noqa: F401  (not called here; perfbench wraps it on this module)
    fit_scaler,  # noqa: F401  (not called here; perfbench wraps it on this module)
    normalize_clip,  # noqa: F401  (not called here; perfbench wraps it on this module)
)
from .transforms import add_time, lead_lag

__all__ = ["main"]

# ``train`` flags whose names differ from their ``TrainConfig`` field.
_TRAIN_FLAGS = {"learning_rate": "lr", "max_epochs": "epochs"}

# The two-stage models in the order ``two_stage_route`` takes them: the name
# in their file names and how many ranked actors their features merge.
_STAGES = (("gate", 2), ("one", 1), ("multi", 2))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pathsig", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sig = sub.add_parser("sig", help="signature computations")
    sig_sub = sig.add_subparsers(dest="sig_command", required=True)
    compute = sig_sub.add_parser("compute", help="print the signature of a path file")
    compute.add_argument("path_file", help="text file, one sample per line, comma-separated")
    compute.add_argument("--level", type=int, required=True, help="truncation level (>= 1)")
    compute.add_argument("--lead-lag", type=int, metavar="K", default=0,
                         help="lift a 1-D path to K delayed copies before signing")
    compute.add_argument("--add-time", action="store_true",
                         help="append a [0,1] time coordinate (after any lead-lag)")
    compute.set_defaults(func=cmd_sig_compute)

    features = sub.add_parser("features", help="feature extraction")
    feat_sub = features.add_subparsers(dest="features_command", required=True)
    extract = feat_sub.add_parser("extract", help="clips manifest -> feature matrices")
    extract.add_argument("--manifest", required=True, help="dataset manifest file")
    extract.add_argument("--descriptor", required=True, help="skeleton descriptor file")
    extract.add_argument("--config", default=None,
                         help="feature config key-value file (defaults when omitted)")
    extract.add_argument("--output", required=True, metavar="PREFIX",
                         help="output prefix for .feat/.labels/.scaler files")
    extract.add_argument("--two-stage", action="store_true",
                         help="also write gate/one/multi splits for two-stage training")
    extract.set_defaults(func=cmd_extract)

    train_p = sub.add_parser("train", help="train a classifier on extracted features")
    train_p.add_argument("--features", required=True,
                         help="feature matrix file, or the extract PREFIX with --two-stage")
    train_p.add_argument("--labels", default=None,
                         help="labels file (ignored with --two-stage)")
    train_p.add_argument("--model", required=True,
                         help="output model file, or an output prefix with --two-stage")
    train_p.add_argument("--history", help="per-epoch history file (ignored with --two-stage)")
    train_p.add_argument("--classes", type=int, default=0,
                         help="class count (default 1 + max label; ignored with --two-stage)")
    train_p.add_argument("--hidden", type=int, default=HIDDEN_UNITS, help="hidden units")
    for field in dataclasses.fields(TrainConfig):
        flag = _TRAIN_FLAGS.get(field.name, field.name).replace("_", "-")
        train_p.add_argument(f"--{flag}", dest=field.name, type=type(field.default),
                             default=field.default, metavar=flag.upper(),
                             help=f"{field.name.replace('_', ' ')} (default %(default)s)")
    train_p.add_argument("--two-stage", action="store_true",
                         help="train gate/one/multi models from a two-stage extract")
    train_p.set_defaults(func=cmd_train)

    eval_p = sub.add_parser("eval", help="evaluate a model on labeled features")
    eval_p.add_argument("--features", required=True,
                        help="feature matrix file, or the extract PREFIX with --two-stage")
    eval_p.add_argument("--labels", help="true labels file (ignored with --two-stage)")
    eval_p.add_argument("--model", required=True,
                        help="model file, or the train PREFIX with --two-stage")
    eval_p.add_argument("--split", default="test", choices=("train", "test"),
                        help="which two-stage split to evaluate (default test)")
    eval_p.add_argument("--two-stage", action="store_true")
    eval_p.set_defaults(func=cmd_eval)

    predict = sub.add_parser("predict", help="classify a single clip file")
    predict.add_argument("--clip", required=True, help="clip file")
    predict.add_argument("--features", required=True, metavar="PREFIX",
                         help="the extract PREFIX: its descriptor, config and scaler(s)")
    predict.add_argument("--model", required=True,
                         help="model file, or the train PREFIX with --two-stage")
    predict.add_argument("--two-stage", action="store_true")
    predict.set_defaults(func=cmd_predict)

    bench = sub.add_parser("bench", help="time path_signature on a random path")
    bench.add_argument("--dim", type=int, required=True, help="path dimension")
    bench.add_argument("--level", type=int, required=True, help="truncation level")
    bench.add_argument("--points", type=int, required=True, help="points in the path")
    bench.add_argument("--repeats", type=int, default=1, help="timed repetitions (>= 1)")
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(func=cmd_bench)

    return parser


def cmd_sig_compute(args) -> int:
    """Print one `level value` line per coefficient, 17 significant digits."""
    pts = pio.read_path_file(args.path_file)
    if args.lead_lag:
        if pts.shape[1] != 1:
            raise InputError(
                f"--lead-lag needs a 1-dimensional path, got {pts.shape[1]} coordinates"
            )
        pts = lead_lag(pts[:, 0], args.lead_lag)
    if args.add_time:
        pts = add_time(pts)
    sig = path_signature(pts, args.level)
    for k in range(1, sig.n + 1):
        for value in sig.level(k):
            print(f"{k} {value:.17g}")
    return 0


def _class_id(name: str, descriptor: DatasetDescriptor, manifest_path) -> int:
    try:
        return descriptor.class_names.index(name)
    except ValueError:
        raise InputError(
            f"{manifest_path}: label {name!r} is not among the descriptor classes "
            f"{list(descriptor.class_names)}"
        ) from None


def _extract_split(records, descriptor, config, options, body_counts, augment):
    """Yield ({bodies: feature row}, label) for one manifest split, in manifest
    order; each clip is read once and prepared once per body count."""
    body_descs = {bodies: descriptor.merged(bodies) for bodies in body_counts}
    for index, rec in enumerate(records):
        label = _class_id(rec.label_name, descriptor, rec.clip_path)
        clip = pio.read_clip_file(rec.clip_path, descriptor, label=label,
                                  min_actors=rec.actor_count)
        variants = []
        for bodies, body_desc in body_descs.items():
            prepared = prepare_body(clip, bodies)
            variants.append(augment_clips(prepared, body_desc, options, index)
                            if augment else [prepared])
        for group in zip(*variants):
            yield {bodies: assemble_features(v.joints[:, 0], config, body_descs[bodies])
                   for bodies, v in zip(body_descs, group)}, label


def _print_layout(config: FeatureConfig, descriptor: DatasetDescriptor) -> None:
    """One line per block name of ``feature_layout``: its count, width and total."""
    layout = feature_layout(config, descriptor)
    print(f"feature layout: {descriptor.joint_count} joints, dim {descriptor.dim}, "
          f"{config.sampled_frames} sampled frames")
    for name in dict.fromkeys(block.name for block in layout):
        widths = [block.width for block in layout if block.name == name]
        print(f"  {name:<22}{len(widths):>3} x {widths[0]:>8}  total {sum(widths):>9}")
    print(f"  total dimension: {sum(block.width for block in layout)}")


def _stage_labels(partition: StagePartition):
    """Per ``_STAGES`` entry: the label count its labels files may hold, the
    labels its model separates, and the map from a class id to its label."""
    C = partition.multi_body.size
    return ((2, np.arange(2), lambda y: int(partition.multi_body[y])),
            (C, partition.one_body_classes, int),
            (C, partition.multi_body_classes, int))


def _feature_config(path, descriptor: DatasetDescriptor, two_stage: bool):
    """The settings of a feature config file, or the defaults; FormatError,
    before any clip is read, when the merged skeleton of a body count the
    command uses (``bodies``, or each stage's) has too many joints or its
    feature rows too many columns."""
    config, options = (pio.read_feature_config(path) if path
                       else (FeatureConfig(), ExtractionOptions()))
    body_counts = {bodies for _, bodies in _STAGES} if two_stage else {options.bodies}
    for bodies in body_counts:
        pio._checked(path or "default feature config",
                     lambda: feature_layout(config, descriptor.merged(bodies)))
    return config, options


def cmd_extract(args) -> int:
    records = pio.read_manifest(args.manifest)
    descriptor = pio.read_descriptor(args.descriptor)
    config, options = _feature_config(args.config, descriptor, args.two_stage)
    train_recs = [r for r in records if r.split == "train"]
    test_recs = [r for r in records if r.split == "test"]
    if not train_recs:
        raise InputError(f"{args.manifest}: no train records")

    # One output matrix per (suffix, bodies, labels of the rows its scaler is
    # fit on, label map).  Two-stage: each scaler is fit on its own model's
    # training rows.
    if args.two_stage:
        train_labels = np.array([_class_id(r.label_name, descriptor, r.clip_path)
                                 for r in train_recs], dtype=np.int64)
        counts = np.array([r.actor_count for r in train_recs], dtype=np.float64)
        partition = stage_partition(train_labels, counts, len(descriptor.class_names))
        for side, classes in (("one-body", partition.one_body_classes),
                              ("multi-body", partition.multi_body_classes)):
            if classes.size < 2:  # each class model needs two classes
                raise InputError(f"{args.manifest}: --two-stage needs at least two {side} "
                                 f"classes, got {classes.tolist()}")
        outputs = [(f".{stage}", bodies, classes, label_of)
                   for (stage, bodies), (_, classes, label_of)
                   in zip(_STAGES, _stage_labels(partition))]
    else:
        outputs = [("", options.bodies, range(len(descriptor.class_names)), int)]
    layouts = [feature_layout(config, descriptor.merged(bodies)) for _, bodies, _, _ in outputs]
    widths = [sum(block.width for block in layout) for layout in layouts]
    bounds = [np.zeros(width) for width in widths]  # running max |x| of each column
    body_counts = list(dict.fromkeys(bodies for _, bodies, _, _ in outputs))
    splits = [(split, recs) for split, recs in (("train", train_recs), ("test", test_recs)) if recs]
    labels = {split: [] for split, _ in splits}
    # Each output's temporary name is entered before any writer, so every file is
    # whole before the first rename.  A training row, once written to every output,
    # is made |row| in place and folded into the bound of each output it fits.  Each
    # bound, its zeros set to 1, is the scale (fit_scaler(bound[None]) bit for bit)
    # and divides its matrices in place, as apply_scaler would.
    kinds = [".scaler.feat"] + [f".{split}.{ext}" for split in labels for ext in ("feat", "labels")]
    names = [".descriptor.txt", ".config.txt"] + [".partition.txt"] * args.two_stage
    names += [suffix + kind for suffix, *_ in outputs for kind in kinds]
    with contextlib.ExitStack() as stack:
        tmp = {name: stack.enter_context(pio.published(args.output + name)) for name in names}
        writers = {split: [stack.enter_context(pio.FeatureMatrixWriter(
            tmp[f"{suffix}.{split}.feat"], width, layout))
            for (suffix, *_), width, layout in zip(outputs, widths, layouts)]
            for split, _ in splits}
        for split, recs in splits:
            for rows, label in _extract_split(recs, descriptor, config, options, body_counts,
                                              augment=split == "train"):
                labels[split].append(label)
                for (_, bodies, _, _), writer in zip(outputs, writers[split]):
                    writer.write(rows[bodies])
                if split == "train":
                    for bodies in rows:
                        np.abs(rows[bodies], out=rows[bodies])
                    for (_, bodies, classes, label_of), bound in zip(outputs, bounds):
                        if label_of(label) in classes:
                            np.maximum(bound, rows[bodies], out=bound)
                del rows  # the next clip's rows are built without this clip's
        for bound in bounds:
            bound[bound == 0.0] = 1.0
        scalers = [FeatureScaler(bound) for bound in bounds]
        for split_writers in writers.values():
            for writer, scaler in zip(split_writers, scalers):
                writer.map_rows(lambda block, s=scaler.scale: np.divide(block, s, out=block))
        pio.write_descriptor(descriptor, tmp[".descriptor.txt"])
        pio.write_feature_config(config, options, tmp[".config.txt"])
        if args.two_stage:
            pio.write_partition(partition.mean_actor_counts, partition.multi_body,
                                tmp[".partition.txt"])
        for (suffix, _, _, label_of), scaler in zip(outputs, scalers):
            pio.write_scaler(scaler, tmp[f"{suffix}.scaler.feat"])
            for split, split_labels in labels.items():
                pio.write_labels([label_of(y) for y in split_labels],
                                 tmp[f"{suffix}.{split}.labels"])
    _print_layout(config, descriptor.merged(min(bodies for _, bodies, _, _ in outputs)))
    if args.two_stage:
        print(f"one-body classes: {partition.one_body_classes.tolist()}, "
              f"multi-body classes: {partition.multi_body_classes.tolist()}")
    else:
        print(f"train rows: {len(labels['train'])}"
              + (f", test rows: {len(test_recs)}" if test_recs else ""))
    return 0


def _read_features(path, stack: contextlib.ExitStack) -> pio.FeatureRows:
    """The rows of a SIGFEAT1 file, open until ``stack`` closes; InputError
    names the first row with a non-finite entry, found block by block."""
    x = stack.enter_context(pio.FeatureRows(path))
    start = 0
    for block in x.blocks():
        if not np.isfinite(block).all():
            row = start + int(np.isfinite(block).all(axis=1).argmin())
            raise InputError(f"{path}: row {row} has a non-finite entry")
        start += block.shape[0]
    return x


def _read_labeled(features_path, labels_path, stack: contextlib.ExitStack):
    """``_read_features`` and ``read_labels``; InputError when their row counts differ."""
    x = _read_features(features_path, stack)
    y = pio.read_labels(labels_path)
    if y.size != x.shape[0]:
        raise InputError(f"{labels_path}: {y.size} labels for {x.shape[0]} feature rows")
    return x, y


def _write_history(history, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("# epoch,lr,loss,train_accuracy\n")
        for s in history:
            f.write(f"{s.epoch},{s.lr:.17g},{s.loss:.17g},{s.accuracy:.17g}\n")


def _fit(x, y, class_count, config, hidden, model_path, history_path, stack):
    # both outputs are created first: one that cannot be written fails before training
    model_tmp, history_tmp = (stack.enter_context(pio.published(path))
                              for path in (model_path, history_path))
    model = init_model(x.shape[1], class_count, config, hidden_dim=hidden)
    history = train(model, x, y)
    save_model(model, model_tmp)
    _write_history(history, history_tmp)
    last = history[-1]
    print(f"{model_path}: {len(history)} epochs, final loss {last.loss:.6f}, "
          f"train accuracy {last.accuracy:.4f}")


def cmd_train(args) -> int:
    config = TrainConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)})
    if not args.two_stage and not args.labels:
        raise InputError("--labels is required without --two-stage")
    with contextlib.ExitStack() as stack:
        if not args.two_stage:
            x, y = _read_labeled(args.features, args.labels, stack)
            class_count = args.classes or int(y.max()) + 1
            _fit(x, y, class_count, config, args.hidden, args.model,
                 args.history or f"{args.model}.history.txt", stack)
            return 0

        prefix = args.features
        stages = _stage_labels(StagePartition(*pio.read_partition(f"{prefix}.partition.txt")))
        # Every matrix and labels file is read, and checked, before any model trains.
        data = []
        for (stage, _), (label_count, _, _) in zip(_STAGES, stages):
            labels_path = f"{prefix}.{stage}.train.labels"
            data.append(_read_labeled(f"{prefix}.{stage}.train.feat", labels_path, stack))
            check_labels(data[-1][1], label_count, labels_path)
        for (stage, _), (_, classes, _), (x, y) in zip(_STAGES, stages, data):
            keep = np.flatnonzero(np.isin(y, classes))
            y_local = np.searchsorted(classes, y[keep])  # classes are sorted ids
            _fit(x[keep], y_local, classes.size, config, args.hidden,
                 f"{args.model}.{stage}.model", f"{args.model}.{stage}.history.txt", stack)
    return 0


def _report_eval(y_true, y_pred, class_count) -> float:
    confusion = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(confusion, (y_true, y_pred), 1)
    for c in range(class_count):
        total = int(confusion[c].sum())
        correct = int(confusion[c, c])
        rate = correct / total if total else 0.0
        print(f"class {c}: {correct}/{total} = {rate:.6f}")
    print("confusion matrix (rows = true, cols = predicted):")
    for row in confusion:
        print(" ".join(str(int(v)) for v in row))
    correct = int(np.trace(confusion))
    total = int(confusion.sum())
    accuracy = correct / total
    print(f"overall accuracy: {correct}/{total} = {accuracy:.6f}")
    return accuracy


def _check_width(model, path, width: int, features) -> None:
    """InputError naming ``path`` and ``features`` if ``model`` takes rows of another width."""
    if width != model.input_dim:
        raise InputError(f"{features}: {width} feature dims, {path} expects {model.input_dim}")


def _load_two_stage(model_prefix, extract_prefix):
    """The models of a two-stage train, in ``_STAGES`` order, and the class
    partition; InputError names a model whose class count is not its stage's."""
    path = f"{extract_prefix}.partition.txt"
    partition = StagePartition(*pio.read_partition(path))
    models = [load_model(f"{model_prefix}.{stage}.model") for stage, _ in _STAGES]
    for (stage, _), (_, classes, _), model in zip(_STAGES, _stage_labels(partition), models):
        if model.class_count != classes.size:
            raise InputError(f"{model_prefix}.{stage}.model: {model.class_count} classes, but "
                             f"{path} gives the {stage} stage {classes.size}")
    return models, partition


def cmd_eval(args) -> int:
    if not args.two_stage and not args.labels:
        raise InputError("--labels is required without --two-stage")
    with contextlib.ExitStack() as stack:
        if not args.two_stage:
            x, y = _read_labeled(args.features, args.labels, stack)
            model = load_model(args.model)
            _check_width(model, args.model, x.shape[1], args.features)
            check_labels(y, model.class_count, args.labels)
            _report_eval(y, forward(model, x).argmax(axis=1), model.class_count)
            return 0

        labels_path = f"{args.features}.one.{args.split}.labels"  # global class ids
        y = pio.read_labels(labels_path)
        xs = [_read_features(f"{args.features}.{stage}.{args.split}.feat", stack)
              for stage, _ in _STAGES]
        for x in xs:
            if x.shape[0] != y.size:
                raise InputError(f"{labels_path}: {y.size} labels, {x.shape[0]} rows in {x.path}")
        models, partition = _load_two_stage(args.model, args.features)
        for (stage, _), model, x in zip(_STAGES, models, xs):
            _check_width(model, f"{args.model}.{stage}.model", x.shape[1], x.path)
        check_labels(y, partition.multi_body.size, labels_path)
        _report_eval(y, two_stage_route(*models, partition, *xs)[0], partition.multi_body.size)
    return 0


def cmd_predict(args) -> int:
    descriptor = pio.read_descriptor(f"{args.features}.descriptor.txt")
    config, options = _feature_config(f"{args.features}.config.txt", descriptor, args.two_stage)
    clip = pio.read_clip_file(args.clip, descriptor)

    if not args.two_stage:
        model = load_model(args.model)
        scaler = pio.read_scaler(f"{args.features}.scaler.feat")
        x = extract_body_features(clip, options.bodies, config, descriptor)
        _check_width(model, args.model, x.size, args.features)
        probs = forward(model, apply_scaler(scaler, x))
        label = int(probs.argmax())
        prob = float(probs[label])
    else:
        models, partition = _load_two_stage(args.model, args.features)
        scalers = [pio.read_scaler(f"{args.features}.{stage}.scaler.feat") for stage, _ in _STAGES]
        rows = {bodies: extract_body_features(clip, bodies, config, descriptor)[None, :]
                for bodies in dict.fromkeys(bodies for _, bodies in _STAGES)}
        for (stage, bodies), model in zip(_STAGES, models):
            _check_width(model, f"{args.model}.{stage}.model", rows[bodies].shape[1], args.features)
        labels, probs = two_stage_route(*models, partition, *(
            apply_scaler(scaler, rows[bodies]) for scaler, (_, bodies) in zip(scalers, _STAGES)))
        label, prob = int(labels[0]), float(probs[0])

    names = descriptor.class_names
    print(f"{names[label] if label < len(names) else label} {prob:.6f}")
    return 0


def cmd_bench(args) -> int:
    for name, low in (("repeats", 1), ("points", 1), ("dim", 1), ("seed", 0)):
        check_number(getattr(args, name), f"--{name}", ge=low)
    check_entries(args.points * args.dim, "the random path")
    rng = np.random.default_rng(args.seed)
    path = rng.standard_normal((args.points, args.dim))
    times = []
    for _ in range(args.repeats):
        start = time.perf_counter()
        path_signature(path, args.level)
        times.append(time.perf_counter() - start)
    count = signature_dimension(args.dim, args.level)
    print(f"dimension {args.dim}, level {args.level}, {args.points} points")
    print(f"coefficients: {count:,}")
    print(f"time over {args.repeats} run(s): min {min(times):.3f}s "
          f"mean {sum(times) / len(times):.3f}s max {max(times):.3f}s")
    print(f"coefficient-segments per second: {count * (args.points - 1) / min(times):,.0f}")
    print(f"peak RSS: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MiB")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 after a usage error
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
