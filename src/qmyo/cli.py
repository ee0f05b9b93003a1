"""Command-line interface.

Subcommands: synth, train, decode, evaluate, learning-curve,
inspect-model. Exit codes: 0 success, 1 usage error (bad flags, missing
files), 2 data error, 3 numeric/model error.

Numeric options resolve as CLI flag > config file > built-in default,
except that a model file's decode thresholds take the default's place;
the config file is flat ``key = value`` lines with ``#`` comments.
"""

import argparse
import errno
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import datasets, experiment, features, operators, synthetic
from .control import decode_batch
from .errors import ConfigurationError, DataError, ModelError, undecodable
from .operators import DecodeConfig, Dof

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with status 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _checked(cast, name, rule, test):
    """Flag type and config-file cast that accepts only values passing ``test``."""
    def parse(raw):
        if not test(value := cast(raw)):
            raise ValueError(f"must be {rule}, got {raw.strip()}")
        return value
    parse.__name__ = name  # argparse names it in errors
    return parse


_positive_int = _checked(int, "positive int", "> 0", lambda v: v > 0)
_positive_float = _checked(float, "positive float", "finite and > 0", lambda v: 0 < v < math.inf)
_non_negative_int = _checked(int, "non-negative int", ">= 0", lambda v: v >= 0)
_non_negative_float = _checked(float, "non-negative float", "finite and >= 0",
                               lambda v: 0 <= v < math.inf)
_fraction = _checked(float, "(0, 1) float", "in (0, 1)", lambda v: 0 < v < 1)
_GEOMETRIES = ("masking", "orthogonal")


def _one_of(choices):
    parse = _checked(str, "choice", f"one of {', '.join(choices)}", choices.__contains__)
    parse.choices = choices  # its flag keeps argparse's own choices check
    return parse


def _listed(cast):
    """Config-file cast of a comma-separated list that names at least one value."""
    def parse(raw):
        if not (values := tuple(cast(part.strip()) for part in raw.split(",") if part.strip())):
            raise ValueError(f"must list one or more values, got {raw.strip()!r}")
        return values
    return parse


# Each setting's built-in default, and the cast that parses and checks one value of
# its flag and config-file line. A tuple default marks a list: one or more values
# after the flag, comma-separated in the file.
_SETTINGS = {
    "window_ms": (100.0, _positive_float),
    "sample_rate": (1024.0, _positive_float),
    "rest_threshold": (DecodeConfig.rest_threshold, _non_negative_float),
    "overlap_epsilon": (DecodeConfig.overlap_epsilon, _fraction),
    "block_vote": (experiment.ExperimentConfig.block_vote, _one_of(experiment.BLOCK_VOTES)),
    "seed": (0, _non_negative_int),
    "channels": (8, _positive_int),
    "noise_sigma": (0.0, _non_negative_float),
    "per_action": (500, _positive_int),
    "angle_min": (5.0, _positive_float),
    "angle_max": (40.0, _positive_float),
    "blocks": (55, _positive_int),
    "windows": (8216, _positive_int),
    "geometry": ("masking", _one_of(_GEOMETRIES)),
    "sizes": ((500, 2000), _positive_int),
    "dofs": ((Dof.FLEXION_EXTENSION, Dof.PRONATION_SUPINATION), Dof),
}


def _add_settings(sub: _Parser, *names, **kwargs):
    """Each named setting's flag, built from its ``_SETTINGS`` entry."""
    for name in names:
        default, cast = _SETTINGS[name]
        check = {"choices": cast.choices} if hasattr(cast, "choices") else {"type": cast}
        sub.add_argument(f"--{name.replace('_', '-')}",
                         nargs="+" if type(default) is tuple else None, **check, **kwargs)


def _read_config(path) -> tuple[dict, dict]:
    """Typed settings of a flat ``key = value`` file, and the line of each."""
    settings, lines = {}, {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(undecodable(path, exc)) from None
    for lineno, line in enumerate(text, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _SETTINGS:
            raise DataError(f"{path}:{lineno}: unknown setting {key!r}")
        if key in lines:
            raise DataError(f"{path}:{lineno}: repeats setting {key!r} from line {lines[key]}")
        default, cast = _SETTINGS[key]
        try:
            settings[key] = (_listed(cast) if type(default) is tuple else cast)(raw.strip())
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        lines[key] = lineno
    return settings, lines


class _Settings:
    """CLI > config file > defaults resolution for one invocation."""

    def __init__(self, parser: _Parser, args):
        self.parser, self.args = parser, args
        config = getattr(args, "config", None)
        self.file_cfg, self.file_lines = _read_config(config) if config else ({}, {})

    def given(self, name):
        """The flag's value, else the config file's, else None."""
        value = getattr(self.args, name, None)
        return value if value is not None else self.file_cfg.get(name)

    def get(self, name):
        value = self.given(name)
        return value if value is not None else _SETTINGS[name][0]

    def require(self, ok: bool, message: str, *names):
        """Unless ``ok``: usage error for a flag in ``names``, else data error at its file line."""
        if ok:
            return
        for name in names:
            if getattr(self.args, name, None) is not None:
                self.parser.error(f"argument --{name.replace('_', '-')}: {message}")
        line = next(self.file_lines[name] for name in names if name in self.file_lines)
        raise ConfigurationError(f"{self.args.config}:{line}: {message}")

    def decode_config(self, base: DecodeConfig = DecodeConfig()) -> DecodeConfig:
        """``base`` with each threshold that a flag or the config file gives."""
        thresholds = {f.name: value for f in fields(DecodeConfig)
                      if (value := self.given(f.name)) is not None}
        return replace(base, **thresholds)

    def sizes(self) -> tuple[int, ...]:
        """The training sizes, which must be strictly increasing."""
        sizes = tuple(self.get("sizes"))
        self.require(list(sizes) == sorted(set(sizes)),
                     f"must be strictly increasing, got {' '.join(map(str, sizes))}", "sizes")
        return sizes

    def dofs(self) -> tuple[Dof, ...] | None:
        """The DOFs a flag or the config file names, which must be distinct, else None."""
        if (dofs := self.given("dofs")) is not None:
            dofs = tuple(dofs)
            self.require(len(set(dofs)) == len(dofs),
                         f"names a DOF more than once, got {' '.join(d.value for d in dofs)}",
                         "dofs")
        return dofs


def _check_paths(parser: _Parser, args, inputs, outputs):
    """Fail before any file is read: with a usage error for an input path that names
    no file; as opening would, for an output path that is a directory or lies in a
    missing one; and with a usage error for one naming, by real path, an input or an
    earlier output. The paths are given by flag name."""
    given = [(name, path) for name in inputs if (path := getattr(args, name)) is not None]
    for name, path in given:
        if not os.path.isfile(path):
            parser.error(f"file not found: {path}")
    flags = {os.path.realpath(path): name for name, path in given}
    for name in outputs:
        if (path := getattr(args, name)) is None:
            continue
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if (first := flags.setdefault(os.path.realpath(path), name)) != name:
            parser.error(f"argument --{name}: names the same file as --{first}".replace("_", "-"))


def _reject_unread(parser: _Parser, args, mode, *names):
    """Usage error for a flag in ``names`` given beside ``mode``, which never reads it."""
    for name in names:
        if getattr(args, mode) is not None and getattr(args, name) is not None:
            parser.error(f"argument --{name.replace('_', '-')}: not allowed with argument --{mode}")


def _load_model(args, settings: _Settings):
    """The model file; a decode threshold given by flag or config file replaces its own."""
    model = operators.load_model(args.model)
    return replace(model, decode_config=settings.decode_config(model.decode_config))


def _cmd_synth(parser: _Parser, args) -> int:
    _check_paths(parser, args, ["config"], ["train_out", "test_out"])
    settings = _Settings(parser, args)
    dofs, channels = settings.dofs() or settings.get("dofs"), settings.get("channels")
    low, high = settings.get("angle_min"), settings.get("angle_max")
    blocks, windows = settings.get("blocks"), settings.get("windows")
    for ok, message, *names in [
        (len(dofs) > 1, "needs two or more distinct DOFs", "dofs"),
        (channels >= 4 * len(dofs),
         f"{channels} channels cannot host {2 * len(dofs)} disjoint dominant pairs",
         "channels", "dofs"),
        (low < high, f"angle_min {low!r} is not below angle_max {high!r}",
         "angle_min", "angle_max"),
        (blocks <= windows, f"cannot spread {windows} windows over {blocks} blocks",
         "blocks", "windows"),
    ]:
        settings.require(ok, message, *names)
    build = {"masking": synthetic.default_mixing_model,
             "orthogonal": synthetic.orthogonal_mixing_model}[settings.get("geometry")]
    model = build(n_channels=channels, dofs=dofs, noise_sigma=settings.get("noise_sigma"),
                  seed=settings.get("seed"))
    table = synthetic.generate_training_table(model, settings.get("per_action"), (low, high))
    train_ds = datasets.from_training_table(table, source="synthetic")
    datasets.save_feature_dataset(train_ds, args.train_out)
    print(f"wrote {train_ds.n_rows} training rows to {args.train_out}")

    scenario = synthetic.default_scenario(
        dofs=dofs, n_blocks=blocks, total_windows=windows, angle_max=high
    )
    test_set = synthetic.generate_test_scenario(model, scenario)
    test_ds = datasets.from_test_set(test_set, source="synthetic")
    datasets.save_feature_dataset(test_ds, args.test_out)
    print(f"wrote {test_ds.n_rows} test windows in {blocks} blocks to {args.test_out}")
    return 0


def _cmd_train(parser: _Parser, args) -> int:
    _check_paths(parser, args, ["data", "config"], ["out"])
    settings = _Settings(parser, args)
    dofs = settings.dofs()
    table = datasets.training_table(datasets.load_feature_dataset(args.data))
    if dofs is not None:
        table = table.of_dofs(dofs)
    if args.size is not None:
        table = experiment.subset_per_action(table, args.size)
    model = operators.train_table(table, dofs=dofs, config=settings.decode_config())
    operators.save_model(model, args.out)
    print(f"trained {len(model.dofs)} DOF(s) on {table.n_rows} samples -> {args.out}")
    for dof in model.sorted_dofs():
        print(f"  {dof.value}: overlap {model.dofs[dof].overlap!r}")
    return 0


def _mav_rows(path, rate: float, window_ms: float) -> np.ndarray:
    """(N, C) MAV feature rows of a recording's windows."""
    rec = features.load_recording(path, sample_rate=rate)
    try:
        windows = features.segment_windows(rec, window_ms)
    except DataError as exc:  # shorter than one window
        raise DataError(f"{path}: {exc}") from None
    rows = []
    try:
        with np.errstate(over="ignore"):  # a MAV past float range fails FeatureVector's check
            for window in windows:
                rows.append(features.mav(window).values)
    except ValueError as exc:
        raise DataError(f"{path}: window {len(rows)}: {exc}") from None
    return np.stack(rows)


def _cmd_decode(parser: _Parser, args) -> int:
    _reject_unread(parser, args, "data", "sample_rate", "window_ms")
    _check_paths(parser, args, ["model", "data", "raw", "config"], ["out"])
    settings = _Settings(parser, args)
    rate, window_ms = settings.get("sample_rate"), settings.get("window_ms")
    length = window_ms * rate / 1000.0
    settings.require(args.data is not None or 2 <= length < math.inf,
                     f"a {window_ms} ms window spans {'under 2' if length < 2 else 'unbounded'} "
                     f"samples at {rate} Hz", "window_ms", "sample_rate")
    model = _load_model(args, settings)
    windows = (datasets.load_feature_dataset(args.data).features if args.data
               else _mav_rows(args.raw, rate, window_ms))
    decoded = decode_batch(windows, model)
    datasets.save_decode_csv(decoded, model.sorted_dofs(), args.out)
    print(f"decoded {len(decoded)} windows -> {args.out}")
    return 0


def _cmd_evaluate(parser: _Parser, args) -> int:
    _reject_unread(parser, args, "model", "sizes", "dofs", "seed")
    _check_paths(parser, args, ["test", "model", "train_data", "config"],
                 ["report_out", "csv_out", "decode_out"])
    settings = _Settings(parser, args)
    vote = settings.get("block_vote")
    cfg = None if args.model else experiment.ExperimentConfig(
        decode=settings.decode_config(),
        training_sizes=settings.sizes(),
        seed=settings.get("seed"),
        dofs=settings.dofs(),
        block_vote=vote,
    )
    test_ds = datasets.load_feature_dataset(args.test)
    if args.model:
        report = experiment.report_for_model(_load_model(args, settings), test_ds, vote)
    else:
        train_ds = datasets.load_feature_dataset(args.train_data)
        report = experiment.run_experiment(cfg, train_ds, test_ds)
    text = experiment.render_report_text(report)
    if args.report_out:
        with open(args.report_out, "w") as fh:
            fh.write(text)
    print(text, end="")
    if args.csv_out:
        with open(args.csv_out, "w") as fh:
            fh.write(experiment.render_report_csv(report))
    if args.decode_out:
        datasets.save_decode_csv(report.results[-1].decoded, report.dofs, args.decode_out)
    return 0


def _cmd_learning_curve(parser: _Parser, args) -> int:
    _check_paths(parser, args, ["data"], ["out"])
    settings = _Settings(parser, args)
    sizes, dofs = settings.sizes(), settings.dofs()
    table = datasets.training_table(datasets.load_feature_dataset(args.data))
    if (largest := sizes[-1]) > table.n_rows:
        raise ConfigurationError(f"{args.data}: size {largest} exceeds its {table.n_rows} samples")
    curves = operators.overlap_curve(table, list(sizes), dofs=dofs)
    ordered = sorted(curves)
    header = ["samples"] + [f"overlap_{dof.value}" for dof in ordered]
    rows = [header] + [
        [str(size)] + [repr(curves[dof][i]) for dof in ordered]
        for i, size in enumerate(sizes)
    ]
    text = "\n".join(",".join(row) for row in rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def _cmd_inspect_model(parser: _Parser, args) -> int:
    _check_paths(parser, args, ["model"], [])
    model = operators.load_model(args.model)
    cfg = model.decode_config
    print(f"channels: {model.n_channels}")
    print(
        f"decode_config: rest_threshold={cfg.rest_threshold!r} "
        f"overlap_epsilon={cfg.overlap_epsilon!r}"
    )
    for dof in model.sorted_dofs():
        ops = model.dofs[dof]
        print(f"[{dof.value}]")
        print(f"  theta_positive_max: {ops.theta_pos_max!r}")
        print(f"  theta_negative_max: {ops.theta_neg_max!r}")
        print(f"  overlap: {ops.overlap!r}")
        for name, op in (("p_positive", ops.p_pos), ("p_negative", ops.p_neg), ("p_zero", ops.p_zero)):
            spectrum = np.linalg.eigvalsh(op.matrix)
            rendered = ", ".join(f"{v:.6g}" for v in spectrum)
            print(f"  {name} spectrum: [{rendered}]")
        print(f"  p_zero min eigenvalue: {float(spectrum[0])!r}")
    return 0


def build_parser() -> _Parser:
    """The top-level parser; each command's own parser checks its arguments."""
    parser = _Parser(prog="qmyo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic train/test datasets")
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    _add_settings(p, "channels", "dofs", "noise_sigma", "seed", "per_action", "angle_min",
                  "angle_max", "blocks", "windows", "geometry")
    p.add_argument("--config", metavar="FILE", help="flat key=value settings file")
    p.set_defaults(func=_cmd_synth, parser=p)

    p = sub.add_parser("train", help="learn measurement operators from a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=_positive_int, help="samples per action (default: all)")
    _add_settings(p, "dofs", "rest_threshold", "overlap_epsilon")
    p.add_argument("--config", metavar="FILE", help="flat key=value settings file")
    p.set_defaults(func=_cmd_train, parser=p)

    p = sub.add_parser("decode", help="decode feature windows or a raw recording")
    p.add_argument("--model", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help="feature dataset CSV")
    group.add_argument("--raw", help="raw recording CSV (ch1..chN)")
    p.add_argument("--out", required=True)
    _add_settings(p, "sample_rate", "window_ms", "rest_threshold", "overlap_epsilon")
    p.add_argument("--config", metavar="FILE", help="flat key=value settings file")
    p.set_defaults(func=_cmd_decode, parser=p)

    p = sub.add_parser("evaluate", help="score a model or run a sized experiment")
    p.add_argument("--test", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model")
    group.add_argument("--train-data")
    p.add_argument("--report-out")
    p.add_argument("--csv-out")
    p.add_argument("--decode-out")
    _add_settings(p, "sizes", "dofs", "seed", "rest_threshold", "overlap_epsilon", "block_vote")
    p.add_argument("--config", metavar="FILE", help="flat key=value settings file")
    p.set_defaults(func=_cmd_evaluate, parser=p)

    p = sub.add_parser("learning-curve", help="prototype overlap vs training size")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    _add_settings(p, "sizes", required=True)
    _add_settings(p, "dofs")
    p.set_defaults(func=_cmd_learning_curve, parser=p)

    p = sub.add_parser("inspect-model", help="print operator spectra and overlaps")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_inspect_model, parser=p)

    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # reported by the command's own parser, as its other usage errors
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        code = args.func(args.parser, args)
        sys.stdout.flush()  # a reader that left early shows here when stdout is buffered
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DataError as exc:
        print(f"qmyo: data error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"qmyo: model error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"qmyo: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:  # a directory or unwritable path given as a file
        print(f"qmyo: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
