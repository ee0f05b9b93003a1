"""The benchmark's three workloads.

Each is a closed loop with one client: the next operation starts only when
the previous one has returned. A workload builds its inputs from the seed
in ``prepare``, runs one timed pass in ``run_pass`` and checks a pass's
outputs in ``verify``, outside the timed region. Operations are CLI
commands for ``cli-pipeline`` and ``train-sweep`` and windows for
``stream-decode``; an operation fails when it raises, exits non-zero or
produces output that disagrees with the plain-numpy reference or with the
run's first pass.

A pass is a sequence of parts (a CLI command, or the whole stream loop).
With ``calibrate`` each part is bracketed by calibration blocks and also
recorded in reference seconds (see ``calibrate.py``); ``figures`` gives
the per-workload figures in seconds as measured and the end-to-end metrics
in reference seconds, each part's median over the passes.
"""

import contextlib
import hashlib
import io
import shutil
import statistics
import time
import traceback

import numpy as np

import calibrate
import reference as ref
from qmyo import cli, control, datasets, features, operators, synthetic
from qmyo.operators import Dof

clock = time.perf_counter

DOFS_3 = (Dof.FLEXION_EXTENSION, Dof.RADIAL_ULNAR, Dof.PRONATION_SUPINATION)


class PassRecord:
    """What one pass did: its wall time, step times, failures and output digests."""

    def __init__(self):
        self.wall_s = 0.0
        self.steps = {}
        self.ref_steps = {}  # step times in reference seconds, when calibrated
        self.cal_slices = []  # the calibration slices' durations
        self.codes = {}
        self.stdout = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.digest = None
        self.latencies = None  # stream-decode: seconds per window
        self.actions = None  # stream-decode: decoded actions until verified


def _scaled(value, scale, minimum=1):
    return max(minimum, round(value * scale))


def median_ref(records, steps):
    """Median over the passes of the summed reference seconds of ``steps``."""
    return statistics.median(sum(r.ref_steps[s] for s in steps) for r in records)


class CliWorkload:
    """A pass is a fixed sequence of ``qmyo`` commands run in-process through ``cli.main``."""

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)

    def path(self, name):
        return str(self.dir / name)

    def before_pass(self):
        for _, _, outputs in self.commands():
            for name in outputs:
                (self.dir / name).unlink(missing_ok=True)

    def run_pass(self, calibrate_steps=True):
        rec = PassRecord()
        after = rec.cal_slices = calibrate.block() if calibrate_steps else []
        for step, argv, _ in self.commands():
            before = after
            buf = io.StringIO()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = None
            rec.steps[step] = clock() - t0
            rec.codes[step] = code
            rec.stdout[step] = buf.getvalue()
            if calibrate_steps:
                after = calibrate.block()
                rec.cal_slices = rec.cal_slices + after
                rec.ref_steps[step] = calibrate.to_reference(rec.steps[step], before, after)
        rec.wall_s = sum(rec.steps.values())
        return rec

    def _digests(self, rec):
        out = {}
        for step, _, outputs in self.commands():
            h = hashlib.sha256(rec.stdout[step].encode())
            for name in outputs:
                try:
                    h.update((self.dir / name).read_bytes())
                except OSError:
                    h.update(b"\0missing")
            out[step] = h.hexdigest()
        return out

    def verify(self, rec, first, detailed):
        """Count failed commands; ``detailed`` also checks outputs against the reference.

        Outputs of every pass must be byte-identical to the run's first pass
        (same seed, same inputs), so the reference check runs on one pass.
        """
        rec.digest = self._digests(rec)
        steps = [step for step, _, _ in self.commands()]
        try:
            mismatches = self.check_outputs(rec) if detailed else {}
        except (ValueError, IndexError, KeyError, TypeError):
            traceback.print_exc()
            mismatches = dict.fromkeys(steps, 1)
        for step in steps:
            rec.attempted += 1
            bad = mismatches.get(step, 0)
            rec.mismatches += bad
            differs = first is not None and first.digest[step] != rec.digest[step]
            if rec.codes[step] != 0 or bad or differs:
                rec.failed += 1

    def _check_model(self, model_path, train_csv):
        """Mismatches between a model file and normalize(Σθψ) over the training rows."""
        try:
            doc = ref.load_model_doc(model_path)
            feats, angles = ref.load_feature_csv(train_csv)
        except (OSError, ValueError):
            return 1
        expected = ref.prototypes(feats, angles)
        bad = 0
        for key, entry in doc["dofs"].items():
            stored = {}
            for direction in ("positive", "negative"):
                proto = np.array(entry[f"prototype_{direction}"])
                stored[direction] = proto
                want, theta = expected.get((key, direction), (None, None))
                bad += want is None or not np.allclose(proto, want, rtol=0, atol=ref.VALUE_TOL)
                bad += theta is None or abs(entry[f"theta_{direction}_max"] - theta) > ref.VALUE_TOL
            overlap = float(stored["positive"] @ stored["negative"]) ** 2
            bad += abs(entry.get("overlap", overlap) - overlap) > ref.VALUE_TOL
        return int(bad)


class CliPipeline(CliWorkload):
    """synth, train, then evaluate at two training sizes, as a user runs them."""

    name = "cli-pipeline"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.per_action = _scaled(2000, scale, 4)
        self.sizes = (_scaled(500, scale), self.per_action)
        self.blocks = 55
        self.windows = _scaled(8216, scale, self.blocks)

    def prepare(self):
        """Inputs are the synth arguments; set-up only clears the work directory."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def commands(self):
        train, test, model = self.path("train.csv"), self.path("test.csv"), self.path("model.json")
        return [
            ("synth", [
                "synth", "--train-out", train, "--test-out", test, "--channels", "8",
                "--dofs", "d1", "d3", "--geometry", "masking", "--noise-sigma", "0.1",
                "--seed", str(self.seed), "--per-action", str(self.per_action),
                "--blocks", str(self.blocks), "--windows", str(self.windows),
            ], ["train.csv", "test.csv"]),
            ("train", ["train", "--data", train, "--out", model], ["model.json"]),
            ("evaluate", [
                "evaluate", "--test", test, "--train-data", train,
                "--sizes", *map(str, self.sizes), "--seed", str(self.seed),
                "--report-out", self.path("report.txt"), "--csv-out", self.path("report.csv"),
                "--decode-out", self.path("decoded.csv"),
            ], ["report.txt", "report.csv", "decoded.csv"]),
        ]

    def check_outputs(self, rec):
        bad = {"train": self._check_model(self.path("model.json"), self.path("train.csv"))}
        try:
            feats, truth = ref.load_feature_csv(self.path("test.csv"))
            train_rows = len(ref.load_feature_csv(self.path("train.csv"))[0])
        except (OSError, ValueError):
            return {**bad, "synth": 1, "evaluate": 1}
        bad["synth"] = (len(feats) != self.windows) + (train_rows != 4 * self.per_action)
        bad["evaluate"] = self._check_evaluate(rec, feats, truth)
        return bad

    def _check_evaluate(self, rec, feats, truth):
        """Decoded angles, directions and the largest size's R² against the reference.

        The largest training size uses every training row, so it is the
        model the train step wrote.
        """
        try:
            params, rest = ref.model_params(ref.load_model_doc(self.path("model.json")))
            keys = [p[0] for p in params]
            got, directions, _ = ref.read_decode_csv(self.path("decoded.csv"), keys)
            with open(self.path("report.txt")) as fh:
                report = fh.read()
        except (OSError, ValueError, KeyError):
            return 1
        want, _, ambiguous = ref.decode(feats, params, rest)
        if got.shape != want.shape:
            return 1
        wrong = (np.abs(got - want) > ref.ANGLE_TOL).any(axis=1) & ~ambiguous
        wrong |= np.array([[d != ref.direction_of(v) for d, v in zip(row, vals)]
                           for row, vals in zip(directions, got)]).any(axis=1)
        bad = int(wrong.sum())
        columns = [ref.DOF_KEYS.index(k) for k in keys]
        r2_dof, r2_all = ref.r_squared(truth[:, columns], want)
        last = report.rsplit("[training_size=", 1)[-1].splitlines()
        values = dict(line.split(": ", 1) for line in last if ": " in line)
        expected = {f"r2_{k}": r for k, r in zip(keys, r2_dof)} | {"r2_global": r2_all}
        for name, value in expected.items():
            bad += name not in values or abs(float(values[name]) - value) > ref.VALUE_TOL * max(
                1.0, abs(value))
        bad += f"test_windows: {self.windows}\n" not in report
        bad += f"test_blocks: {self.blocks}\n" not in report
        bad += rec.stdout["evaluate"] != report
        return int(bad)

    def figures(self, records):
        evaluate_s = statistics.median(r.steps["evaluate"] for r in records)
        pipeline_s = statistics.median(r.wall_s for r in records)
        per_s = 2 * self.windows / evaluate_s
        lines = [
            ("pipeline_s", pipeline_s, "s", f"median of {len(records)} passes"),
            ("eval_windows_per_s", per_s, "1/s",
             f"2 sizes x {self.windows} windows over a median evaluate step of {evaluate_s:.4f} s"),
        ]
        pass_ref_s = sum(median_ref(records, [step]) for step in records[0].steps)
        per_ref_s = 2 * self.windows / median_ref(records, ["evaluate"])
        return lines, {"pass_ref_s": pass_ref_s, "items_per_ref_s": per_ref_s,
                       "median_pass_s": pipeline_s}


class TrainSweep(CliWorkload):
    """Training from disk: train, learning-curve, inspect-model on one C=32 CSV."""

    name = "train-sweep"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.per_action = _scaled(3000, scale, 4)
        rows = 6 * self.per_action
        self.sizes = sorted({_scaled(rows * f, 1) for f in (1 / 30, 1 / 10, 3 / 10, 1)})
        self.samples_per_pass = rows + sum(self.sizes)

    def prepare(self):
        """Writes the 32-channel, three-DOF training CSV the commands read."""
        mixing = synthetic.default_mixing_model(
            n_channels=32, dofs=DOFS_3, noise_sigma=0.1, seed=self.seed
        )
        samples = synthetic.generate_training_set(mixing, self.per_action)
        ds = datasets.from_training_samples(samples, mixing.n_channels, source="bench")
        datasets.save_feature_dataset(ds, self.path("train.csv"))

    def commands(self):
        data, model = self.path("train.csv"), self.path("model.json")
        return [
            ("train", ["train", "--data", data, "--out", model], ["model.json"]),
            ("learning-curve", [
                "learning-curve", "--data", data, "--sizes", *map(str, self.sizes),
                "--out", self.path("curve.csv"),
            ], ["curve.csv"]),
            ("inspect-model", ["inspect-model", "--model", model], []),
        ]

    def check_outputs(self, rec):
        data = self.path("train.csv")
        bad = {"train": self._check_model(self.path("model.json"), data)}
        try:
            feats, angles = ref.load_feature_csv(data)
            with open(self.path("curve.csv")) as fh:
                rows = [line.split(",") for line in fh.read().splitlines()]
            doc = ref.load_model_doc(self.path("model.json"))
        except (OSError, ValueError):
            return {**bad, "learning-curve": 1, "inspect-model": 1}
        expected = ref.prefix_overlaps(feats, angles, self.sizes)
        header, body = rows[0], rows[1:]
        curve_bad = header != ["samples"] + [f"overlap_{k}" for k in sorted(expected)]
        curve_bad += [int(r[0]) for r in body] != self.sizes
        for j, key in enumerate(sorted(expected), start=1):
            got = np.array([float(r[j]) for r in body])
            curve_bad += got.shape != (len(self.sizes),) or not np.allclose(
                got, expected[key], rtol=0, atol=ref.VALUE_TOL)
        bad["learning-curve"] = int(curve_bad)
        text = rec.stdout["inspect-model"]
        bad["inspect-model"] = int(("channels: 32\n" not in text) + sum(
            f"  overlap: {entry['overlap']!r}\n" not in text for entry in doc["dofs"].values()))
        return bad

    def figures(self, records):
        sweep_s = statistics.median(r.wall_s for r in records)
        train_s = statistics.median(r.steps["train"] + r.steps["learning-curve"] for r in records)
        per_s = self.samples_per_pass / train_s
        lines = [
            ("train_sweep_s", sweep_s, "s", f"median of {len(records)} passes"),
            ("train_samples_per_s", per_s, "1/s",
             f"{self.samples_per_pass} samples into operators.train over a median "
             f"{train_s:.4f} s of train + learning-curve"),
        ]
        pass_ref_s = sum(median_ref(records, [step]) for step in records[0].steps)
        per_ref_s = self.samples_per_pass / median_ref(records, ["train", "learning-curve"])
        return lines, {"pass_ref_s": pass_ref_s, "items_per_ref_s": per_ref_s,
                       "median_pass_s": sweep_s}


def _segments():
    """Signed-angle patterns of the raw recording: every single-DOF direction,
    each DOF pair with equal and opposite signs, four three-DOF mixes and
    one silent segment (all-zero signal, so the zero-signal path runs)."""
    d1, d2, d3 = DOFS_3
    singles = [{dof: sign * 30.0} for dof in DOFS_3 for sign in (1.0, -1.0)]
    pairs = [{a: 25.0, b: sign * 25.0} for a, b in ((d1, d2), (d1, d3), (d2, d3))
             for sign in (1.0, -1.0)]
    triples = [{d1: s1 * 20.0, d2: s2 * 20.0, d3: s3 * 20.0}
               for s1, s2, s3 in ((1, 1, 1), (-1, 1, -1), (1, -1, 1), (-1, -1, -1))]
    return singles + pairs + triples + [{}]


class StreamDecode:
    """An online controller decoding one 100 ms raw window at a time."""

    name = "stream-decode"
    sample_rate = 1024.0
    window_ms = 100.0
    segment_s = 2.0
    parts = 4  # a pass's windows are timed in this many consecutive parts

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.per_action = _scaled(1000, scale, 4)
        self.windows_per_pass = _scaled(20000, scale, 100)

    def prepare(self):
        """Trains the 16-channel, three-DOF model and builds the raw recording."""
        mixing = synthetic.default_mixing_model(
            n_channels=16, dofs=DOFS_3, noise_sigma=0.1, seed=self.seed
        )
        samples = synthetic.generate_training_set(mixing, self.per_action)
        self.model = operators.train(samples, mixing.n_channels)
        parts = [
            synthetic.generate_raw_emg(
                mixing, angles, self.segment_s, self.sample_rate,
                rng=np.random.default_rng([self.seed, 7, k]),
            ).samples
            for k, angles in enumerate(_segments())
        ]
        self.samples = np.concatenate(parts)
        self.window_len = int(self.window_ms * self.sample_rate / 1000.0)
        n = len(self.samples) // self.window_len
        self.starts = [(i % n) * self.window_len for i in range(self.windows_per_pass)]
        windows = self.samples[: n * self.window_len].reshape(n, self.window_len, -1)
        params, rest = ref.model_params(operators.model_to_dict(self.model))
        want, residuals, ambiguous = ref.decode(np.abs(windows).mean(axis=1), params, rest)
        cycle = np.arange(self.windows_per_pass) % n
        self.want, self.want_residuals, self.ambiguous = (
            want[cycle], residuals[cycle], ambiguous[cycle])
        self.dof_order = self.model.sorted_dofs()

    def before_pass(self):
        pass

    def run_pass(self, calibrate_steps=True):
        rec = PassRecord()
        rec.latencies = latencies = np.empty(len(self.starts))
        rec.actions = actions = []
        model, samples, width, rate = self.model, self.samples, self.window_len, self.sample_rate
        recording, window_ms = features.EmgRecording, self.window_ms
        after = rec.cal_slices = calibrate.block() if calibrate_steps else []
        bounds = np.linspace(0, len(self.starts), self.parts + 1).astype(int)
        for part, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            before = after
            start = clock()
            for i in range(lo, hi):
                s = self.starts[i]
                t0 = clock()
                try:
                    window = features.segment_windows(
                        recording(samples[s:s + width], rate), window_ms)
                    action = control.decode_features(features.mav(window[0]), model)
                except Exception:
                    action = None
                latencies[i] = clock() - t0
                actions.append(action)
            step = f"decode-{part}"
            rec.steps[step] = clock() - start
            if calibrate_steps:
                after = calibrate.block()
                rec.cal_slices = rec.cal_slices + after
                rec.ref_steps[step] = calibrate.to_reference(rec.steps[step], before, after)
        rec.wall_s = sum(rec.steps.values())
        return rec

    def verify(self, rec, first, detailed):
        """Every window of every pass is compared with the reference decode."""
        n = len(rec.actions)
        got = np.full((n, len(self.dof_order)), np.nan)
        residuals = np.full((n, 3), np.nan)
        for i, action in enumerate(rec.actions):
            if action is None:
                continue
            got[i] = [action.per_dof[dof].signed_angle() for dof in self.dof_order]
            if action.residual_activations is not None:
                residuals[i] = [action.residual_activations[dof] for dof in DOFS_3]
        wrong = ~(np.abs(got - self.want) <= ref.ANGLE_TOL).all(axis=1) & ~self.ambiguous
        res_ok = np.isclose(residuals, self.want_residuals, rtol=0, atol=ref.VALUE_TOL,
                            equal_nan=True)
        wrong |= ~res_ok.all(axis=1) & ~self.ambiguous
        raised = np.array([a is None for a in rec.actions], dtype=bool)
        rec.digest = hashlib.sha256(got.tobytes() + residuals.tobytes()).hexdigest()
        rec.attempted = n
        rec.mismatches = int((wrong & ~raised).sum())
        rec.failed = int((wrong | raised).sum())
        if first is not None and first.digest != rec.digest:
            rec.failed = max(rec.failed, 1)
        rec.actions = None

    def figures(self, records):
        lat = np.concatenate([r.latencies for r in records]) * 1e6
        p50, p99 = np.percentile(lat, [50, 99])
        per_s = float(1e6 * len(lat) / lat.sum())
        pass_s = statistics.median(r.wall_s for r in records)
        lines = [
            ("stream_p50_us", float(p50), "us", f"{len(lat)} windows"),
            ("stream_p99_us", float(p99), "us", f"{len(lat)} windows, {len(lat) // 100} beyond"),
            ("stream_windows_per_s", per_s, "1/s", "windows over summed slice-to-decision time"),
        ]
        pass_ref_s = sum(median_ref(records, [step]) for step in records[0].steps)
        return lines, {"pass_ref_s": pass_ref_s, "items_per_ref_s": len(self.starts) / pass_ref_s,
                       "median_pass_s": pass_s}


WORKLOADS = {w.name: w for w in (CliPipeline, StreamDecode, TrainSweep)}
