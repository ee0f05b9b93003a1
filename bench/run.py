"""qmyo benchmark: one workload per run, end-to-end metrics or a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload cli-pipeline --seed 1 --seconds 50 --trace 0

Workloads are ``cli-pipeline``, ``stream-decode`` and ``train-sweep`` (see
``workloads.py``). BENCHMARK.json lists the first two, whose runs fit
its time budget; ``train-sweep``, the workload that shows training
changes, is run by name. The run builds its inputs from ``--seed``, sets
up three times (each set-up followed by one warm-up pass), then repeats
timed passes for ``--seconds`` seconds in one process and one thread
(BLAS and OpenMP pinned to one thread). Every pass's outputs are checked.

Timings that are end-to-end metrics are in reference seconds: each timed
part is bracketed by blocks of a fixed calibration kernel and divided by
the host speed they measure (see ``calibrate.py``), because load from
elsewhere on a shared host swings raw times by up to 2x for longer than a
run. With ``--trace 0`` the last line of standard output is a JSON object
whose metrics are the end-to-end ones: ``setup_s`` (the import plus the
median of the set-ups, warm-up pass included), ``pass_ref_s`` (the sum
over a pass's parts of each part's median), ``items_per_ref_s`` (the
workload's unit of work per reference second) and ``peak_rss_mb``. Lines
before it give the figures in seconds as measured, under per-workload
names, and the host speed. With ``--trace 1`` untraced
and traced passes alternate, and the metrics are the per-layer ones of
``layers.py`` (medians over traced passes) with the tracing overhead, the
traced minus the untraced median pass; spans are written to
``.bench_out/spans-<workload>.npz``.

``--scale`` shrinks every input size, for the benchmark's own tests.
Exit status is 2, with no result line, when qmyo cannot be imported from
``src/``.
"""

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-pipeline", "stream-decode", "train-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if not (args.seconds > 0 and 0 < args.scale <= 1):
        parser.error("--seconds must be > 0 and --scale in (0, 1]")
    return args


def metadata(seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
        ),
    }


def git_commit():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, seconds, first, tracer=None, on_traced=None):
    """Run passes until ``seconds`` have elapsed, verifying each outside its timing.

    With a tracer, untraced and traced passes alternate, so both see the
    same machine load and their difference is the tracing overhead; each
    traced pass is one pass span, and ``on_traced`` receives the calls it
    kept. Returns the untraced and the traced pass records.
    """
    untraced, traced = [], []
    until = time.perf_counter() + seconds
    while True:
        for records in (untraced, traced) if tracer else (untraced,):
            workload.before_pass()
            if records is traced:
                tracer.install()
                tracer.begin_pass()
                try:
                    rec = workload.run_pass(calibrate_steps=False)
                finally:
                    kept = tracer.end_pass()
                    tracer.uninstall()
                on_traced(kept)
            else:
                rec = workload.run_pass()
            workload.verify(rec, first, detailed=not records)
            records.append(rec)
        if time.perf_counter() >= until:
            return untraced, traced


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import qmyo.cli  # noqa: F401  (timed as part of set-up)
    except ImportError as exc:
        print(f"bench: cannot import qmyo from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import calibrate
    import layers
    import workloads
    from spans import Tracer

    import_s = time.perf_counter() - t0
    last_block = calibrate.block()
    import_ref_s = calibrate.to_reference(import_s, last_block, last_block)

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale, workdir)
    try:
        # A set-up is the prepare step, timed between the calibration block
        # before it and the warm-up pass's first block, plus the warm-up pass.
        prepare_s, setups_ref, warmup = [], [], []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.prepare()
            prepare_s.append(time.perf_counter() - t)
            workload.before_pass()
            rec = workload.run_pass()
            first_block = rec.cal_slices[:calibrate.SLICES]
            setups_ref.append(calibrate.to_reference(prepare_s[-1], last_block, first_block)
                              + sum(rec.ref_steps.values()))
            last_block = rec.cal_slices[-calibrate.SLICES:]
            workload.verify(rec, warmup[0] if warmup else None, detailed=not warmup)
            warmup.append(rec)
        setup_s = import_ref_s + statistics.median(setups_ref)

        traced = []
        unreadable = set()
        tracer = Tracer(layers.TARGETS) if args.trace else None
        records, traced_records = measure(
            workload, args.seconds, warmup[0], tracer,
            lambda kept: traced.append(layers.pass_metrics(tracer, len(traced), kept, unreadable)),
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = warmup + records + traced_records
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    mismatches = sum(r.mismatches for r in everything)

    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("meta " + json.dumps(metadata(args.seed)))
    print(f"setup_s = {setup_s!r} s (reference; as measured: import {import_s:.4f} + median "
          f"of {SETUP_REPEATS} set-ups {statistics.median(prepare_s):.4f} + warm-up pass "
          f"{statistics.median(r.wall_s for r in warmup):.4f})")
    lines, generic = workload.figures(records)
    for name, value, unit, note in lines:
        print(f"{name} = {value!r} {unit} ({note})")
    print(f"pass_ref_s = {generic['pass_ref_s']!r} s (reference; median pass "
          f"{generic['median_pass_s']:.4f} s as measured)")
    print(f"items_per_ref_s = {generic['items_per_ref_s']!r} 1/s (reference)")
    slices = [x for r in warmup + records for x in r.cal_slices]
    print(f"host: calibration slice median {statistics.median(slices):.6f} s, fastest "
          f"{min(slices):.6f} s, reference {calibrate.REF_SLICE_S} s ({len(slices)} slices)")
    print(f"peak_rss_mb = {peak_rss_mb!r} MB")
    print("passes " + json.dumps([{"wall_s": r.wall_s, **r.steps, "ref": r.ref_steps}
                                  for r in records]))
    print(f"failed_ratio = {failed / attempted!r} ({failed} failed / {attempted} attempted, "
          f"{mismatches} reference mismatches)")

    if args.trace:
        per_layer = layers.median_metrics(traced)
        traced_pass = per_layer["bench.pass.total_s"]
        per_layer["bench.trace_overhead_s"] = traced_pass - generic["median_pass_s"]
        print(f"trace: {len(traced)} traced passes alternating with {len(records)} untraced; "
              f"overhead {per_layer['bench.trace_overhead_s']!r} s per pass "
              f"({traced_pass!r} traced - {generic['median_pass_s']!r} untraced, medians)")
        shares = [sum(v for k, v in p.items() if k.endswith(".self_s")) / p["bench.pass.total_s"]
                  for p in traced]
        print(f"trace: self times of all layers sum to {min(shares)!r} .. {max(shares)!r} "
              f"of each traced pass's time")
        if tracer.absent or unreadable:
            print(f"trace: absent {tracer.absent}, unreadable {sorted(unreadable)}")
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
        metrics = {name: {"value": per_layer.get(name, 0), "unit": unit}
                   for name, unit in layers.PER_LAYER}
    else:
        values = {"setup_s": setup_s, **generic, "peak_rss_mb": peak_rss_mb}
        units = {"setup_s": "s", "pass_ref_s": "s", "items_per_ref_s": "1/s",
                 "peak_rss_mb": "MB"}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
