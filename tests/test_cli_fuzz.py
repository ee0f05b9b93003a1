"""Drawn argument lists: every command ends in a documented exit code.

Each case builds one subcommand's argv from its real flags with drawn
values (non-finite, negative, zero, empty lists, repeats, missing and
directory paths, both modes at once) and runs it in-process through
``main()`` on small files. It must exit 0, 1, 2 or 3 without an
uncaught exception, and a non-zero exit must end in one ``qmyo`` line.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qmyo.cli import main
from qmyo.features import save_recording
from qmyo.synthetic import generate_raw_emg, orthogonal_mixing_model

# Drawn values: mostly valid, so runs get past argument parsing, else odd.
ODD_NUMBERS = ["nan", "inf", "-inf", "-1", "0", "1e-9", "1e300"]
ODD_COUNTS = ["nan", "inf", "-1", "0", "1.5"]
ODD_LISTS = [[], ["0"], ["3", "3"], ["5", "2"], ["d1", "d1"], ["d4"], [""]]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "out").mkdir()
    (root / "dir").mkdir()
    paths = {name: str(root / name) for name in ("tr.csv", "te.csv", "m.json", "raw.csv")}
    assert main(["synth", "--train-out", paths["tr.csv"], "--test-out", paths["te.csv"],
                 "--per-action", "5", "--blocks", "3", "--windows", "12", "--seed", "1"]) == 0
    assert main(["train", "--data", paths["tr.csv"], "--out", paths["m.json"]]) == 0
    mixing = orthogonal_mixing_model(seed=1)
    save_recording(generate_raw_emg(mixing, {mixing.dofs[0]: 20.0}, 0.3), paths["raw.csv"])
    (root / "settings.cfg").write_text("seed = 2\nrest_threshold = 0.01\n")
    paths.update(cfg=str(root / "settings.cfg"), dir=str(root / "dir"),
                 missing=str(root / "missing.csv"), out=str(root / "out"))
    return paths


def _mostly(valid, odd):
    """A draw from ``valid`` seven times in eight, else from ``odd``."""
    return st.integers(0, 7).flatmap(lambda k: st.sampled_from(valid if k else odd))


def _flags(files):
    """Each subcommand's required, mode and optional flags: name -> token-list strategy."""
    def token(valid, odd):
        return _mostly(valid, odd).map(lambda v: [v])

    def number(*valid):
        return token(valid, ODD_NUMBERS)

    def count(*valid):  # bounded, so no run grows large
        return token(valid, ODD_COUNTS)

    def listed(*valid):
        return _mostly([list(v) for v in valid], ODD_LISTS)

    odd_paths = [files["missing"], files["dir"], f"{files['missing']}/x.csv"]

    def read(name):
        return token([files[name]], odd_paths)

    def write(name):
        return token([f"{files['out']}/{name}"], odd_paths)

    dofs = listed(["d1"], ["d3", "d1"], ["d1", "d2", "d3"], ["d2"])
    sizes = listed(["2"], ["2", "4"], ["1", "3", "5"])
    thresholds = {
        "--config": read("cfg"),
        "--rest-threshold": number("0", "0.01", "0.5"),
        "--overlap-epsilon": number("1e-9", "0.5"),
    }
    vote = {"--block-vote": token(["majority", "any", "all"], ["most"])}  # decode has none
    return {
        "synth": ({"--train-out": write("a.csv"), "--test-out": write("b.csv"),
                   "--per-action": count("2", "5"), "--blocks": count("3", "5"),
                   "--windows": count("6", "12")},
                  {},
                  {"--channels": count("8", "12"), "--dofs": dofs, "--seed": count("1", "7"),
                   "--noise-sigma": number("0", "0.1", "2"), "--angle-min": number("1", "5"),
                   "--angle-max": number("40", "90"), "--config": read("cfg"),
                   "--geometry": token(["masking", "orthogonal"], ["x"])}),
        "train": ({"--data": read("tr.csv"), "--out": write("m.json")},
                  {},
                  {"--dofs": dofs, "--size": count("1", "3"), **thresholds, **vote}),
        "decode": ({"--model": read("m.json"), "--out": write("d.csv")},
                   {"--data": read("te.csv"), "--raw": read("raw.csv")},
                   {"--sample-rate": number("1024", "200"), "--window-ms": number("50", "300"),
                    **thresholds}),
        "evaluate": ({"--test": read("te.csv")},
                     {"--model": read("m.json"), "--train-data": read("tr.csv")},
                     {"--sizes": sizes, "--dofs": dofs, "--seed": count("1", "7"),
                      "--report-out": write("r.txt"), "--csv-out": write("r.csv"),
                      "--decode-out": write("d.csv"), **thresholds, **vote}),
        "learning-curve": ({"--data": read("tr.csv"), "--sizes": sizes},
                           {},
                           {"--dofs": dofs, "--out": write("c.csv")}),
        "inspect-model": ({"--model": read("m.json")}, {}, {}),
    }


@st.composite
def argvs(draw, files, command):
    """Required flags, one mode (rarely none or both), and optional flags, maybe repeated."""
    required, modes, optional = _flags(files)[command]
    names = list(required)
    if modes:
        names += draw(_mostly([[mode] for mode in modes], [[], list(modes)]))
    if optional:
        names += draw(st.lists(st.sampled_from(sorted(optional)), max_size=4))
    flags = {**required, **modes, **optional}
    argv = [command]
    for name in draw(st.permutations(names)):
        argv += [name, *draw(flags[name])]
    return argv


@pytest.mark.parametrize("command", ["synth", "train", "decode", "evaluate",
                                     "learning-curve", "inspect-model"])
def test_drawn_argv_ends_in_a_documented_exit_code(files, command):
    @settings(max_examples=25, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=argvs(files, command))
    def check(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, code)
        if code:
            lines = err.getvalue().splitlines()
            named = [line for line in lines if line.startswith("qmyo")]
            assert len(named) == 1 and lines[-1] == named[0], (argv, lines)
            assert "Traceback" not in err.getvalue()

    check()
