"""CLI harness: flags, config files, exits, CSV schema, dump round-trips."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from heislab.cli import (
    EXPERIMENTS,
    GENERATORS,
    OPTIONS,
    RUN_OPTIONS,
    OptionError,
    bind_options,
    coerce,
    dump_family,
    load_family,
    main,
    parse_delta_exps,
    read_config,
    reads,
)
from heislab.families import build_bush, build_clamshell


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "heislab.cli", *args],
        capture_output=True,
        text=True,
    )


def test_parse_delta_exps():
    assert parse_delta_exps("4..8") == [4, 5, 6, 7, 8]
    assert parse_delta_exps("6") == [6]
    with pytest.raises(ValueError):
        parse_delta_exps("8..4")
    with pytest.raises(ValueError):
        parse_delta_exps("4..6..8")


def test_registry_has_all_experiments():
    assert set(EXPERIMENTS) == {
        "bush-refutes-naive",
        "opposed-pair-scaling",
        "bipartite-ball-sharpness",
        "clamshell-alpha",
        "parabolic-net-p23",
        "projection-containment",
        "fiber-length",
        "lemma-rect-structure",
        "wolff-bound-check",
        "broadness-scan",
    }


def test_unknown_experiment_exits_2():
    proc = run_cli("run", "no-such-thing")
    assert proc.returncode == 2
    assert "unknown experiment" in proc.stderr


def test_config_file_roundtrip(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("seed = 11\nrho = 0.5  # comment\n\n# full-line comment\n")
    cfg = read_config(str(cfg_path))
    assert cfg == {"seed": "11", "rho": "0.5"}


def test_config_rejects_unknown_key(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("nonsense = 3\n")
    with pytest.raises(ValueError, match="nonsense"):
        read_config(str(cfg_path))
    proc = run_cli("run", "fiber-length", "--config", str(cfg_path))
    assert proc.returncode == 2


def test_cli_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("samples = 50\nseed = 3\n")
    out = tmp_path / "fiber.csv"
    code = main(
        [
            "run",
            "fiber-length",
            "--config",
            str(cfg_path),
            "--samples",
            "20",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    manifest = (tmp_path / "fiber.csv.manifest").read_text()
    assert "param samples = 20" in manifest
    assert "param seed = 3" in manifest


def test_experiment_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "rect.csv"
    code = main(["run", "lemma-rect-structure", "--samples", "500", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,n_cases,max_pieces,max_len_factor,min_len_factor"
    assert len(lines) == 2
    manifest = (tmp_path / "rect.csv.manifest").read_text()
    assert "check [PASS]" in manifest
    assert "timestamp" in manifest


def test_csv_bodies_reproducible(tmp_path):
    # byte-identity holds regardless of whether the in-experiment trend
    # checks pass at these tiny sample counts
    args = ["run", "projection-containment", "--delta-exps", "4..6",
            "--samples", "5000", "--seed", "13"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) in (0, 1)
    assert main(args + ["--out", str(b)]) in (0, 1)
    assert a.read_bytes() == b.read_bytes()


def test_csv_bodies_worker_invariant(tmp_path):
    args = ["run", "bush-refutes-naive", "--delta-exps", "4..5",
            "--samples", "20000", "--seed", "5"]
    a, b = tmp_path / "w1.csv", tmp_path / "w4.csv"
    assert main(args + ["--workers", "1", "--out", str(a)]) == 0
    assert main(args + ["--workers", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_dump_bush_roundtrip(tmp_path):
    out = tmp_path / "bush.csv"
    files = dump_family("bush", {"delta-exps": "8"}, str(out))
    assert files == [str(out)]
    t1, t2 = build_bush(2.0 ** -8)
    assert load_family(str(out)) == t1 + t2
    assert out.read_text().splitlines()[0] == "x,y,t,a,b,delta"


def test_dump_clamshell_roundtrip(tmp_path):
    out = tmp_path / "clam.csv"
    cfg = {"delta-exps": "8", "t": 2.0 ** -4, "mu": 16, "nu": 4, "n": 256}
    files = dump_family("clamshell", cfg, str(out))
    assert len(files) == 2
    F, G, R = build_clamshell(2.0 ** -8, 2.0 ** -4, 16, 4, 256)
    assert load_family(files[0]) == F + G
    assert load_family(files[1]) == R


def test_dump_infeasible_parameters_exit(tmp_path):
    proc = run_cli(
        "dump", "clamshell", "--delta-exps", "8", "--n", "255",
        "--out", str(tmp_path / "x.csv"),
    )
    assert proc.returncode == 1
    assert "divisible" in proc.stderr


def test_dump_unknown_generator_exit(tmp_path):
    proc = run_cli("dump", "nonsense", "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2


def test_console_entry_runs():
    proc = run_cli("run", "fiber-length", "--samples", "30", "--out", "/tmp/_cli_fiber.csv")
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout


@pytest.mark.parametrize(
    "flags",
    [
        ["--samples", "0"],
        ["--rho", "0"],
        ["--grid-res", "0"],
        ["--t", "-0.5"],
        ["--workers", "0"],
        ["--alpha", "nan"],
        ["--seed", "-1"],
    ],
)
def test_nonpositive_option_flag_exits_2(tmp_path, capsys, flags):
    out = tmp_path / "x.csv"
    assert main(["run", "lemma-rect-structure", *flags, "--out", str(out)]) == 2
    assert flags[0][2:] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["samples = 0", "rho = -1", "seed = -3", "n = 0"])
def test_nonpositive_option_config_exits_2(tmp_path, line):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(line + "\n")
    out = tmp_path / "x.csv"
    assert main(["run", "lemma-rect-structure", "--config", str(cfg_path),
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_coerce_types_and_zero_seed():
    cfg = coerce({"seed": "0", "samples": "7", "rho": "0.5", "out": "x.csv", "alpha": None})
    assert cfg == {"seed": 0, "samples": 7, "rho": 0.5, "out": "x.csv", "alpha": None}


def test_removed_p_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "clamshell-alpha", "--p", "0.5", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_config_rejects_p_key(tmp_path):
    cfg_path = tmp_path / "p.cfg"
    cfg_path.write_text("p = 0.5\n")
    with pytest.raises(ValueError, match="unknown key 'p'"):
        read_config(str(cfg_path))


def test_unknown_generator_message_lists_every_generator(tmp_path, capsys):
    assert main(["dump", "nonsense", "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert len(GENERATORS) == 5
    for name in ("bush", "opposed-pair", "bipartite-balls", "clamshell", "parabolic-net"):
        assert name in GENERATORS
        assert name in err


def test_batch_script_quick_table_names_registered_experiments():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"
    spec = importlib.util.spec_from_file_location("run_all_experiments", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.EXPERIMENTS is EXPERIMENTS
    assert set(script.QUICK_ARGS) <= set(EXPERIMENTS)
    assert all(script.QUICK_ARGS.values())


# --- every option has a reader ---------------------------------------------

# a valid value for every option that is not a run option
OPTION_VALUES = {
    "delta-exps": "5",
    "rho": "0.5",
    "alpha": "0.3",
    "mu": "4",
    "nu": "2",
    "n": "16",
    "t": "0.25",
    "samples": "10",
    "grid-res": "0.01",
}

UNREAD_RUN_PAIRS = [
    (name, key)
    for name, fn in EXPERIMENTS.items()
    for key in OPTION_VALUES
    if key not in reads(fn)
]

UNREAD_DUMP_PAIRS = [
    (gen, key)
    for gen, make in GENERATORS.items()
    for key in ("rho", "mu", "nu", "n", "t")
    if key not in reads(make)
]


def _load_script(path):
    # registered first: a dataclass module must be importable while it runs
    spec = importlib.util.spec_from_file_location(f"_heislab_test_{path.stem}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_option_has_a_reader():
    read = {key for fn in EXPERIMENTS.values() for key in reads(fn)}
    assert read <= set(OPTIONS)
    assert read | set(RUN_OPTIONS) == set(OPTIONS)


@pytest.mark.parametrize("name,key", UNREAD_RUN_PAIRS)
def test_run_rejects_unread_option(tmp_path, capsys, name, key):
    out = tmp_path / "x.csv"
    assert main(["run", name, f"--{key}", OPTION_VALUES[key], "--out", str(out)]) == 2
    assert f"--{key}" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_unread_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "w.cfg"
    cfg_path.write_text("samples = 5\nseed = 2\n")
    out = tmp_path / "x.csv"
    code = main(["run", "wolff-bound-check", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--samples" in err and "--seed" not in err.split(";")[0]
    assert not out.exists()


def test_wolff_repro_names_every_unread_flag(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["run", "wolff-bound-check", "--delta-exps", "9", "--samples", "5",
            "--alpha", "3", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    for flag in ("--delta-exps", "--samples", "--alpha"):
        assert flag in err
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_run_options_accepted_by_every_experiment(name):
    fn = EXPERIMENTS[name]
    kwargs = bind_options(name, fn, {"seed": 4, "workers": 2, "out": "x.csv"}, RUN_OPTIONS)
    assert sorted(kwargs) == sorted(k.replace("-", "_") for k in reads(fn))


@pytest.mark.parametrize("gen,key", UNREAD_DUMP_PAIRS)
def test_dump_rejects_unread_option(tmp_path, capsys, gen, key):
    out = tmp_path / "x.csv"
    assert main(["dump", gen, f"--{key}", OPTION_VALUES[key], "--out", str(out)]) == 2
    assert f"--{key}" in capsys.readouterr().err
    assert not out.exists()


def test_dump_bush_rho_exits_2(tmp_path):
    proc = run_cli("dump", "bush", "--rho", "0.5", "--out", str(tmp_path / "b.csv"))
    assert proc.returncode == 2
    assert "--rho" in proc.stderr
    assert not (tmp_path / "b.csv").exists()


def test_dump_family_rejects_unread_option(tmp_path):
    with pytest.raises(OptionError, match="--rho"):
        dump_family("bush", {"delta-exps": "8", "rho": 0.5}, str(tmp_path / "b.csv"))
    assert not (tmp_path / "b.csv").exists()


def test_descending_ladder_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert main(["run", "fiber-length", "--delta-exps", "8..4", "--out", str(out)]) == 2
    assert "descending" in capsys.readouterr().err
    assert not out.exists()


# --- ladder range and one-delta consumers ----------------------------------


@pytest.mark.parametrize("text", ["0", "0..5", "-2", "-3..4"])
def test_parse_delta_exps_rejects_exponents_below_one(text):
    with pytest.raises(ValueError, match=">= 1"):
        parse_delta_exps(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "opposed-pair-scaling", "--delta-exps", "0..5"],
        ["run", "fiber-length", "--delta-exps", "-2"],
        ["dump", "bush", "--delta-exps", "0"],
    ],
)
def test_ladder_below_one_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert "delta-exps" in capsys.readouterr().err
    assert not out.exists()


def test_coerce_parses_ladders():
    assert coerce({"delta-exps": "4..6"}) == {"delta-exps": [4, 5, 6]}
    assert coerce({"delta-exps": [7]}) == {"delta-exps": [7]}
    with pytest.raises(ValueError, match="descending"):
        coerce({"delta-exps": "6..4"})


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--samples", "abc"], "samples must be an integer, got 'abc'"),
        (["--rho", "1e"], "rho must be a number, got '1e'"),
        (["--delta-exps", "4..x"], "bad delta-exps '4..x'"),
    ],
)
def test_unparsable_flag_names_option_and_value(tmp_path, capsys, flags, message):
    out = tmp_path / "f.csv"
    assert main(["run", "fiber-length", *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_unparsable_config_key_names_option_and_value(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("samples = abc\n")
    out = tmp_path / "f.csv"
    assert main(["run", "fiber-length", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "samples must be an integer, got 'abc'" in capsys.readouterr().err
    assert not out.exists()


def test_clamshell_alpha_rejects_a_multi_rung_ladder(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["run", "clamshell-alpha", "--delta-exps", "6..8", "--out", str(out)]) == 1
    assert "6..8" in capsys.readouterr().err
    assert not out.exists()


def test_dump_rejects_a_multi_rung_ladder(tmp_path):
    out = tmp_path / "b.csv"
    with pytest.raises(ValueError, match="4..8"):
        dump_family("bush", {"delta-exps": "4..8"}, str(out))
    proc = run_cli("dump", "bush", "--delta-exps", "4..8", "--out", str(out))
    assert proc.returncode == 1
    assert "4..8" in proc.stderr
    assert not out.exists()


# --- honest manifest --------------------------------------------------------


def _params(manifest: Path) -> dict:
    lines = manifest.read_text().splitlines()
    return dict(line[len("param "):].split(" = ", 1) for line in lines if line.startswith("param "))


@pytest.mark.parametrize(
    "name,flags,expected",
    [
        ("opposed-pair-scaling", ["--delta-exps", "4..6", "--seed", "3", "--workers", "2"],
         {"delta-exps": "4..6", "rho": "1.0"}),
        ("fiber-length", ["--samples", "20", "--seed", "3"],
         {"delta-exps": "6", "samples": "20", "seed": "3"}),
        ("clamshell-alpha", ["--delta-exps", "6", "--t", "0.25", "--n", "32", "--alpha", "0.7"],
         {"delta-exps": "6", "t": "0.25", "mu": "16", "nu": "4", "n": "32", "alpha": "0.7"}),
        ("wolff-bound-check", ["--n", "16"],
         {"rho": "0.25", "t": "0.0625", "mu": "16", "nu": "4", "n": "16", "seed": "0"}),
    ],
)
def test_manifest_params_reproduce_the_csv(tmp_path, name, flags, expected):
    first = tmp_path / "first.csv"
    assert main(["run", name, *flags, "--out", str(first)]) == 0
    params = _params(tmp_path / "first.csv.manifest")
    assert params == expected
    assert set(params) <= set(reads(EXPERIMENTS[name]))

    cfg_path = tmp_path / "params.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in params.items()))
    again = tmp_path / "again.csv"
    assert main(["run", name, "--config", str(cfg_path), "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()
    assert _params(tmp_path / "again.csv.manifest") == params


# --- callers pass only options that are read -------------------------------


def test_batch_script_quick_flags_are_read():
    root = Path(__file__).resolve().parents[1]
    script = _load_script(root / "scripts" / "run_all_experiments.py")
    for name, args in script.QUICK_ARGS.items():
        keys = [a[2:] for a in args if a.startswith("--")]
        assert set(keys) <= set(reads(EXPERIMENTS[name])), name


def test_benchmark_workload_flags_are_read():
    root = Path(__file__).resolve().parents[1]
    workloads = _load_script(root / "perfbench" / "workloads.py")
    for workload in workloads.WORKLOADS.values():
        for name, args in workload.experiments:
            keys = [a[2:] for a in args if a.startswith("--")]
            assert set(keys) <= set(reads(EXPERIMENTS[name])), name
