"""CLI harness: flags, config files, exits, CSV schema, dump round-trips."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from heislab.cli import (
    EXPERIMENTS,
    GENERATORS,
    coerce,
    dump_family,
    load_family,
    main,
    parse_delta_exps,
    read_config,
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
