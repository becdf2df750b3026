"""CLI harness: flags, config files, exits, CSV schema, dump round-trips."""

import hashlib
import importlib.util
import math
import re
import signal
import subprocess
import sys
import types
from pathlib import Path

import jet_reference
import numpy as np
import pytest

from heislab.cli import (
    EXPERIMENTS,
    GENERATORS,
    OPTIONS,
    RUN_OPTIONS,
    OptionError,
    _fmt,
    _near_contact_pairs,
    bind_options,
    coerce,
    dump_family,
    load_family,
    main,
    parse_delta_exps,
    read_config,
    reads,
)
from heislab.families import build_bush, build_clamshell, net_tubes, parabolic_net_spec
from heislab.projection import PlanePoint
from heislab.quadratics import PLANAR_DOMAIN, Quadratic, delta_gauge, tau
from heislab.tubes import tubes_from_params


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


def test_dump_parabolic_net_refuses_its_default_rung(tmp_path, capsys, monkeypatch):
    # delta = 2^-8 would build 344,107,452 tube objects
    from heislab import families

    built = []
    monkeypatch.setattr(families, "HTube", lambda *a: built.append(a))
    out = tmp_path / "net.csv"
    assert main(["dump", "parabolic-net", "--out", str(out)]) == 1
    assert "344107452 tubes" in capsys.readouterr().err
    assert not out.exists()
    assert built == []


def test_dump_parabolic_net_keeps_its_bytes_at_rung_three(tmp_path):
    out = tmp_path / "net.csv"
    assert main(["dump", "parabolic-net", "--delta-exps", "3", "--out", str(out)]) == 0
    digest = "ff826923284487b6728bee44778f2bc51c1593aa00315b4461cfdf5577941c42"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    t1, t2 = net_tubes(parabolic_net_spec(2.0 ** -3))
    assert load_family(str(out)) == t1 + t2


@pytest.mark.parametrize("header, rows, line", [
    ("x,y,t,a,b,delta", ["0,0,0,1,0,0.5", "0,0,0,1,0,0.5,7"], 3),
    ("x,y,t,a,b,delta", ["0,0,0,1,0"], 2),
    ("a,b,c", ["1,2"], 2),
    ("a,b,c", ["1,2,3", "1,2,3", "1,2,3,4"], 4),
    ("a,b,c,lo,hi,delta", ["1,2,3,0,1"], 2),
])
def test_load_family_rejects_rows_whose_length_differs_from_the_header(tmp_path, header,
                                                                        rows, line):
    # a seventh tube field was dropped; a short row raised IndexError or TypeError
    path = tmp_path / "family.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}, line {line}: "):
        load_family(str(path))


def test_load_family_rejects_an_empty_file(tmp_path):
    # it raised IndexError
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="unknown schema"):
        load_family(str(path))


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


def test_quick_batch_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma costs 11-18 ms to import, paid by every fresh run that loads it
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "sys.path[:0] = sys.argv[1:3]\n"
        "import run_all_experiments as batch\n"
        "from heislab.cli import main\n"
        "codes = [main(['run', name, '--seed', '0', '--out', f'{sys.argv[3]}/{name}.csv',\n"
        "               *batch.QUICK_ARGS.get(name, [])]) for name in batch.EXPERIMENTS]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "src"), str(root / "scripts"), str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{[0] * len(EXPERIMENTS)} False"


class _FakeChild:
    """Stands in for an experiment's process; `os.wait4` reports its end."""

    pid = 4242
    returncode = None

    def __init__(self, cmd):
        self.cmd = cmd

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


# wait statuses as os.wait4 returns them: a normal exit with code c is
# c << 8, and a death by signal s without a core dump is s itself
@pytest.mark.parametrize("status, code", [(0, 0), (2 << 8, 2), (signal.SIGSEGV, 1),
                                          (signal.SIGKILL, 1)])
def test_batch_script_exit_status(status, code, tmp_path, monkeypatch, capsys):
    script = _load_script(Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py")
    # the second experiment ends with `status`, every other one exits 0
    statuses = iter([0, status] + [0] * len(EXPERIMENTS))
    usage = types.SimpleNamespace(ru_maxrss=1024)
    monkeypatch.setattr(script.subprocess, "Popen", _FakeChild)
    monkeypatch.setattr(script.os, "wait4", lambda pid, options: (pid, next(statuses), usage))
    monkeypatch.setattr(sys, "argv", ["run_all_experiments.py", "--outdir", str(tmp_path)])
    assert script.main() == code
    assert ("exit" in capsys.readouterr().out) == (code != 0)


def test_benchmark_workload_flags_are_read():
    root = Path(__file__).resolve().parents[1]
    workloads = _load_script(root / "perfbench" / "workloads.py")
    for workload in workloads.WORKLOADS.values():
        for name, args in workload.experiments:
            keys = [a[2:] for a in args if a.startswith("--")]
            assert set(keys) <= set(reads(EXPERIMENTS[name])), name


def _near_contact_draws(seed, k, n):
    """The draws of `_near_contact_pairs` in their documented order, from
    default_rng([seed, k]): F's rows, theta0, v / delta, u and w."""
    rng = np.random.default_rng([seed, k])
    F = rng.normal(scale=1.0, size=(n, 3))
    theta0, v = rng.uniform(-0.625, 0.625, n), rng.uniform(-0.5, 0.5, n)
    u = np.where(rng.integers(0, 2, n), 1.0, -1.0) * 10.0 ** rng.uniform(-4.0, 0.3, n)
    w = np.where(rng.integers(0, 2, n), 1.0, -1.0) * 10.0 ** rng.uniform(-4.0, 0.5, n)
    return F, theta0, v, u, w


@pytest.mark.parametrize("seed, k", [(0, 6), (3, 7), (11, 10)])
def test_near_contact_pairs_equal_from_jet_bit_for_bit(seed, k):
    # each G row is Quadratic.from_jet of F's jet at theta0 plus the drawn
    # (v, u, w), computed on Python floats, to the bit
    d, n = 2.0 ** -k, 2000
    F, G, theta0 = _near_contact_pairs(np.random.default_rng([seed, k]), d, n)
    F0, theta00, v, u, w = _near_contact_draws(seed, k, n)
    assert F.tobytes() == F0.tobytes() and theta0.tobytes() == theta00.tobytes()
    rows = zip(F.tolist(), theta0.tolist(), (v * d).tolist(), u.tolist(), w.tolist())
    for g, (f, th, vi, ui, wi) in zip(G.tolist(), rows):
        f = Quadratic(*f)
        jet = Quadratic.from_jet(th, f(th) + vi, f.deriv(th) + ui, f.a + wi)
        assert (jet.a, jet.b, jet.c) == tuple(g)
        # and the pair approaches within delta/2 at theta0
        assert abs(f(th) - Quadratic(*g)(th)) <= 0.5 * d + 1e-15


def test_near_contact_pairs_same_seed_same_rows():
    a = _near_contact_pairs(np.random.default_rng([5, 6]), 2.0 ** -6, 500)
    b = _near_contact_pairs(np.random.default_rng([5, 6]), 2.0 ** -6, 500)
    c = _near_contact_pairs(np.random.default_rng([6, 6]), 2.0 ** -6, 500)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
    assert not any(x.tobytes() == y.tobytes() for x, y in zip(a, c))
    # rows, not pairs: F is drawn first, so a shorter rung's F is a prefix of
    # a longer one's, and its theta0 is not
    short = _near_contact_pairs(np.random.default_rng([5, 6]), 2.0 ** -6, 100)
    assert short[0].tobytes() == a[0][:100].tobytes()
    assert short[2].tobytes() != a[2][:100].tobytes()


def _rect_row_by_pairs(seed, k, samples):
    """A lemma-rect-structure row from the same drawn pairs, pair by pair,
    with the scalar near-intersection oracle and scalar gauges."""
    d = 2.0 ** -k
    F, G, theta0 = _near_contact_pairs(np.random.default_rng([seed, k]), d, samples)
    window = PLANAR_DOMAIN.shrink(4.0)
    max_pieces, max_factor, min_factor = 0, 0.0, math.inf
    for f, g, th in zip(F.tolist(), G.tolist(), theta0.tolist()):
        f, g = Quadratic(*f), Quadratic(*g)
        pieces = jet_reference.near_intersection_intervals(f, g, d, window)
        max_pieces = max(max_pieces, len(pieces))
        x = d / math.sqrt((tau(f, g) + d) * (delta_gauge(f, g) + d))
        for piece in pieces:
            max_factor = max(max_factor, piece.length / x)
        home = [p for p in pieces if p.contains(th, slack=1e-12)]
        if home:
            min_factor = min(min_factor, home[0].length / x)
    return [d, samples, max_pieces, max_factor, min_factor]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rect_rows_equal_pair_by_pair_oracle(tmp_path, seed):
    out = tmp_path / "rect.csv"
    args = ["--delta-exps", "5..7", "--samples", "1500", "--seed", str(seed)]
    assert main(["run", "lemma-rect-structure", *args, "--out", str(out)]) == 0
    want = [",".join(_fmt(v) for v in _rect_row_by_pairs(seed, k, 1500)) for k in (5, 6, 7)]
    assert out.read_text().splitlines()[1:] == want


def test_rect_factor_detail_covers_every_rung(tmp_path):
    # at seed 3 the larger max_len_factor is the second rung's
    out = tmp_path / "rect.csv"
    args = ["--delta-exps", "6..7", "--seed", "3", "--out", str(out)]
    assert main(["run", "lemma-rect-structure", *args]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 2
    lo, hi = min(float(r[4]) for r in rows), max(float(r[3]) for r in rows)
    manifest = (tmp_path / "rect.csv.manifest").read_text()
    assert f"(factors [{lo:.4f}, {hi:.4f}])" in manifest
    # the rungs differ, so the first one alone would not give both ends
    assert (float(rows[0][4]), float(rows[0][3])) != (lo, hi)


@pytest.mark.parametrize("samples", ["10", "19"])
def test_projection_containment_rejects_fewer_samples_than_tubes(tmp_path, capsys, samples):
    # 20 tubes per rung: fewer samples would leave no point per tube
    out = tmp_path / "p.csv"
    assert main(["run", "projection-containment", "--samples", samples, "--out", str(out)]) == 2
    assert "--samples >= 20" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("exps", ["204", "203..204", "270"])
def test_projection_containment_rejects_rungs_past_exact_dilation(
    tmp_path, capsys, monkeypatch, exps
):
    # past delta = 2^-203 the sampler's delta^4 test multiplies subnormal floats;
    # at 2^-270 it underflowed and the experiment reported a ratio of 7.5e148;
    # the precision bound k <= 20 now rejects these rungs before any draw
    from heislab import cli

    drawn = []
    monkeypatch.setattr(cli, "tube_draws", lambda *a: drawn.append(a))
    monkeypatch.setattr(cli, "_random_tubes", lambda *a: drawn.append(a))
    out = tmp_path / "p.csv"
    args = ["run", "projection-containment", "--delta-exps", exps, "--samples", "20",
            "--out", str(out)]
    assert main(args) == 2
    assert "--delta-exps <= 20," in capsys.readouterr().err
    assert not out.exists()
    assert drawn == []


@pytest.mark.parametrize("exps", ["21", "4..21", "29..31"])
def test_projection_containment_rejects_rungs_past_float_precision(tmp_path, capsys, exps):
    # past delta = 2^-20 one ulp of a unit coordinate is more than 2^-12 of
    # delta^2: at --samples 20, k = 29, 30 and 31 reported ratios of 8.0, 32.0
    # and 128.0, false failures made of rounding
    out = tmp_path / "p.csv"
    args = ["run", "projection-containment", "--delta-exps", exps, "--samples", "20",
            "--out", str(out)]
    assert main(args) == 2
    assert f"--delta-exps <= 20, got {exps}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("res", ["0.51", "5", "1e300"])
def test_opposed_pair_scaling_refuses_a_grid_res_above_one_half(tmp_path, capsys, res):
    # every spacing above 1/2 rounds to a 2 x 2 grid whose integrals read 0:
    # --grid-res 5 ended in the slope fit's "nonpositive value 0.0", exit 1
    out = tmp_path / "o.csv"
    assert main(["run", "opposed-pair-scaling", "--grid-res", res, "--out", str(out)]) == 2
    assert "--grid-res in (0, 1/2]" in capsys.readouterr().err
    assert not out.exists()


def test_opposed_pair_scaling_rows_are_the_curve_integral_at_the_set_grid_res(tmp_path):
    from heislab.families import build_opposed_pair
    from heislab.integrals import bilinear_curve_integral

    out = tmp_path / "o.csv"
    argv = ["run", "opposed-pair-scaling", "--delta-exps", "4..6", "--grid-res", "0.002",
            "--out", str(out)]
    assert main(argv) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == ["delta"] * 3 + ["rho"] * 4
    for sweep, d, rho, lhs in rows:
        pair = build_opposed_pair(float(d), float(rho))
        est = bilinear_curve_integral(list(pair.F), list(pair.G), float(d), 0.75, 0.002)
        assert lhs == repr(est.value)
        # 0.002 is a 500 x 500 grid; the default, delta / 4, is finer
        assert est.samples == 500 * 500


def test_projection_containment_takes_the_last_exact_rung():
    # the last rung whose ratio measures geometry, not rounding
    rows = EXPERIMENTS["projection-containment"](delta_exps=[20], samples=20, seed=0).rows
    assert [d for d, _ in rows] == [2.0 ** -20]
    assert 0.0 < rows[0][1] <= 8.0


def test_fiber_length_kernel_calls_hold_at_most_a_block(monkeypatch):
    # the block bound keeps the rows' temporaries, and so the peak memory of
    # a run, as small as with one kernel call per sample
    from heislab import _bulk, cli, projection

    calls, batches = [], []
    kernel, fiber = _bulk.core_distance_elementwise, cli.fiber_length
    monkeypatch.setattr(_bulk, "core_distance_elementwise",
                        lambda *f: calls.append(len(f[0])) or kernel(*f))
    monkeypatch.setattr(cli, "fiber_length", lambda *a: batches.append(a) or fiber(*a))
    EXPERIMENTS["fiber-length"](delta_exps=[5, 6], samples=200, seed=0)
    blocks, calls[:] = list(calls), []
    # each sample's rows, from its one-row call
    for tubes, w, res in batches:
        for tube, (theta, height) in zip(tubes_from_params(tubes), w.tolist()):
            fiber(tube, PlanePoint(theta, height), res)
    assert len(batches) == 2 and len(calls) == 400
    assert 2 < len(blocks) < len(calls)
    assert max(blocks) <= projection.FIBER_BLOCK <= _bulk.CULL_CHUNK
    assert sum(blocks) == sum(calls)


def test_projection_containment_makes_one_ratio_call_per_tube(monkeypatch):
    from heislab import cli

    calls = []
    ratio = cli.projection_containment_ratio
    monkeypatch.setattr(cli, "projection_containment_ratio",
                        lambda tube, s, z: calls.append(len(s)) or ratio(tube, s, z))
    EXPERIMENTS["projection-containment"](delta_exps=[4, 5], samples=400, seed=0)
    assert calls == [20] * 40


def test_projection_containment_draws_once_per_tube_index(monkeypatch):
    # one tube set from [seed] serves every rung, and tube i reads stream
    # [seed, i, 17]: its unit draws serve all rungs
    from heislab import cli

    tube_sets, draws, calls = [], [], []
    random_tubes, tube_draws = cli._random_tubes, cli.tube_draws
    ratio = cli.projection_containment_ratio
    monkeypatch.setattr(cli, "_random_tubes",
                        lambda *a: tube_sets.append(a[1:]) or random_tubes(*a))
    monkeypatch.setattr(cli, "tube_draws",
                        lambda *a: draws.append(a) or tube_draws(*a))
    monkeypatch.setattr(cli, "projection_containment_ratio",
                        lambda tube, s, z: calls.append(len(s)) or ratio(tube, s, z))
    EXPERIMENTS["projection-containment"](delta_exps=range(4, 9), samples=400, seed=3)
    assert tube_sets == [(2.0 ** -4, 20, 0.5)]
    assert draws == [(1.0, 20, (3, i)) for i in range(20)]
    assert calls == [20] * 100


def test_projection_containment_measures_every_sample(monkeypatch):
    # 39 = 20 * 1 + 19: the first 19 tubes take one point more
    from heislab import cli

    calls = []
    ratio = cli.projection_containment_ratio
    monkeypatch.setattr(cli, "projection_containment_ratio",
                        lambda tube, s, z: calls.append(len(s)) or ratio(tube, s, z))
    EXPERIMENTS["projection-containment"](delta_exps=[4], samples=39, seed=0)
    assert calls == [2] * 19 + [1]
    assert sum(calls) == 39


def test_projection_containment_reports_the_exact_ratio_at_every_rung():
    from heislab import cli, projection

    got = EXPERIMENTS["projection-containment"](seed=5)
    params = cli._random_tubes(np.random.default_rng([5]), 2.0 ** -4, 20, 0.5)
    worst = float(projection.exact_containment_ratio(params[3], params[4]).max())
    assert got.rows == [[2.0 ** -k, worst] for k in range(4, 9)]
    assert abs(got.extras["ratio_slope"]) < 1e-12
    assert 0.9 < got.extras["sampled_over_exact"] <= 1.0


def test_projection_containment_cross_check_fails_on_a_lowered_bound(tmp_path, monkeypatch):
    # at half the exact ratio every tube's samples break the bound; the
    # witness is the first tube at the first rung
    from heislab import cli, projection

    exact = projection.exact_containment_ratio
    monkeypatch.setattr(cli, "exact_containment_ratio", lambda a, b: 0.5 * exact(a, b))
    out = tmp_path / "p.csv"
    assert main(["run", "projection-containment", "--out", str(out)]) == 1
    params = cli._random_tubes(np.random.default_rng([0]), 2.0 ** -4, 20, 0.5)
    tube = tubes_from_params(params)[0]
    s, z = cli.tube_draws(1.0, 250, (0, 0))
    sampled = projection.projection_containment_ratio(tube, s, cli._bulk.dilate(2.0 ** -4, z))
    bound = 0.5 * float(exact(params[3], params[4])[0])
    manifest = (tmp_path / "p.csv.manifest").read_text()
    assert (f"check [FAIL] sampled ratio <= exact ratio + rounding margin "
            f"(tube 0 at delta 0.0625: sampled {sampled!r} > exact {bound!r})") in manifest
    assert "check [PASS] max vertical distance" in manifest


def test_projection_containment_checks_pass_on_seeds_0_to_199():
    run = EXPERIMENTS["projection-containment"]
    failed = [seed for seed in range(200) if not all(ok for _, ok, _ in run(seed=seed).checks)]
    assert failed == []


def test_bush_section_check_fails_when_one_section_end_moves(tmp_path, monkeypatch, capsys):
    from heislab import _bulk

    sections = _bulk.tube_sections

    def moved(x, y, center, dir_a, dir_b, delta):
        lo, hi = sections(x, y, center, dir_a, dir_b, delta)
        hi[..., 0] += delta[0] ** 2  # the upper end of the first tube's section
        return lo, hi

    out = tmp_path / "bush.csv"
    args = ["run", "bush-refutes-naive", "--delta-exps", "4..5", "--samples", "6000",
            "--out", str(out)]
    assert main(args) == 0
    assert "[PASS] t-sections hold as many tubes as the kernel counts" in capsys.readouterr().out
    monkeypatch.setattr(_bulk, "tube_sections", moved)
    assert main(args) == 1
    manifest = (tmp_path / "bush.csv.manifest").read_text()
    line = next(l for l in manifest.splitlines() if "t-sections" in l)
    assert line.startswith("check [FAIL]")
    assert "delta=0.0625 column (" in line and " t=" in line and "the kernel counts" in line
