import argparse
import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from platevem import generators
from platevem.cli import (
    _COMMANDS,
    EXIT_ASSEMBLY,
    EXIT_CONFIG,
    EXIT_MESH,
    _build_parser,
    main,
)


def test_mesh_command_writes_file(tmp_path):
    out = tmp_path / "mesh.json"
    code = main(["mesh", "--family", "crisscross", "--n", "0", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["cells"]) == 100
    assert len(data["vertices"]) == 61


def test_mesh_command_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    base = ["mesh", "--family", "randomquad", "--n", "0", "--seed", "7"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_mesh_missing_option_is_config_error(tmp_path, capsys):
    code = main(["mesh", "--family", "crisscross", "--out", str(tmp_path / "x.json")])
    assert code == EXIT_CONFIG
    assert "missing required option" in capsys.readouterr().err


def test_mesh_bad_notch_is_mesh_error(tmp_path):
    code = main(
        [
            "mesh",
            "--family",
            "octagonal",
            "--n",
            "0",
            "--notch",
            "0.9",
            "--out",
            str(tmp_path / "x.json"),
        ]
    )
    assert code == EXIT_MESH


def test_bad_poisson_is_config_error(tmp_path):
    code = main(
        [
            "solve",
            "--family",
            "crisscross",
            "--n",
            "0",
            "--order",
            "2",
            "--poisson",
            "0.7",
            "--out",
            str(tmp_path / "x.json"),
        ]
    )
    assert code == EXIT_CONFIG


def test_solve_command(tmp_path):
    out = tmp_path / "solution.json"
    code = main(
        [
            "solve",
            "--family",
            "randomquad",
            "--n",
            "0",
            "--order",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["n_dofs"] == 96
    assert len(data["dofs"]) == 96
    assert 0 < data["error_2h"] < 1.5
    assert data["nnz_factor"] > 0
    assert 1e-12 < data["pivot_ratio"] <= 1.0
    assert data["refine_steps"] in range(4)


def test_solve_dump_matrix_is_the_full_matrix(tmp_path):
    """``--dump-matrix`` writes the matrix over all unknowns, constrained
    ones included: its largest row and column index is ``n_dofs - 1``."""
    out = tmp_path / "solution.json"
    dump = tmp_path / "matrix.txt"
    argv = ["solve", "--family", "crisscross", "--n", "0", "--order", "2"]
    assert main(argv + ["--dump-matrix", str(dump), "--out", str(out)]) == 0
    n_dofs = json.loads(out.read_text())["n_dofs"]
    entries = np.loadtxt(dump)
    rows, cols = entries[:, 0].astype(int), entries[:, 1].astype(int)
    assert rows.max() == cols.max() == n_dofs - 1
    assert set(rows) == set(range(n_dofs))


def test_study_command_rates(tmp_path):
    out = tmp_path / "study.csv"
    code = main(
        [
            "study",
            "--family",
            "crisscross",
            "--order",
            "2",
            "--nmax",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "family,n,h,ndof,error2h,rate_h,rate_dof"
    assert len(lines) == 4
    last_rate = float(lines[-1].split(",")[5])
    assert 0.6 <= last_rate <= 1.4


@pytest.mark.parametrize(
    "order, nmax", [("2", "9"), ("5", "5"), ("2", "-1")], ids=["nmax9", "order5-nmax5", "nmax-1"]
)
def test_study_range_is_config_error(tmp_path, capsys, order, nmax):
    out = tmp_path / "study.csv"
    argv = ["study", "--family", "crisscross", "--order", order, "--nmax", nmax]
    code = main(argv + ["--out", str(out)])
    assert code == EXIT_CONFIG
    assert "n_max out of range" in capsys.readouterr().err
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


NUMERIC_FLAGS = [
    (flag, value)
    for flag in ("seed", "rigidity", "poisson", "notch")
    for value in ("-1", "0", "nan", "inf")
] + [
    ("poisson", "1e200"),  # finite, but outside [0, 0.5)
    ("rigidity", "1e-310"),  # subnormal: digits lost
    ("rigidity", "1e-323"),  # subnormal: the load underflows to 0
]


@pytest.mark.parametrize("flag, value", NUMERIC_FLAGS, ids=[f"{f}={v}" for f, v in NUMERIC_FLAGS])
def test_numeric_flag_range(tmp_path, capsys, flag, value):
    """Each numeric flag is rejected before any mesh is built (exit 2, no
    file) unless its value is admissible; a seed or Poisson ratio of 0 is."""
    if flag == "notch":
        argv = ["mesh", "--family", "octagonal", "--n", "0"]
    else:
        argv = ["solve", "--family", "randomquad", "--n", "0", "--order", "2"]
    out = tmp_path / "out.json"
    try:
        code = main(argv + [f"--{flag}", value, "--out", str(out)])
    except SystemExit as exc:  # argparse rejects a seed that is no integer
        code = exc.code
    if (flag, value) in {("seed", "0"), ("poisson", "0")}:
        assert code == 0
        assert out.exists()
    else:
        assert code == EXIT_CONFIG
        assert f"--{flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


NEGATIVE_N = [
    ["mesh", "--family", "crisscross"],
    ["solve", "--family", "crisscross", "--order", "2"],
    ["patch", "--family", "crisscross", "--order", "2"],
    ["morley-compare"],
]


@pytest.mark.parametrize("argv", NEGATIVE_N, ids=[a[0] for a in NEGATIVE_N])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_n_is_config_error(tmp_path, capsys, argv, source):
    """A negative refinement index, as a flag or a config key, exits 2
    before any mesh is built and writes no output file."""
    out = tmp_path / "out" / "x.json"
    if source == "flag":
        extra = ["--n", "-2"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = -2\n")
        extra = ["--config", str(cfg)]
    code = main(argv + extra + ["--out", str(out)])
    assert code == EXIT_CONFIG
    assert "--n must be a nonnegative integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", NEGATIVE_N, ids=[a[0] for a in NEGATIVE_N])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value", ["9", str(10**9)])
def test_n_above_largest_refinement_is_config_error(
    tmp_path, capsys, monkeypatch, argv, source, value
):
    """A refinement index above 8, the largest a study accepts, exits 2
    before any mesh is built. Mesh generation is replaced by a failure,
    so a missing check cannot start building a huge mesh."""

    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built for a rejected --n")

    for name in ("build_family", "nonconvex_octagonal_mesh"):
        monkeypatch.setattr(generators, name, no_mesh)
    out = tmp_path / "out" / "x.json"
    if source == "flag":
        extra = ["--n", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = {value}\n")
        extra = ["--config", str(cfg)]
    code = main(argv + extra + ["--out", str(out)])
    assert code == EXIT_CONFIG
    assert f"--n must be a nonnegative integer at most 8, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


FAMILY_ARGV = [
    ["mesh", "--n", "0"],
    ["solve", "--n", "0", "--order", "2"],
    ["study", "--nmax", "0", "--order", "2"],
    ["patch", "--n", "0", "--order", "2"],
]


@pytest.mark.parametrize("argv", FAMILY_ARGV, ids=[a[0] for a in FAMILY_ARGV])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_unknown_family_is_config_error(tmp_path, capsys, argv, source):
    """An unknown mesh family, as a flag or a config key, exits 2 before
    any mesh is built and writes no output file."""
    out = tmp_path / "out" / "x.json"
    if source == "flag":
        with pytest.raises(SystemExit) as exc:  # argparse checks the choices
            main(argv + ["--family", "foo", "--out", str(out)])
        code = exc.value.code
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = foo\n")
        code = main(argv + ["--config", str(cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--family" in err and "foo" in err
    assert not (tmp_path / "out").exists()


def test_quad_degree_option_rejected(tmp_path, capsys):
    argv = ["solve", "--family", "hexagonal", "--n", "0", "--order", "3"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--quad-degree", "-3", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == EXIT_CONFIG
    assert "--quad-degree" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("quad_degree = 12\n")
    code = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "x.json")])
    assert code == EXIT_CONFIG
    assert "unknown config key 'quad_degree'" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


BAD_CONFIG_FILES = [
    (["mesh"], "config = nonexistent.cfg\nfamily = crisscross\nn = 0\n", ":1: config files do not nest"),
    (["mesh"], "family = crisscross\nn = 0\n\nn = 1\n", ": key 'n' on lines 2 and 4"),
    (
        ["solve", "--family", "crisscross", "--n", "0", "--order", "2"],
        "dump-matrix = a.txt\n# the same key\ndump_matrix = b.txt\n",
        ": key 'dump_matrix' on lines 1 and 3",
    ),
]


@pytest.mark.parametrize(
    "argv, text, message", BAD_CONFIG_FILES, ids=["nested", "repeated", "repeated-spelling"]
)
def test_bad_config_file_is_config_error(tmp_path, capsys, monkeypatch, argv, text, message):
    """A ``config`` key inside a config file (files do not nest) or a key
    given twice, in either spelling, exits 2 before any work, naming the
    line or lines, where either used to be ignored."""
    monkeypatch.setenv("PLATEVEM_OUTDIR", str(tmp_path / "out"))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    assert main(argv + ["--config", str(cfg)]) == EXIT_CONFIG
    assert f"{cfg}{message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_file_not_utf8_is_config_error(tmp_path, capsys, monkeypatch):
    """A config file that is not UTF-8 text exits 2 naming the file, where
    the decoding error used to escape ``main`` with a traceback."""
    monkeypatch.setenv("PLATEVEM_OUTDIR", str(tmp_path / "out"))
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"family = crisscross\nn = 0\n\xff\xfe = 1\n")
    assert main(["mesh", "--config", str(cfg)]) == EXIT_CONFIG
    assert f"cannot read config file {cfg}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SOLVE_OPTIONS = {"config", "family", "order", "poisson", "rigidity", "seed", "out"}
COMMAND_OPTIONS = {
    "mesh": {"config", "family", "seed", "out", "n", "notch"},
    "solve": SOLVE_OPTIONS | {"n", "dump_matrix"},
    "study": SOLVE_OPTIONS | {"nmax", "plot_data"},
    "patch": SOLVE_OPTIONS | {"n"},
    "morley-compare": {"config", "poisson", "rigidity", "out", "n"},
}


def test_each_command_takes_the_options_it_reads():
    """Each subparser takes exactly the options of its row in the command
    table: the options its handler reads."""
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(_COMMANDS) == set(COMMAND_OPTIONS)
    for name, options in COMMAND_OPTIONS.items():
        taken = {a.dest for a in sub.choices[name]._actions} - {"help"}
        assert taken == set(_COMMANDS[name].options) == options, name
    assert [len(o) for o in COMMAND_OPTIONS.values()] == [6, 9, 9, 8, 5]


DROPPED = [
    ("mesh", ["--family", "crisscross", "--n", "0"], "poisson", "0.2"),
    ("mesh", ["--family", "crisscross", "--n", "0"], "rigidity", "5"),
    ("morley-compare", ["--n", "0"], "seed", "5"),
    ("morley-compare", ["--n", "0"], "family", "crisscross"),
]


@pytest.mark.parametrize(
    "command, argv, flag, value", DROPPED, ids=[f"{c}-{f}" for c, _, f, _ in DROPPED]
)
def test_flags_a_command_does_not_read_are_rejected(tmp_path, capsys, command, argv, flag, value):
    """A flag the command never reads exits 2, as a flag or a config key,
    and writes nothing."""
    out = ["--out", str(tmp_path / "x.json")]
    with pytest.raises(SystemExit) as exc:
        main([command] + argv + [f"--{flag}", value] + out)
    assert exc.value.code == EXIT_CONFIG
    assert f"--{flag}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag} = {value}\n")
    assert main([command] + argv + ["--config", str(cfg)] + out) == EXIT_CONFIG
    assert f"unknown config key {flag!r}" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("command", ["solve", "patch"])
def test_order_outside_two_to_five_is_config_error(tmp_path, capsys, command):
    argv = [command, "--family", "crisscross", "--n", "0", "--out", str(tmp_path / "x.json")]
    with pytest.raises(SystemExit) as exc:  # argparse checks the choices
        main(argv + ["--order", "6"])
    assert exc.value.code == EXIT_CONFIG
    assert "--order" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("order = 1\n")
    assert main(argv + ["--config", str(cfg)]) == EXIT_CONFIG
    assert "--order must be one of 2, 3, 4, 5, got 1" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("family", ["crisscross", "hexagonal", "randomquad"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_notch_outside_octagonal_is_config_error(tmp_path, capsys, monkeypatch, family, source):
    """``--notch`` shapes only the octagonal family; for another family it
    exits 2 before any mesh is built."""

    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built for a rejected --notch")

    for name in ("build_family", "nonconvex_octagonal_mesh"):
        monkeypatch.setattr(generators, name, no_mesh)
    if source == "flag":
        extra = ["--notch", "0.3"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("notch = 0.3\n")
        extra = ["--config", str(cfg)]
    out = tmp_path / "out" / "x.json"
    code = main(["mesh", "--family", family, "--n", "0"] + extra + ["--out", str(out)])
    assert code == EXIT_CONFIG
    assert f"--notch applies to the octagonal family only, not {family}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_one_row_study_prints_no_rate(tmp_path, capsys):
    """A study of one refinement has no rate to fit: it prints NaN, the
    value of the CSV's rate columns on that row, and NumPy warns nothing."""
    out = tmp_path / "study.csv"
    argv = ["study", "--family", "crisscross", "--order", "2", "--nmax", "0", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert capsys.readouterr().out.endswith(": 1 rows, rate vs h nan, vs unknowns nan\n")
    assert out.read_text().splitlines()[1].endswith(",nan,nan")


def test_patch_command(tmp_path):
    out = tmp_path / "patch.json"
    code = main(
        [
            "patch",
            "--family",
            "octagonal",
            "--order",
            "3",
            "--n",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["max_error"] <= 1e-8


SOLVE_AND_PATCH = {
    "solve": ["solve", "--family", "crisscross", "--n", "0", "--order", "2"],
    "patch": ["patch", "--family", "hexagonal", "--n", "0", "--order", "3"],
}


def test_tiny_rigidity_gives_the_default_answers(tmp_path):
    """The rigidity scales the stiffness and the loads alike, so a rigidity
    whose squared loads underflow gives the default run's error and
    consistency."""
    results = {}
    for rigidity in ("1", "1e-200"):
        for command, argv in SOLVE_AND_PATCH.items():
            out = tmp_path / f"{command}_{rigidity}.json"
            assert main(argv + ["--rigidity", rigidity, "--out", str(out)]) == 0
            results[command, rigidity] = json.loads(out.read_text())
    want = results["solve", "1"]["error_2h"]
    assert results["solve", "1e-200"]["error_2h"] == pytest.approx(want, rel=1e-12)
    assert results["patch", "1e-200"]["max_error"] <= 1e-8


@pytest.mark.parametrize("command", sorted(SOLVE_AND_PATCH))
def test_overflowing_stiffness_is_assembly_error(tmp_path, capsys, command):
    """A rigidity that is finite but whose stiffness overflows exits 4,
    naming the matrix, and writes nothing."""
    argv = SOLVE_AND_PATCH[command] + ["--rigidity", "1e308", "--out", str(tmp_path / "x.json")]
    assert main(argv) == EXIT_ASSEMBLY
    assert "stiffness matrix has non-finite entries" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_morley_compare_command(tmp_path):
    out = tmp_path / "cmp.json"
    code = main(["morley-compare", "--n", "0", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["max_relative_discrepancy"] <= 1e-9


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = crisscross\nn = 0\n")
    out = tmp_path / "mesh.json"
    code = main(["mesh", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_config_file_flag_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = crisscross\nn = 1\n")
    out = tmp_path / "mesh.json"
    code = main(["mesh", "--config", str(cfg), "--n", "0", "--out", str(out)])
    assert code == 0
    assert len(json.loads(out.read_text())["cells"]) == 100


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense = 1\n")
    code = main(["mesh", "--config", str(cfg), "--family", "crisscross", "--n", "0"])
    assert code == EXIT_CONFIG


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PLATEVEM_OUTDIR", str(tmp_path))
    code = main(["mesh", "--family", "crisscross", "--n", "0"])
    assert code == 0
    assert (tmp_path / "crisscross_n0.json").exists()


def test_every_output_path_resolves_under_outdir(tmp_path, monkeypatch):
    """``--out``, ``--dump-matrix`` and ``--plot-data`` follow one rule: a
    relative path lands under ``PLATEVEM_OUTDIR``, whose missing
    directories are created, and an absolute path stays as given."""
    outdir = tmp_path / "new" / "dir"
    monkeypatch.setenv("PLATEVEM_OUTDIR", str(outdir))
    monkeypatch.chdir(tmp_path)
    assert main(["mesh", "--family", "crisscross", "--n", "0", "--out", "m.json"]) == 0
    assert (outdir / "m.json").exists()
    solve = ["solve", "--family", "crisscross", "--n", "0", "--order", "2"]
    assert main(solve + ["--dump-matrix", "sub/matrix.txt"]) == 0
    assert (outdir / "sub" / "matrix.txt").exists()
    assert (outdir / "solution_crisscross_n0_o2.json").exists()
    study = ["study", "--family", "crisscross", "--order", "2", "--nmax", "1"]
    assert main(study + ["--plot-data", "plots/rate.dat", "--out", "runs/study.csv"]) == 0
    assert len((outdir / "plots" / "rate.dat").read_text().splitlines()) == 2
    assert (outdir / "runs" / "study.csv").exists()
    absolute = tmp_path / "abs" / "m.json"
    assert main(["mesh", "--family", "crisscross", "--n", "0", "--out", str(absolute)]) == 0
    assert absolute.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["abs", "new"]


def test_output_paths_without_outdir(tmp_path, monkeypatch):
    """Without ``PLATEVEM_OUTDIR`` relative paths resolve under the current
    directory, their parents created the same way."""
    monkeypatch.delenv("PLATEVEM_OUTDIR", raising=False)
    monkeypatch.chdir(tmp_path)
    solve = ["solve", "--family", "crisscross", "--n", "0", "--order", "2"]
    assert main(solve + ["--dump-matrix", "a/matrix.txt", "--out", "b/solution.json"]) == 0
    assert (tmp_path / "a" / "matrix.txt").exists()
    assert (tmp_path / "b" / "solution.json").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    """The fenced Python block under README's "Library use" heading runs
    as written and prints the error of its solve."""
    section = README.read_text().split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    assert 0.0 < float(capsys.readouterr().out) < 1.0


def test_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    """Every ``platevem`` line of the code block under README's "Command
    line" heading runs as written and exits 0, writing under
    ``PLATEVEM_OUTDIR``."""
    monkeypatch.setenv("PLATEVEM_OUTDIR", str(tmp_path))
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("platevem ")]
    commands = [shlex.split(line)[1:] for line in lines]
    assert [argv[0] for argv in commands] == ["mesh", "solve", "study", "patch", "morley-compare"]
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.startswith(f"wrote {tmp_path}")
    outputs = {argv[argv.index("--out") + 1] for argv in commands}
    assert {p.name for p in tmp_path.iterdir()} == outputs
