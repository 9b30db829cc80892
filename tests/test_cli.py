import json

import numpy as np
import pytest

from platevem import generators
from platevem.cli import (
    EXIT_CONFIG,
    EXIT_MESH,
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
] + [("rigidity", "1e308")]  # finite, but the Young modulus overflows


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

    for name in ("build_family", "build_criss_cross", "nonconvex_octagonal_mesh"):
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
