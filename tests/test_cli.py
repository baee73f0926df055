import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vqcomm import runner
from vqcomm.autodiff import ShapeError
from vqcomm.cli import main
from vqcomm.config import config_from_dict, parse_assignments
from vqcomm.quantizer import Codebook, QuantizerConfig, load_codebook, nearest_indices, save_codebook


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(argv, stdin_text=None):
    # the child does not inherit this process's sys.path, so it gets src explicitly
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "vqcomm.cli", *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
    )


def test_bounds_subcommand_defaults():
    result = _run(["bounds"])
    assert result.returncode == 0
    assert "0.052300497" in result.stdout


def test_run_with_overrides_writes_files(tmp_path):
    out = tmp_path / "toy"
    rc = main(
        [
            "run",
            "adding",
            "--set", "task.seq_len=5",
            "--set", "task.train_gap=3",
            "--set", "task.val_gap=2",
            "--set", "task.test_gap=4",
            "--set", "task.train_count=12",
            "--set", "task.eval_count=6",
            "--set", "training.epochs=1",
            "--set", "training.batch_size=6",
            "--set", "model.hidden=8",
            "--set", "model.modules=2",
            "--set", "model.k=1",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert (tmp_path / "toy.json").exists()
    assert (tmp_path / "toy_epochs.csv").exists()
    assert (tmp_path / "toy_metrics.csv").exists()


def test_run_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "kind=bounds\n"
        "quantizer.G=15\n"
        "quantizer.L=30\n"
        "task.bound_n=10000\n"
        "task.delta=0.05\n"
    )
    out = tmp_path / "b"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    header, row = (tmp_path / "b_bounds.csv").read_text().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["bound_with"]) - 0.05230049721515383) < 1e-12


def test_config_error_exit_code_2(capsys):
    assert main(["run", "nonsense"]) == 2
    assert main(["run", "adding", "--set", "quantizer.bogus=1"]) == 2
    assert main(["run", "adding", "--config", "/does/not/exist.cfg"]) == 2


def test_hoeffding_subcommand():
    result = _run(["hoeffding", "--n", "200", "--trials", "3", "--L", "4", "--G", "2"])
    assert result.returncode == 0
    assert "violation_rate" in result.stdout


def test_gaussian_subcommand(tmp_path):
    rc = main(["gaussian", "--m", "4", "--L", "1,4", "--G", "1,2", "--samples", "32", "--trials", "2", "--out", str(tmp_path / "g")])
    assert rc == 0
    lines = (tmp_path / "g_variance.csv").read_text().splitlines()
    assert lines[0] == "L,G,samples,trials,mean_total_variance,mean_raw_variance"
    assert len(lines) == 5


def test_vector_field_subcommand(tmp_path):
    rc = main(["vector-field", "--L", "3", "--steps", "5", "--range", "1.0", "--out", str(tmp_path / "f")])
    assert rc == 0
    lines = (tmp_path / "f_field.csv").read_text().splitlines()
    assert lines[0] == "x,y,dx,dy,code"
    assert len(lines) == 26


def test_quantize_subcommand_stdin(tmp_path):
    rng = np.random.default_rng(0)
    cfg = QuantizerConfig(L=3, G=2, m=4)
    book = Codebook(3, 2, entries=rng.normal(size=(3, 2)), initialized=True)
    path = tmp_path / "book.vqcb"
    save_codebook(path, book, cfg)
    result = _run(["quantize", "--codebook", str(path)], stdin_text="0.0 0.0 1.0 1.0\n")
    assert result.returncode == 0
    z_part, idx_part = result.stdout.strip().split("|")
    assert len(z_part.split()) == 4
    indices = [int(v) for v in idx_part.split()]
    assert all(1 <= i <= 3 for i in indices)


def test_quantize_wrong_width_is_config_error(tmp_path):
    rng = np.random.default_rng(0)
    cfg = QuantizerConfig(L=3, G=2, m=4)
    book = Codebook(3, 2, entries=rng.normal(size=(3, 2)), initialized=True)
    path = tmp_path / "book.vqcb"
    save_codebook(path, book, cfg)
    result = _run(["quantize", "--codebook", str(path)], stdin_text="1.0 2.0\n")
    assert result.returncode == 2


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "s"
    rc = main(
        [
            "sweep",
            "adding",
            "--set", "task.seq_len=5",
            "--set", "task.train_gap=3",
            "--set", "task.val_gap=2",
            "--set", "task.test_gap=4",
            "--set", "task.train_count=12",
            "--set", "task.eval_count=6",
            "--set", "training.epochs=1",
            "--set", "training.batch_size=6",
            "--set", "model.hidden=8",
            "--set", "model.modules=2",
            "--set", "model.k=1",
            "--set", "quantizer.discretize=true",
            "--set", "quantizer.warmup_vectors=32",
            "--L", "2,4",
            "--G", "2",
            "--seeds", "0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "s_sweep.csv").read_text().splitlines()
    assert lines[0] == "L,G,seed,split,loss"
    assert len(lines) == 1 + 2 * 3  # two grid cells, three splits each


def test_truncated_codebook_is_config_error(tmp_path, capsys):
    cfg = QuantizerConfig(L=3, G=2, m=4)
    book = Codebook(3, 2, entries=np.zeros((3, 2)), initialized=True)
    path = tmp_path / "book.vqcb"
    save_codebook(path, book, cfg)
    path.write_bytes(path.read_bytes()[:12])
    assert main(["quantize", "--codebook", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


def test_json_codebook_is_config_error(tmp_path, capsys):
    # codebook files are binary .vqcb only; a JSON one fails the magic check
    path = tmp_path / "book.json"
    path.write_text(json.dumps({"version": 1, "L": 3, "G": 2, "m": 4, "beta": 0.25, "codebook_loss_weight": 1.0,
                                "entries": np.zeros((3, 2)).tolist()}))
    assert main(["quantize", "--codebook", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


def test_vector_field_needs_2d_codebook(tmp_path, capsys):
    path = tmp_path / "book.vqcb"
    save_codebook(path, Codebook(3, 3, entries=np.eye(3), initialized=True), QuantizerConfig(L=3, G=1, m=3))
    assert main(["vector-field", "--codebook", str(path)]) == 2
    assert "2-D" in capsys.readouterr().err


def test_warmup_vectors_zero_is_config_error():
    assert main(["run", "adding", "--set", "quantizer.discretize=true", "--set", "quantizer.warmup_vectors=0"]) == 2


def test_non_finite_vector_is_runtime_failure(tmp_path):
    rng = np.random.default_rng(0)
    cfg = QuantizerConfig(L=3, G=2, m=4)
    book = Codebook(3, 2, entries=rng.normal(size=(3, 2)), initialized=True)
    path = tmp_path / "book.vqcb"
    save_codebook(path, book, cfg)
    result = _run(["quantize", "--codebook", str(path)], stdin_text="nan 0.0 1.0 1.0\n")
    assert result.returncode == 1
    assert "non-finite" in result.stderr


def test_diverging_run_is_runtime_failure(capsys):
    argv = ["run", "adding", "--set", "training.lr=1e300", "--set", "training.epochs=1"]
    for key, value in [("task.seq_len", 5), ("task.train_gap", 3), ("task.train_count", 12), ("task.eval_count", 6),
                       ("training.batch_size", 6), ("model.hidden", 8), ("model.modules", 2), ("model.k", 1)]:
        argv += ["--set", f"{key}={value}"]
    with np.errstate(all="ignore"):
        assert main(argv) == 1
    assert "non-finite training loss" in capsys.readouterr().err


_TINY_ADDING_FLAGS = [
    f"--set={key}={value}"
    for key, value in [("task.seq_len", 5), ("task.train_gap", 3), ("task.train_count", 12), ("task.eval_count", 6),
                       ("training.epochs", 1), ("training.batch_size", 6), ("model.hidden", 8), ("model.modules", 2),
                       ("model.k", 1)]
]


@pytest.mark.parametrize("setting", ["training.batch_size=0", "training.epochs=-1"])
def test_bad_training_sizes_are_config_errors(tmp_path, capsys, setting):
    out = tmp_path / "toy"
    assert main(["run", "adding", *_TINY_ADDING_FLAGS, "--set", setting, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "toy.json").exists()


def test_shape_error_during_run_is_runtime_failure(monkeypatch, capsys):
    def failing_train_loop(*args, **kwargs):
        raise ShapeError("matmul: shapes (3, 4) and (5, 6) do not align")

    monkeypatch.setattr(runner, "_train_loop", failing_train_loop)
    assert main(["run", "adding", *_TINY_ADDING_FLAGS]) == 1
    assert "config error" not in capsys.readouterr().err


def test_zero_codebook_size_is_config_error(capsys):
    assert main(["run", "adding", "--set", "quantizer.discretize=true", "--set", "quantizer.L=0"]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json_config_is_config_error(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text('{"kind": "bounds",')
    assert main(["run", "--config", str(cfg)]) == 2


def test_bad_bound_inputs_are_config_error():
    assert main(["bounds", "--delta", "2"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "adding", "--set", "task.seq_len=0"],
        ["run", "transformer-toy", "--set", "model.heads=3"],
        ["run", "gridworld", "--set", "task.train_objects=30"],
    ],
    ids=["seq_len", "heads", "train_objects"],
)
def test_bad_task_sizes_are_config_errors(argv, capsys):
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err


def test_bounds_command_row_equals_run_bounds_row(tmp_path):
    flags = {"G": 3, "L": 7, "m": 12, "n": 500, "delta": 0.1, "alpha": 2.0, "varsigma-bar": 0.5, "R-H": 2.0,
             "zeta": 3.0, "C-J": 1.5, "L-d": 2.0, "rho": 2}
    keys = {"G": "quantizer.G", "L": "quantizer.L", "m": "task.bound_m", "n": "task.bound_n"}
    argv = [f"--{flag}={value}" for flag, value in flags.items()]
    sets = [f"--set={keys.get(flag, 'task.' + flag.replace('-', '_'))}={value}" for flag, value in flags.items()]
    assert main(["bounds", *argv, "--out", str(tmp_path / "cli")]) == 0
    assert main(["run", "bounds", *sets, "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "cli_bounds.csv").read_text() == (tmp_path / "run_bounds.csv").read_text()


def test_hoeffding_command_rows_equal_run_hoeffding_rows(tmp_path, capsys):
    argv = ["--L=3", "--G=2", "--d=1", "--n=300", "--delta=0.2", "--trials=20", "--seed=5"]
    sets = ["--set=quantizer.L=3", "--set=quantizer.G=2", "--set=task.hoeffding_d=1", "--set=task.hoeffding_n=300",
            "--set=task.delta=0.2", "--set=task.hoeffding_trials=20", "--seed=5"]
    assert main(["hoeffding", *argv, "--out", str(tmp_path / "cli")]) == 0
    assert main(["run", "hoeffding", *sets, "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "cli_hoeffding.csv").read_text() == (tmp_path / "run_hoeffding.csv").read_text()


def test_run_writes_the_trained_codebook_for_quantize(tmp_path):
    settings = [arg.removeprefix("--set=") for arg in _TINY_ADDING_FLAGS] + [
        "quantizer.discretize=true", "quantizer.L=4", "quantizer.G=2", "quantizer.warmup_vectors=32"
    ]
    out = tmp_path / "toy"
    assert main(["run", "adding", *(f"--set={s}" for s in settings), "--out", str(out)]) == 0
    trained = runner.run(config_from_dict({**parse_assignments(settings), "kind": "adding"})).quantizer
    book, cfg = load_codebook(tmp_path / "toy_codebook.vqcb")
    assert (cfg.L, cfg.G, cfg.m) == (4, 2, 8)
    assert np.array_equal(book.entries.data, trained.codebook.entries.data)

    vec = np.linspace(-1.0, 1.0, 8)
    result = _run(["quantize", "--codebook", str(tmp_path / "toy_codebook.vqcb")], " ".join(map(str, vec)) + "\n")
    assert result.returncode == 0
    z_part, idx_part = result.stdout.split("|")
    idx0 = nearest_indices(vec.reshape(2, 4), trained.codebook.entries.data)
    assert [int(i) for i in idx_part.split()] == (idx0 + 1).tolist()
    assert np.array_equal(np.array(z_part.split(), dtype=float), trained.codebook.entries.data[idx0].reshape(-1))


def test_baseline_run_writes_no_codebook(tmp_path):
    assert main(["run", "adding", *_TINY_ADDING_FLAGS, "--out", str(tmp_path / "toy")]) == 0
    assert (tmp_path / "toy.json").exists()
    assert not (tmp_path / "toy_codebook.vqcb").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "transformer-toy", "--set", "quantizer.site=raw_input"],
        ["run", "adding", "--set", "quantizer.discretize=true", "--set", "quantizer.site=raw_input"],
        ["run", "gridworld", "--set", "task.ood_objects=a,b"],
    ],
    ids=["transformer_site", "adding_raw_input_G8", "ood_objects"],
)
def test_bad_sites_and_tuple_values_are_config_errors(argv, capsys):
    """A site the kind's model lacks, or that G does not divide, and a
    non-integer tuple element are rejected before the run."""
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
