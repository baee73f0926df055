import io
import json
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vqcomm import cli, runner, seeding, theory
from vqcomm.autodiff import ShapeError
from vqcomm.cli import build_parser, main
from vqcomm.config import FIELD_RULES, config_from_dict, parse_assignments
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
    assert header == ("G,L,m,n,delta,alpha,varsigma_bar,R_H,zeta,C_J,L_d,rho,"
                      "bound_with,bound_without,covering_with,covering_without")
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["bound_with"]) - 0.05230049721515383) < 1e-12


def test_config_error_exit_code_2(capsys):
    assert main(["run", "nonsense"]) == 2
    assert main(["run", "adding", "--set", "quantizer.bogus=1"]) == 2
    assert main(["run", "adding", "--config", "/does/not/exist.cfg"]) == 2


def test_hoeffding_subcommand():
    sets = ["quantizer.L=4", "quantizer.G=2", "task.hoeffding_n=200", "task.hoeffding_trials=3"]
    result = _run(["run", "hoeffding", *(f"--set={s}" for s in sets)])
    assert result.returncode == 0
    assert "violation_rate" in result.stdout


def test_gaussian_subcommand(tmp_path):
    sets = ["task.gaussian_m=4", "task.L_values=1,4", "task.G_values=1,2", "task.variance_samples=32",
            "task.variance_trials=2", "task.attention_seeds=0"]
    rc = main(["run", "gaussian-analysis", *(f"--set={s}" for s in sets), "--out", str(tmp_path / "g")])
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


def test_readme_vector_field_line_writes_the_seeded_field(tmp_path, monkeypatch):
    """The README's field line draws its random codebook from ``seeding.keyed_rng(seed)``
    and writes exactly that codebook's field."""
    seeds = []
    monkeypatch.setattr(cli, "keyed_rng", lambda seed: seeds.append(seed) or seeding.keyed_rng(seed))
    (line,) = [c for c in _readme_commands("vqcomm") if c.startswith("vqcomm vector-field ")]
    argv = shlex.split(line)[1:]
    argv[argv.index("--out") + 1] = str(tmp_path / "g")
    assert argv == ["vector-field", "--L", "5", "--range", "2", "--steps", "21", "--seed", "0", "--out", argv[-1]]
    assert main(argv) == 0
    assert seeds == [0]
    book = Codebook(5, 2, entries=seeding.keyed_rng(0).normal(size=(5, 2)), initialized=True)
    runner.emit_csv(tmp_path / "want.csv", theory.vector_field(2.0, 21, book), runner.ANALYSIS_COLUMNS["field"])
    assert (tmp_path / "g_field.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


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


def test_overflowing_head_is_runtime_failure(tmp_path, monkeypatch, capsys):
    # every squared distance of the first head overflows; it used to snap to code 1 and exit 0
    rng = np.random.default_rng(0)
    path = tmp_path / "book.vqcb"
    save_codebook(path, Codebook(16, 4, entries=rng.normal(size=(16, 4)), initialized=True), QuantizerConfig(16, 8, 32))
    monkeypatch.setattr(sys, "stdin", io.StringIO(" ".join(["1e200"] + ["0"] * 31) + "\n"))
    assert main(["quantize", "--codebook", str(path)]) == 1
    captured = capsys.readouterr()
    assert "overflows" in captured.err and captured.out == ""


def test_vector_field_overflowing_range_is_runtime_failure(capsys):
    # the rows at +-1e200 used to be written with code 1
    assert main(["vector-field", "--L", "4", "--range", "1e200", "--steps", "3"]) == 1
    captured = capsys.readouterr()
    assert "overflows" in captured.err and captured.out == ""


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


# one small, fast, valid config per kind; the training kinds quantize, so fuzzed quantizer values are used
_QUANTIZED = ["quantizer.discretize=true", "quantizer.L=4", "quantizer.G=2", "quantizer.warmup_vectors=8"]
_TINY_RUNS = {
    "adding": [*(s.removeprefix("--set=") for s in _TINY_ADDING_FLAGS), "task.val_gap=2", "task.test_gap=4",
               *_QUANTIZED],
    "gridworld": ["task.grid_size=3", "task.train_objects=3", "task.ood_objects=2", "task.episode_steps=2",
                  "task.train_transitions=8", "task.eval_transitions=4", "model.node_dim=2", "model.msg_dim=4",
                  "model.gnn_hidden=4", "training.epochs=1", "training.batch_size=4", *_QUANTIZED],
    "transformer-toy": ["task.train_count=8", "task.eval_count=4", "task.vocab=3", "task.train_len=6",
                        "task.test_len=8", "task.max_len=8", "model.dim=4", "model.heads=2", "model.blocks=2",
                        "training.epochs=1", "training.batch_size=4", *_QUANTIZED],
    "gaussian-analysis": ["task.gaussian_m=2", "task.L_values=1,2", "task.G_values=1,2", "task.variance_samples=8",
                          "task.variance_trials=1", "task.attention_seeds=1", "task.train_distractors=1",
                          "task.test_distractors=2"],
    "bounds": [],
    "hoeffding": ["quantizer.L=4", "quantizer.G=2", "task.hoeffding_n=50", "task.hoeffding_trials=2",
                  "task.hoeffding_d=1"],
}


def _tiny_run(kind, *settings):
    return ["run", kind, *(f"--set={s}" for s in [*_TINY_RUNS[kind], *settings])]


@pytest.mark.parametrize(
    "setting",
    [
        "training.batch_size=0",
        "training.epochs=-1",
        "training.lr=nan",
        "training.lr=-1",
        "training.grad_clip=nan",
        "task.train_count=0",
        "task.eval_count=0",
        "model.att_dim=0",
    ],
)
def test_bad_training_sizes_are_config_errors(tmp_path, capsys, setting):
    out = tmp_path / "toy"
    assert main(["run", "adding", *_TINY_ADDING_FLAGS, "--set", setting, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "toy.json").exists()


def test_quantized_run_without_epochs_is_config_error(tmp_path, capsys):
    out = tmp_path / "toy"
    argv = ["run", "adding", *_TINY_ADDING_FLAGS, "--set", "quantizer.discretize=true", "--set", "training.epochs=0"]
    assert main([*argv, "--out", str(out)]) == 2
    assert "training.epochs" in capsys.readouterr().err
    assert not (tmp_path / "toy.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        _tiny_run("gaussian-analysis", "task.variance_trials=0"),
        _tiny_run("gaussian-analysis", "task.variance_samples=0"),
        _tiny_run("gaussian-analysis", "task.gaussian_m=0"),
        _tiny_run("gaussian-analysis", "task.L_values=0,8"),
        _tiny_run("gaussian-analysis", "task.G_values=0"),
        _tiny_run("hoeffding", "task.hoeffding_trials=0"),
        _tiny_run("hoeffding", "task.hoeffding_d=0"),
        _tiny_run("hoeffding", "quantizer.L=0"),
        ["vector-field", "--L", "0"],
        ["vector-field", "--steps", "-1"],
        ["vector-field", "--steps", "0"],
        ["vector-field", "--range", "nan"],
        ["vector-field", "--range", "inf"],
        _tiny_run("bounds", "task.C_J=-1"),
        ["run", "bounds", "--set", "task.zeta=nan"],
        ["run", "bounds", "--set", "task.zeta=-1"],
        ["run", "bounds", "--set", "task.C_J=nan"],
        ["vector-field", "--seed", "-1"],
        ["run", "bounds", "--seed", "-1"],
        _tiny_run("hoeffding", "task.hoeffding_n=-1"),
        _tiny_run("hoeffding", "quantizer.G=-1"),
    ],
    ids=["gaussian-trials", "gaussian-samples", "gaussian-m", "gaussian-L", "gaussian-G", "hoeffding-trials",
         "hoeffding-d", "hoeffding-L", "vector-field-L", "vector-field-negative-steps", "vector-field-zero-steps",
         "vector-field-nan-range", "vector-field-inf-range", "bounds-negative-C_J", "run-bounds-nan-zeta",
         "run-bounds-negative-zeta", "run-bounds-nan-C_J", "vector-field-negative-seed", "run-bounds-negative-seed",
         "hoeffding-negative-n", "hoeffding-negative-G"],
)
def test_analysis_size_flags_are_config_errors(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and captured.out == ""


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


@pytest.mark.parametrize("command", ["bounds", "hoeffding", "gaussian"])
def test_removed_analysis_commands_are_unknown(capsys, command):
    """The analyses run only as ``run bounds|hoeffding|gaussian-analysis``."""
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_missing_out_directory_is_config_error_before_any_work(tmp_path, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the output directory was checked")

    monkeypatch.setattr(runner, "_train_loop", no_training)
    out = str(tmp_path / "missing" / "toy")
    assert main([*_tiny_run("adding"), "--out", out]) == 2
    assert main(["sweep", *_tiny_run("adding")[1:], "--L", "4", "--G", "2", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("config error") == 2 and "missing" in err
    assert not list(tmp_path.iterdir())


def test_vector_field_missing_out_directory_is_config_error_before_any_work(tmp_path, monkeypatch, capsys):
    """It used to compute the whole field, then fail on the temp file of its CSV."""
    def no_field(*args, **kwargs):
        raise AssertionError("computed the field before the output directory was checked")

    monkeypatch.setattr(theory, "vector_field", no_field)
    assert main(["vector-field", "--L", "5", "--out", str(tmp_path / "missing" / "f")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(str(tmp_path / "missing")) in err and ".tmp" not in err
    assert not list(tmp_path.iterdir())


def _readme_commands(program: str) -> list[str]:
    """Every ``program`` command line in README.md's bash blocks, continuations joined and pipes cut."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("| ")[-1].strip()
            if line.startswith(f"{program} "):
                commands.append(line)
    return commands


def test_readme_commands_parse():
    commands = _readme_commands("vqcomm")
    assert {shlex.split(c)[1] for c in commands} == {"run", "sweep", "vector-field", "quantize"}
    for command in commands:
        build_parser().parse_args(shlex.split(command, comments=True)[1:])


def test_readme_script_lines_match_the_scripts():
    """README's bash blocks name only scripts that exist, and every script in ``scripts/`` at least once."""
    named = {shlex.split(c)[1] for c in _readme_commands("python3")}
    root = Path(__file__).resolve().parents[1]
    assert named == {p.relative_to(root).as_posix() for p in (root / "scripts").glob("*.py")}


def test_huge_L_d_gives_finite_bounds_row(capsys):
    assert main(["run", "bounds", "--set", "task.L_d=1e300"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["covering_with"] == pytest.approx(1e298) and row["covering_without"] == pytest.approx(1e298)


def test_bad_bound_inputs_are_config_error():
    assert main(["run", "bounds", "--set", "task.delta=2"]) == 2


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


def test_transformer_toy_run_and_sweep_tables(tmp_path):
    """Run and sweep tables of a second kind: key columns, then ``split``, then ``loss,accuracy``."""
    assert main([*_tiny_run("transformer-toy"), "--out", str(tmp_path / "r")]) == 0
    lines = (tmp_path / "r_metrics.csv").read_text().splitlines()
    assert lines[0] == "split,loss,accuracy"
    assert [line.split(",")[0] for line in lines[1:]] == ["in_dist", "ood_test"]
    sweep = ["sweep", *_tiny_run("transformer-toy")[1:], "--L", "2,4", "--G", "2", "--seeds", "0,1"]
    assert main([*sweep, "--out", str(tmp_path / "s")]) == 0
    lines = (tmp_path / "s_sweep.csv").read_text().splitlines()
    assert lines[0] == "L,G,seed,split,loss,accuracy"
    assert [line.split(",")[:4] for line in lines[1:]] == [
        [L, "2", seed, split] for L in "24" for seed in "01" for split in ("in_dist", "ood_test")
    ]
    rows = json.loads((tmp_path / "s_sweep.json").read_text())["rows"]
    assert [list(row) for row in rows] == [lines[0].split(",")] * 8


@pytest.mark.parametrize("kind", sorted(_TINY_RUNS))
def test_tiny_runs_succeed(kind, capsys):
    """The control for the cases below and for the config fuzz: each base config runs."""
    assert main(_tiny_run(kind)) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "kind, settings",
    [
        ("adding", "quantizer.method=gumbel quantizer.temperature=0"),
        ("adding", "quantizer.method=gumbel quantizer.temperature=-1"),
        ("adding", "quantizer.method=gumbel quantizer.temperature=nan"),
        ("adding", "quantizer.beta=nan"),
        ("adding", "quantizer.beta=inf"),
        ("adding", "quantizer.codebook_loss_weight=nan"),
        ("adding", "quantizer.codebook_loss_weight=inf"),
        ("adding", "task.max_value=nan"),
        ("adding", "task.max_value=-1"),
        ("adding", "seed=-1"),
        ("gridworld", "task.episode_steps=0"),
        ("gridworld", "task.train_transitions=0"),
        ("gridworld", "task.train_objects=0"),
        ("gridworld", "task.ood_objects=0"),
        ("gridworld", "model.node_dim=0"),
        ("gridworld", "model.msg_dim=0"),
        ("gridworld", "model.gnn_hidden=0"),
        ("transformer-toy", "task.vocab=0"),
        ("transformer-toy", "task.train_len=0"),
        ("transformer-toy", "task.train_len=1"),
        ("transformer-toy", "task.test_len=0"),
        ("transformer-toy", "task.max_len=0"),
        ("transformer-toy", "task.max_len=4"),
        ("transformer-toy", "task.test_len=10"),
        ("transformer-toy", "model.dim=0"),
        ("transformer-toy", "model.blocks=0"),
        ("gaussian-analysis", "task.train_distractors=-1"),
        ("gaussian-analysis", "task.test_distractors=-5"),
        ("gaussian-analysis", "task.attention_seeds=-1"),
    ],
)
def test_bad_field_values_are_config_errors(tmp_path, capsys, kind, settings):
    """Each of these used to fail inside numpy (exit 1) or to write a meaningless record (exit 0)."""
    field = settings.split()[-1].split("=")[0]
    assert main([*_tiny_run(kind, *settings.split()), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not list(tmp_path.iterdir())


def test_sweep_checks_every_cell_before_running_one(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(runner, "run", ran.append)
    assert main(["sweep", *_tiny_run("adding")[1:], "--L", "4", "--G", "2", "--seeds", "0,-1"]) == 2
    assert "seed" in capsys.readouterr().err
    assert ran == []


def test_sweep_over_a_baseline_is_config_error(monkeypatch, capsys):
    """Without quantization the L and G a sweep varies do nothing: it used to
    run every cell and label identical runs with them."""
    ran = []
    monkeypatch.setattr(runner, "run", ran.append)
    args = _tiny_run("adding", "quantizer.discretize=false")[1:]
    assert main(["sweep", *args, "--L", "2,4", "--G", "1,2", "--seeds", "0"]) == 2
    assert "quantizer.discretize=true" in capsys.readouterr().err
    assert ran == []


def _vqcb_bytes(tmp_path, L=4, G=2, m=4) -> bytes:
    path = tmp_path / "valid.vqcb"
    save_codebook(path, Codebook(L, m // G, entries=np.arange(L * m // G).reshape(L, -1) / 4.0, initialized=True),
                  QuantizerConfig(L=L, G=G, m=m))
    return path.read_bytes()


_HEADER = struct.calcsize("<4sIIIIdd")


@pytest.mark.parametrize(
    "offset, value, what",
    [
        (_HEADER, float("nan"), "entry"),
        (_HEADER + 8 * 5, float("inf"), "entry"),
        (20, float("nan"), "beta"),
        (28, float("inf"), "codebook_loss_weight"),
    ],
    ids=["nan_entry", "inf_entry", "nan_beta", "inf_weight"],
)
def test_non_finite_codebook_file_is_config_error(tmp_path, monkeypatch, capsys, offset, value, what):
    raw = bytearray(_vqcb_bytes(tmp_path))
    struct.pack_into("<d", raw, offset, value)
    path = tmp_path / "book.vqcb"
    path.write_bytes(bytes(raw))
    monkeypatch.setattr(sys, "stdin", io.StringIO("0.1 0.2 0.3 0.4\n"))
    assert main(["quantize", "--codebook", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and what in err and str(path) in err


@pytest.mark.parametrize(
    "offset, value, what",
    [(8, 0, "codebook size must be positive"), (12, 3, "not divisible by 3")],
    ids=["zero_L", "G_not_dividing_m"],
)
def test_bad_codebook_header_is_config_error_naming_the_file(tmp_path, monkeypatch, capsys, offset, value, what):
    raw = bytearray(_vqcb_bytes(tmp_path))
    struct.pack_into("<I", raw, offset, value)
    path = tmp_path / "book.vqcb"
    path.write_bytes(bytes(raw))
    monkeypatch.setattr(sys, "stdin", io.StringIO("0.1 0.2 0.3 0.4\n"))
    assert main(["quantize", "--codebook", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and what in err and str(path) in err


def _table_fields(kind):
    return ["seed", *(f"{section}.{key}" for section, keys in FIELD_RULES[kind].items() for key in keys)]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_config_value_exits_0_or_2(capsys, data):
    """A run with one field of its kind's table set to an edge value either runs or is a config error.

    Only small values are drawn: a valid huge size is a long run, not a config error.
    """
    kind = data.draw(st.sampled_from(sorted(_TINY_RUNS)))
    field = data.draw(st.sampled_from(_table_fields(kind)))
    value = data.draw(st.sampled_from(["0", "-1", "nan", "inf", "-inf", "x"]))
    assert main(_tiny_run(kind, f"{field}={value}")) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_codebook_file_exits_0_or_2(tmp_path, monkeypatch, capsys, data):
    """A mutated, truncated or extended L=4, G=2, m=4 .vqcb file either quantizes a line or is a config error."""
    raw = bytearray(_vqcb_bytes(tmp_path))
    edit = data.draw(st.sampled_from(["mutate", "truncate", "extend"]))
    if edit == "mutate":
        for _ in range(data.draw(st.integers(1, 4))):
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    elif edit == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
    else:
        raw += data.draw(st.binary(min_size=1, max_size=24))
    path = tmp_path / "book.vqcb"
    path.write_bytes(bytes(raw))
    monkeypatch.setattr(sys, "stdin", io.StringIO("0.1 0.2 0.3 0.4\n"))
    with np.errstate(over="ignore"):  # finite entries near the float limit overflow their squared distances
        assert main(["quantize", "--codebook", str(path)]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err
