"""The OOD study table, ``scripts/ood_study.py``, which runs it, and ``scripts/record_hashes.py``."""

import csv
import importlib.util
import sys
from functools import partial
from pathlib import Path

import pytest

from vqcomm import protocols
from vqcomm.config import config_from_dict
from vqcomm.protocols import STUDIES, Study, adding_config, gridworld_config

# each arm as the scripts, the acceptance suite and record_hashes.py spelled it out before the table
EXPLICIT = {
    ("adding", "baseline"): lambda s: adding_config(s, discretize=False),
    ("adding", "communication_result"): lambda s: adding_config(s, discretize=True),
    ("adding", "communication_input"): lambda s: adding_config(s, discretize=True, site="communication_input"),
    ("adding", "recurrent_update"): lambda s: adding_config(s, discretize=True, site="recurrent_update"),
    ("adding", "gumbel"): lambda s: adding_config(s, discretize=True, method="gumbel"),
    ("gridworld", "baseline"): lambda s: gridworld_config(s, discretize=False),
    ("gridworld", "discretized"): lambda s: gridworld_config(s, discretize=True),
}


def test_study_arms_equal_the_explicit_protocol_calls():
    assert {(name, arm) for name, study in STUDIES.items() for arm in study.arms} == set(EXPLICIT)
    for (name, arm), build in EXPLICIT.items():
        for seed in (0, 7):
            assert STUDIES[name].arms[arm](seed) == build(seed), (name, arm, seed)
    reported = [(s.seeds, s.split, s.metric) for s in STUDIES.values()]
    assert reported == [(10, "ood_test", "loss"), (5, "ood_2", "hits_at_1")]


def _tiny_adding(discretize: bool, seed: int):
    return config_from_dict(
        {
            "kind": "adding",
            "seed": seed,
            "task": {"seq_len": 2, "train_gap": 1, "val_gap": 1, "test_gap": 2, "train_count": 4, "eval_count": 4},
            "training": {"epochs": 1, "batch_size": 4},
            "model": {"hidden": 4, "modules": 2, "k": 1},
            "quantizer": {"discretize": discretize, "L": 2, "G": 2, "warmup_vectors": 4},
        }
    )


def _tiny_transformer(seed: int):
    return config_from_dict(
        {
            "kind": "transformer-toy",
            "seed": seed,
            "task": {"train_count": 8, "eval_count": 4, "vocab": 3, "train_len": 6, "test_len": 8, "max_len": 8},
            "training": {"epochs": 1, "batch_size": 4},
            "model": {"dim": 4, "heads": 2, "blocks": 2},
            "quantizer": {"discretize": True, "L": 4, "G": 2, "warmup_vectors": 8},
        }
    )


@pytest.fixture
def ood_study(monkeypatch):
    """The script's module, with a two-arm, two-seed study ``tiny`` in the table."""
    tiny = Study(arms={"plain": partial(_tiny_adding, False), "vq": partial(_tiny_adding, True)},
                 seeds=2, split="ood_test", metric="loss")
    monkeypatch.setitem(protocols.STUDIES, "tiny", tiny)
    path = Path(__file__).resolve().parents[1] / "scripts" / "ood_study.py"
    spec = importlib.util.spec_from_file_location("ood_study", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_ood_study_writes_one_row_per_arm_seed_and_split(ood_study, tmp_path, capsys):
    assert ood_study.main(["tiny", "--out", str(tmp_path / "t")]) == 0
    header, *rows = _rows(tmp_path / "t.csv")
    assert header == ["arm", "seed", "split", "loss"]
    splits = ("in_dist", "ood_val", "ood_test")
    assert [r[:3] for r in rows] == [[arm, seed, split] for arm in ("plain", "vq") for seed in "01" for split in splits]
    out = capsys.readouterr().out
    assert "vq seed 1: ood_test loss=" in out and "plain: median ood_test loss = " in out


def test_ood_study_runs_only_the_named_arms(ood_study, tmp_path):
    assert ood_study.main(["tiny", "vq", "--seeds", "1", "--out", str(tmp_path / "t")]) == 0
    assert [r[:2] for r in _rows(tmp_path / "t.csv")[1:]] == [["vq", "0"]] * 3


def test_ood_study_table_ends_in_the_kinds_metrics(ood_study, monkeypatch, tmp_path):
    """A transformer-toy study's table has that kind's metric columns, ``loss,accuracy``."""
    study = Study(arms={"vq": _tiny_transformer}, seeds=1, split="ood_test", metric="accuracy")
    monkeypatch.setitem(protocols.STUDIES, "toy", study)
    assert ood_study.main(["toy", "--out", str(tmp_path / "t")]) == 0
    header, *rows = _rows(tmp_path / "t.csv")
    assert header == ["arm", "seed", "split", "loss", "accuracy"]
    assert [r[:3] for r in rows] == [["vq", "0", "in_dist"], ["vq", "0", "ood_test"]]


@pytest.mark.parametrize(
    "argv, listed",
    [
        (["tiny", "vq", "gumbel"], "choose from plain, vq"),
        (["nowhere"], "gridworld"),
        (["tiny", "--seeds", "0"], "positive"),
    ],
    ids=["arm", "study", "seeds"],
)
def test_ood_study_bad_arguments_exit_2(ood_study, tmp_path, capsys, argv, listed):
    with pytest.raises(SystemExit) as exc:
        ood_study.main([*argv, "--out", str(tmp_path / "t")])
    assert exc.value.code == 2
    assert listed in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.fixture
def record_hashes(monkeypatch):
    """The script's module; its import puts ``perfbench`` on ``sys.path``, undone afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).resolve().parents[1] / "scripts" / "record_hashes.py"
    spec = importlib.util.spec_from_file_location("record_hashes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_hashes_marks_each_run_against_its_reference(record_hashes, monkeypatch, capsys):
    assert set(record_hashes.REFERENCE) == set(record_hashes.RUNS)
    monkeypatch.setattr(record_hashes, "RUNS", {"tiny": lambda: [_tiny_adding(True, 0)]})
    monkeypatch.setattr(record_hashes, "REFERENCE", {"tiny": "0" * 64})
    assert record_hashes.main([]) == 1
    name, digest, verdict = capsys.readouterr().out.split()
    assert (name, verdict) == ("tiny", "CHANGED")
    record_hashes.REFERENCE["tiny"] = digest
    assert record_hashes.main([]) == 0
    assert capsys.readouterr().out.split() == ["tiny", digest, "ok"]
