import pytest

from vqcomm.config import (
    ExperimentConfig,
    config_from_dict,
    load_config,
    merge_overrides,
    parse_assignments,
)
from vqcomm.models.common import ConfigError


def test_defaults_everywhere():
    cfg = ExperimentConfig()
    assert cfg.kind == "adding"
    assert cfg.quantizer.beta == 0.25
    assert cfg.training.optimizer == "adam"


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"kind": "adding", "bogus": 1})


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError, match="quantizer.bogus"):
        config_from_dict({"quantizer": {"bogus": 1}})


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="kind"):
        config_from_dict({"kind": "frobnicate"})


def test_type_coercion_from_strings():
    cfg = config_from_dict(
        {
            "seed": "7",
            "quantizer": {"discretize": "true", "L": "32", "beta": "0.5"},
            "task": {"ood_objects": "3,2"},
        }
    )
    assert cfg.seed == 7
    assert cfg.quantizer.discretize is True
    assert cfg.quantizer.L == 32
    assert cfg.quantizer.beta == 0.5
    assert cfg.task.ood_objects == (3, 2)


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"quantizer": {"discretize": "maybe"}})
    with pytest.raises(ConfigError):
        config_from_dict({"quantizer": {"L": "many"}})


def test_parse_assignments_nesting():
    nested = parse_assignments(["seed=3", "quantizer.L=16", "training.lr=0.001"])
    assert nested == {"seed": "3", "quantizer": {"L": "16"}, "training": {"lr": "0.001"}}
    with pytest.raises(ConfigError):
        parse_assignments(["a.b.c=1"])
    with pytest.raises(ConfigError):
        parse_assignments(["novalue"])


def test_load_config_keyvalue_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        """
# adding-task experiment
kind=adding
seed=5
quantizer.discretize=true   # turn on the bottleneck
quantizer.L=8
training.epochs=3
"""
    )
    cfg = load_config(path)
    assert cfg.kind == "adding"
    assert cfg.seed == 5
    assert cfg.quantizer.L == 8
    assert cfg.training.epochs == 3


def test_load_config_json_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text('{"kind": "bounds", "seed": 2, "quantizer": {"G": 15, "L": 30}}')
    cfg = load_config(path)
    assert cfg.kind == "bounds"
    assert cfg.quantizer.G == 15


def test_config_snapshot_roundtrip():
    cfg = config_from_dict({"kind": "gridworld", "seed": 9, "quantizer": {"discretize": True, "G": 2}})
    again = config_from_dict(cfg.to_dict())
    assert again == cfg


def test_merge_overrides():
    base = {"kind": "adding", "quantizer": {"L": 8}}
    merged = merge_overrides(base, {"quantizer": {"G": 2}, "seed": 4})
    assert merged == {"kind": "adding", "quantizer": {"L": 8, "G": 2}, "seed": 4}


@pytest.mark.parametrize("value", [0, -5])
def test_warmup_vectors_must_be_positive(value):
    # [-0:] keeps every row, so a zero reservoir bound would never bound anything
    with pytest.raises(ConfigError, match="warmup_vectors"):
        config_from_dict({"quantizer": {"warmup_vectors": value}})


@pytest.mark.parametrize(
    "training, field",
    [
        ({"batch_size": 0}, "batch_size"),
        ({"batch_size": -3}, "batch_size"),
        ({"epochs": -1}, "epochs"),
        ({"lr": "nan"}, "lr"),
        ({"lr": -1}, "lr"),
        ({"lr": 0}, "lr"),
        ({"grad_clip": "nan"}, "grad_clip"),
        ({"grad_clip": -1}, "grad_clip"),
    ],
    ids=["zero_batch", "negative_batch", "negative_epochs", "nan_lr", "negative_lr", "zero_lr", "nan_clip",
         "negative_clip"],
)
def test_training_sizes_rejected_up_front(training, field):
    # a zero batch size forms no batches; negative epochs would train nothing and still write a record;
    # a NaN lr failed later in the nearest-code search, and a negative lr or a NaN clip trained silently
    with pytest.raises(ConfigError, match=f"training.{field}"):
        config_from_dict({"training": training})


@pytest.mark.parametrize("kind", ["adding", "gridworld", "transformer-toy"])
def test_quantized_run_needs_a_warmup_epoch(kind):
    # with no epoch the codebook is never fitted, so evaluation would run unquantized
    with pytest.raises(ConfigError, match="training.epochs"):
        config_from_dict({"kind": kind, "quantizer": {"discretize": True}, "training": {"epochs": 0}})
    assert config_from_dict({"kind": kind, "quantizer": {"discretize": True}, "training": {"epochs": 1}})


def test_zero_epochs_and_unit_batch_are_valid():
    cfg = config_from_dict({"training": {"epochs": 0, "batch_size": 1}})
    assert (cfg.training.epochs, cfg.training.batch_size) == (0, 1)


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "adding", "task": {"seq_len": 0}},
        {"kind": "adding", "task": {"test_gap": -1}},
        {"kind": "gridworld", "task": {"train_objects": 26}},
        {"kind": "gridworld", "task": {"ood_objects": "3,26"}},
        {"kind": "transformer-toy", "model": {"heads": 3}},
        {"kind": "transformer-toy", "model": {"heads": 0}},
        {"kind": "adding", "task": {"train_count": 0}},
        {"kind": "adding", "task": {"eval_count": 0}},
        {"kind": "transformer-toy", "task": {"train_count": 0}},
        {"kind": "adding", "model": {"att_dim": 0}},
    ],
    ids=["seq_len", "gap", "train_objects", "ood_objects", "heads", "zero_heads", "train_count", "eval_count",
         "transformer_train_count", "att_dim"],
)
def test_task_sizes_rejected_up_front(data):
    with pytest.raises(ConfigError):
        config_from_dict(data)


def test_task_sizes_checked_only_for_the_kinds_using_them():
    bad = {"task": {"seq_len": 0, "train_objects": 30, "train_count": 0}, "model": {"heads": 3, "att_dim": 0}}
    for kind in ("bounds", "hoeffding", "gaussian-analysis"):
        config_from_dict({"kind": kind, **bad})


@pytest.mark.parametrize(
    "kind, site",
    [
        ("adding", "bogus"),
        ("gridworld", "raw_input"),
        ("gridworld", "recurrent_update"),
        ("transformer-toy", "raw_input"),
    ],
)
def test_site_checked_against_the_kind_architecture(kind, site):
    with pytest.raises(ConfigError, match="invalid"):
        config_from_dict({"kind": kind, "quantizer": {"site": site}})
    config_from_dict({"kind": "bounds", "quantizer": {"site": site}})  # analysis kinds have no site


@pytest.mark.parametrize(
    "raw", ["a,b", "3,2.5", [2.7], [3, "x"]], ids=["letters", "float_text", "json_float", "json_text"]
)
def test_tuple_elements_must_be_integers(raw):
    with pytest.raises(ConfigError, match="task.ood_objects"):
        config_from_dict({"kind": "gridworld", "task": {"ood_objects": raw}})


def test_every_kind_has_a_rule_table_and_every_rule_names_a_field():
    from vqcomm.config import FIELD_RULES, KINDS

    assert set(FIELD_RULES) == set(KINDS)
    default = ExperimentConfig()
    for rules in FIELD_RULES.values():
        for section, keys in rules.items():
            for key in keys:
                assert hasattr(getattr(default, section), key), f"{section}.{key}"


@pytest.mark.parametrize("kind", ["adding", "gridworld", "transformer-toy", "gaussian-analysis", "bounds", "hoeffding"])
def test_negative_seed_rejected_for_every_kind(kind):
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"kind": kind, "seed": -1})


@pytest.mark.parametrize(
    "data, field",
    [
        ({"kind": "adding", "training": {"optimizer": "rmsprop"}}, "training.optimizer"),
        ({"kind": "gridworld", "task": {"ood_objects": "3,0"}}, "task.ood_objects"),
        ({"kind": "gaussian-analysis", "task": {"G_values": "1,3"}}, "task.G_values"),
        ({"kind": "gaussian-analysis", "task": {"G_values": "1,0"}}, "task.G_values"),
        ({"kind": "adding", "model": {"k": 5, "modules": 4}}, "model.k"),
    ],
    ids=["optimizer", "zero_ood_object", "G_not_dividing_m", "zero_G", "k_above_modules"],
)
def test_field_rules_name_the_field(data, field):
    # the optimizer and a k above modules used to be rejected only after the data and the model were built,
    # and a G that does not divide gaussian_m only after the variance rows of the earlier G values were computed
    with pytest.raises(ConfigError, match=field):
        config_from_dict(data)


def test_quantizer_width_must_split_into_heads_only_when_quantizing():
    with pytest.raises(ConfigError, match="quantizer.G"):
        config_from_dict({"kind": "adding", "quantizer": {"discretize": True, "site": "raw_input"}})
    config_from_dict({"kind": "adding", "quantizer": {"site": "raw_input"}})
