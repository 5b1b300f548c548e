import pytest

from selbp.config import (
    KNOWN_KEYS,
    PRESETS,
    ExperimentSpec,
    dump_config,
    load_config,
    parse_config_text,
)
from selbp.errors import ParseError, UnknownKey
from selbp.selection import StrategyConfig

MINIMAL = "dataset.kind = blobs\nstrategy.kinds = random\n"


def test_minimal_config_defaults():
    spec = parse_config_text(MINIMAL)
    assert spec.dataset.kind == "blobs"
    assert spec.strategy_kinds == ("random",)
    assert spec.fractions == (0.5,)
    assert spec.train.base_batch == 128


def test_empty_config_lists_required_keys():
    with pytest.raises(ParseError, match="dataset.kind") as exc:
        parse_config_text("")
    assert "strategy.kinds" in str(exc.value)


def test_unknown_key_rejected():
    with pytest.raises(UnknownKey, match="optimizer.magic"):
        parse_config_text(MINIMAL + "optimizer.magic = adam\n")
    # Weights are always clipped to be non-negative; there is no switch.
    with pytest.raises(UnknownKey, match="strategy.clip_negative"):
        parse_config_text(MINIMAL + "strategy.clip_negative = false\n")


def test_strategy_keys_fill_the_strategy_template():
    spec = parse_config_text(
        MINIMAL
        + "strategy.cdf_source = rolling_buffer\n"
        + "strategy.buffer_capacity = 64\n"
        + "strategy.pad_to_m = true\n"
    )
    assert spec.strategy == StrategyConfig(
        cdf_source="rolling_buffer", buffer_capacity=64, pad_to_m=True
    )
    assert parse_config_text(dump_config(spec)) == spec
    sc = spec.strategy_config("loss_based", 0.25)
    assert sc == StrategyConfig(
        kind="loss_based", fraction=0.25, cdf_source="rolling_buffer",
        buffer_capacity=64, pad_to_m=True,
    )
    assert spec.strategy.kind == "random"  # template untouched


def test_duplicate_key_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_config_text(MINIMAL + "dataset.kind = csv\n")


def test_bad_value_reports_line_and_key():
    with pytest.raises(ParseError, match="train.epochs"):
        parse_config_text(MINIMAL + "train.epochs = soon\n")


def test_missing_equals_sign():
    with pytest.raises(ParseError, match="line 1"):
        parse_config_text("dataset.kind blobs\n")


def test_comments_and_blank_lines_ignored():
    text = "# comment\n\ndataset.kind = blobs  # trailing\nstrategy.kinds = random\n"
    spec = parse_config_text(text)
    assert spec.dataset.kind == "blobs"


def test_grid_and_strategy_lists():
    text = MINIMAL.replace(
        "strategy.kinds = random",
        "strategy.kinds = random, loss_based, grad_match",
    )
    text += "grid.fractions = 0.1, 0.5\ngrid.seeds = 0,1,2\n"
    spec = parse_config_text(text)
    assert spec.strategy_kinds == ("random", "loss_based", "grad_match")
    assert spec.fractions == (0.1, 0.5)
    assert spec.seeds == (0, 1, 2)


# ---------------------------------------------------------------- presets


def test_cifar_style_preset_fields():
    spec = parse_config_text(MINIMAL + "preset = cifar_style\n")
    t = spec.train
    assert t.optimizer == "sgd_momentum"
    assert t.momentum == 0.9 and t.nesterov is True
    assert t.weight_decay == 5e-4
    assert t.epochs == 200 and t.base_lr == 0.1
    assert t.schedule == "step"
    assert t.milestones == (60, 120, 160) and t.decay_factor == 0.2
    assert t.base_batch == 128


def test_svhn_style_preset_fields():
    spec = parse_config_text(MINIMAL + "preset = svhn_style\n")
    t = spec.train
    assert t.schedule == "cosine"
    assert t.epochs == 80 and t.base_lr == 0.01
    assert t.momentum == 0.9 and t.nesterov is True
    assert t.weight_decay == 5e-4 and t.base_batch == 128


def test_imagenet32_style_preset_fields():
    spec = parse_config_text(MINIMAL + "preset = imagenet32_style\n")
    t = spec.train
    assert t.nesterov is False and t.momentum == 0.9
    assert t.epochs == 40 and t.base_lr == 0.01
    assert t.schedule == "step" and t.milestones == (10, 20, 30)
    assert t.decay_factor == 0.2 and t.weight_decay == 5e-4


def test_explicit_key_overrides_preset():
    spec = parse_config_text(MINIMAL + "preset = cifar_style\ntrain.epochs = 5\n")
    assert spec.train.epochs == 5
    assert spec.train.base_lr == 0.1  # untouched preset field survives


def test_unknown_preset():
    with pytest.raises(ParseError, match="preset"):
        parse_config_text(MINIMAL + "preset = resnet\n")


def test_preset_names_stable():
    assert sorted(PRESETS) == ["cifar_style", "imagenet32_style", "svhn_style"]


# ---------------------------------------------------------------- dump/load


def test_dump_parse_roundtrip():
    spec = parse_config_text(
        MINIMAL
        + "preset = svhn_style\n"
        + "model.hidden = 64, 32\n"
        + "grid.fractions = 0.25\n"
        + "strategy.buffer_capacity = none\n"
        + "train.stretch_schedule = true\n"
    )
    assert parse_config_text(dump_config(spec)) == spec


def test_dump_default_spec_roundtrip():
    spec = ExperimentSpec()
    assert parse_config_text(dump_config(spec)) == spec


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(MINIMAL + "out.dir = results\n")
    spec = load_config(path)
    assert spec.out_dir == "results"


def test_derived_configs():
    spec = parse_config_text(MINIMAL + "strategy.pad_to_m = true\n")
    sc = spec.strategy_config("grad_match", 0.25)
    assert sc.kind == "grad_match" and sc.fraction == 0.25 and sc.pad_to_m
    tc = spec.train_config(0.25, seed=7)
    assert tc.fraction == 0.25 and tc.seed == 7
    assert spec.train.fraction == 1.0  # base config untouched


def test_every_known_key_parseable():
    # Each schema entry names a real attribute on its target object.
    spec = ExperimentSpec()
    for key, (target, attr, _) in KNOWN_KEYS.items():
        if target == "preset":
            continue
        obj = {
            "spec": spec,
            "dataset": spec.dataset,
            "train": spec.train,
            "strategy": spec.strategy,
        }[target]
        assert hasattr(obj, attr), key
