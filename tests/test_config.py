import math
import re
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from selbp.cli import _build_model
from selbp.config import (
    KNOWN_KEYS,
    PRESETS,
    SECTIONS,
    ExperimentSpec,
    dump_config,
    load_config,
    parse_config_text,
)
from selbp.data import DatasetDescriptor
from selbp.errors import ParseError
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
    with pytest.raises(ParseError, match="solver.magic"):
        parse_config_text(MINIMAL + "solver.magic = adam\n")
    # Removed keys: weights are always clipped to be non-negative, plain SGD
    # is train.momentum = 0, grad_match never pads its subset, and grad-error
    # sizes its batches and subsets as the grid's training cells do.
    for key in ("strategy.clip_negative", "train.optimizer", "strategy.pad_to_m",
                "eval.batch", "eval.subset"):
        with pytest.raises(ParseError, match=f"^line 3: unknown key {key!r}$"):
            parse_config_text(MINIMAL + f"{key} = false\n")


def test_cdf_source_key_sets_each_cells_strategy():
    spec = parse_config_text(MINIMAL + "strategy.cdf_source = rolling_buffer\n")
    assert spec.cdf_source == "rolling_buffer"
    assert parse_config_text(dump_config(spec)) == spec
    sc = spec.strategy_config("loss_based")
    assert sc == StrategyConfig(kind="loss_based", cdf_source="rolling_buffer")
    # The spec holds no strategy template whose kind and fraction no cell reads.
    assert "strategy" not in {f.name for f in fields(ExperimentSpec)}
    assert set(SECTIONS) == {"dataset", "train"}


def test_duplicate_key_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_config_text(MINIMAL + "dataset.kind = csv\n")


def test_bad_value_reports_line_and_key():
    with pytest.raises(ParseError, match="train.epochs"):
        parse_config_text(MINIMAL + "train.epochs = soon\n")


def test_value_rejected_by_its_section_reports_line_and_key():
    cases = (
        ("strategy.cdf_source = global\n", "line 3: bad value for 'strategy.cdf_source'"),
        ("train.schedule = linear\n", "line 3: bad value for 'train.schedule'"),
        ("dataset.n = 2\ndataset.classes = 3\n", "line 3: bad value for 'dataset.n'"),
        ("dataset.classes = 300\ndataset.n = 200\n", "line 4: bad value for 'dataset.n'"),
        ("train.milestones = 5,5\n", "line 3: bad value for 'train.milestones'"),
        ("dataset.classes = 0\n", "line 3: bad value for 'dataset.classes'"),
        ("dataset.dim = 0\n", "line 3: bad value for 'dataset.dim'"),
        # Blobs need dim >= classes - 1: the dim line if given, else the classes line.
        ("dataset.classes = 10\ndataset.dim = 2\n", "line 4: bad value for 'dataset.dim'"),
        ("dataset.classes = 10\n", "line 3: bad value for 'dataset.classes'"),
        ("dataset.seed = -1\n", "line 3: bad value for 'dataset.seed'"),
        ("dataset.split_seed = -1\n", "line 3: bad value for 'dataset.split_seed'"),
        ("train.base_lr = 0\n", "line 3: bad value for 'train.base_lr'"),
        ("train.momentum = 1\n", "line 3: bad value for 'train.momentum'"),
        ("train.weight_decay = -1e-4\n", "line 3: bad value for 'train.weight_decay'"),
        ("train.nesterov = maybe\n", "line 3: bad value for 'train.nesterov': not a boolean"),
        # A non-finite number is refused by the parser of every float field.
        *((f"{key} = {value}\n", f"line 3: bad value for {key!r}: not a finite number")
          for key in ("dataset.separation", "dataset.noise", "train.decay_factor")
          for value in ("nan", "inf", "-inf")),
        ("train.base_lr = inf\n", "line 3: bad value for 'train.base_lr': not a finite number"),
        ("train.weight_decay = inf\n",
         "line 3: bad value for 'train.weight_decay': not a finite number"),
    )
    for text, where in cases:
        with pytest.raises(ParseError) as exc:
            parse_config_text(MINIMAL + text)
        assert str(exc.value).startswith(where)


@pytest.mark.parametrize("text, key", [
    ("strategy.kinds = random, grad_mtch\n", "strategy.kinds"),
    ("strategy.kinds =\n", "strategy.kinds"),
    ("grid.fractions = 0.5, 1.5\n", "grid.fractions"),
    ("grid.fractions =\n", "grid.fractions"),
    ("grid.seeds =\n", "grid.seeds"),
    ("strategy.kinds = grad_match, random, grad_match\n", "strategy.kinds"),
    ("grid.fractions = 0.5, 0.50\n", "grid.fractions"),
    ("grid.fractions = 0.5, 0.001\n", "grid.fractions"),
    ("grid.seeds = 1, 2, 1\n", "grid.seeds"),
    ("grid.seeds = 1, -1\n", "grid.seeds"),
    ("model.activation = gelu\n", "model.activation"),
    ("model.hidden = 16, 0\n", "model.hidden"),
    ("eval.num_batches = 0\n", "eval.num_batches"),
    ("train.epochs = 0\n", "train.epochs"),
    ("train.base_batch = 0\n", "train.base_batch"),
])
def test_grid_level_value_rejected_at_parse_with_its_line(text, key):
    # The bad key is the last line, after "dataset.kind = blobs" and any kinds line.
    text = "dataset.kind = blobs\n" + ("" if key == "strategy.kinds" else
                                      "strategy.kinds = random\n") + text
    with pytest.raises(ParseError) as exc:
        parse_config_text(text)
    assert str(exc.value).startswith(f"line {text.count(chr(10))}: bad value for {key!r}")


def test_readme_config_examples_parse():
    # The documented example cannot drift from the schema.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        parse_config_text(block)


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
        + "train.stretch_schedule = true\n"
    )
    assert parse_config_text(dump_config(spec)) == spec


def test_dump_default_spec_roundtrip():
    spec = ExperimentSpec()
    assert parse_config_text(dump_config(spec)) == spec


def test_dump_parse_roundtrip_keeps_a_hash_inside_a_value():
    spec = parse_config_text(MINIMAL.replace("blobs", "csv")
                             + "dataset.path = data#1.csv\nout.dir = h#1  # comment\n")
    assert (spec.dataset.path, spec.out_dir) == ("data#1.csv", "h#1")
    assert parse_config_text(dump_config(spec)) == spec


# Each value, of out.dir, (a tuple) of dataset.feature_cols or (a float) of
# dataset.noise, would not read back as itself from the dumped text.
@pytest.mark.parametrize("value", ["runs #1", "#runs", "a\t#b", "runs ", "runs\nout.dir = b",
                                   ("a,b",), (" a",), math.nan])
def test_dump_refuses_a_value_it_cannot_write_back(value):
    if isinstance(value, tuple):
        spec = ExperimentSpec(dataset=DatasetDescriptor(feature_cols=value))
        key = "dataset.feature_cols"
    elif isinstance(value, float):
        spec, key = ExperimentSpec(dataset=DatasetDescriptor(noise=value)), "dataset.noise"
    else:
        spec, key = ExperimentSpec(out_dir=value), "out.dir"
    with pytest.raises(ParseError, match=re.escape(key)):
        dump_config(spec)


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(MINIMAL + "out.dir = results\n")
    spec = load_config(path)
    assert spec.out_dir == "results"


def test_load_config_reads_utf8_and_names_a_file_that_is_not(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_bytes((MINIMAL + "out.dir = résumé\n").encode("utf-8"))
    assert load_config(path).out_dir == "résumé"
    path.write_bytes(MINIMAL.encode() + b"out.dir = \xff\n")
    with pytest.raises(ParseError, match=f"{re.escape(str(path))} is not UTF-8 text"):
        load_config(path)


def test_load_config_drops_a_leading_byte_order_mark(tmp_path):
    text = MINIMAL + "out.dir = résumé\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_config(marked) == load_config(plain)


def test_derived_configs():
    spec = parse_config_text(MINIMAL + "strategy.cdf_source = rolling_buffer\n")
    sc = spec.strategy_config("grad_match")
    assert sc == StrategyConfig(kind="grad_match", cdf_source="rolling_buffer")
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
        }[target]
        assert hasattr(obj, attr), key


def test_every_section_field_has_a_key():
    # The reverse: a section field without a key would not survive
    # dump_config/parse_config_text. The spec's own fields count too, except
    # the sections, which their keys build. Only the grid sets each cell's
    # fraction and seed.
    keyed = {(target, attr) for target, attr, _ in KNOWN_KEYS.values()}
    grid = {("train", "fraction"), ("train", "seed"), *(("spec", name) for name in SECTIONS)}
    for name, cls in {"spec": ExperimentSpec, **SECTIONS}.items():
        for f in fields(cls):
            assert (name, f.name) in keyed | grid, f"{name}.{f.name}"


# A non-default value for every key. Each must change something a grid cell reads.
NON_DEFAULT = {
    "preset": "cifar_style",
    "dataset.kind": "two_moons",
    "dataset.path": "data.csv",
    "dataset.label_col": "target",
    "dataset.feature_cols": "a, b",
    "dataset.split": "0.5",
    "dataset.split_seed": "1",
    "dataset.n": "100",
    "dataset.classes": "2",
    "dataset.dim": "3",
    "dataset.separation": "2.0",
    "dataset.noise": "0.3",
    "dataset.seed": "1",
    "model.hidden": "16, 8",
    "model.activation": "tanh",
    "train.base_batch": "32",
    "train.batch_mode": "scaled",
    "train.epochs": "3",
    "train.momentum": "0.5",
    "train.nesterov": "false",
    "train.weight_decay": "0.001",
    "train.schedule": "step",
    "train.milestones": "1, 2",
    "train.decay_factor": "0.5",
    "train.base_lr": "0.05",
    "train.lr_factor": "2.0",
    "train.stretch_schedule": "true",
    "train.label_noise": "0.1",
    "strategy.kinds": "grad_match",
    "strategy.cdf_source": "rolling_buffer",
    "grid.fractions": "0.25",
    "grid.seeds": "1",
    "eval.num_batches": "10",
    "out.dir": "elsewhere",
}


def cell_inputs(spec):
    """What a grid cell reads of a spec: the dataset descriptor, the model
    ``_build_model`` returns, the cell's train and strategy configs, and the
    grid, eval and out fields."""
    stand_in = SimpleNamespace(X_train=np.zeros((1, 3)), num_classes=2)
    model = _build_model(spec, stand_in, seed=5)
    return (
        spec.dataset,
        model.activation,
        [W.shape for W, _ in model.layers],
        model.get_params().tolist(),
        spec.train_config(0.5, 5),
        spec.strategy_config("loss_based"),
        spec.strategy_kinds, spec.fractions, spec.seeds,
        spec.eval_num_batches, spec.out_dir,
    )


def test_every_key_changes_what_a_cell_reads():
    # A key that nothing reads is a dead option: setting it must show.
    assert set(NON_DEFAULT) == set(KNOWN_KEYS)
    base = {"dataset.kind": "blobs", "strategy.kinds": "random"}
    default = cell_inputs(parse_config_text(MINIMAL))
    for key, value in NON_DEFAULT.items():
        text = "".join(f"{k} = {v}\n" for k, v in {**base, key: value}.items())
        assert cell_inputs(parse_config_text(text)) != default, key
