"""Flat key=value experiment configuration with named hyperparameter presets.

The format is one ``key = value`` pair per line; ``#`` starts a comment at
the start of a line or after whitespace, so a value may hold ``#``. Lists
are comma-separated. Unknown keys are hard errors. The full schema is
documented in the README and in ``REQUIRED_KEYS`` / ``KNOWN_KEYS`` below.
"""

import re
from dataclasses import dataclass, field, replace

from .data import DatasetDescriptor
from .errors import DimensionMismatch, ParseError
from .model import Mlp
from .selection import StrategyConfig, check_subset_size
from .trainer import TrainConfig, forward_batch

# Named training presets (momentum, schedule, budget, batch size).
PRESETS = {
    "cifar_style": dict(
        momentum=0.9, nesterov=True, weight_decay=5e-4, epochs=200, base_lr=0.1,
        schedule="step", milestones=(60, 120, 160), decay_factor=0.2, base_batch=128,
    ),
    "svhn_style": dict(
        momentum=0.9, nesterov=True, weight_decay=5e-4, epochs=80, base_lr=0.01,
        schedule="cosine", milestones=(), decay_factor=0.2, base_batch=128,
    ),
    "imagenet32_style": dict(
        momentum=0.9, nesterov=False, weight_decay=5e-4, epochs=40, base_lr=0.01,
        schedule="step", milestones=(10, 20, 30), decay_factor=0.2, base_batch=128,
    ),
}


@dataclass
class ExperimentSpec:
    dataset: DatasetDescriptor = field(default_factory=DatasetDescriptor)
    hidden: tuple = (32,)
    activation: str = "relu"
    train: TrainConfig = field(default_factory=TrainConfig)
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    strategy_kinds: tuple = ("random",)
    fractions: tuple = (0.5,)
    seeds: tuple = (0,)
    eval_num_batches: int = 200
    eval_batch: int = 128
    eval_subset: int = 32
    out_dir: str = "runs"

    def __post_init__(self):
        # Each grid value is checked by building what its cell builds.
        builders = {"strategy_kinds": self.strategy_config,
                    "fractions": lambda f: forward_batch(self.train_config(f, 0)),
                    "seeds": lambda seed: self.train_config(1.0, seed)}
        for name, build in builders.items():
            values = getattr(self, name)
            if not values or len(set(values)) != len(values):
                raise ValueError(f"{name} must be non-empty with no repeated value, got {values}")
            for value in values:
                try:
                    build(value)
                except (ValueError, DimensionMismatch) as exc:  # _build names the list's line
                    raise ValueError(f"{name} holds {value!r}: {exc}") from exc
        Mlp(activation=self.activation)  # the model's own activation check
        if not all(h >= 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")
        try:
            check_subset_size(self.eval_subset, self.eval_batch)
        except DimensionMismatch as exc:  # a ValueError names its key's line
            raise ValueError(f"eval_subset of eval_batch rows: {exc}") from exc
        if self.eval_num_batches < 1:
            raise ValueError(f"eval_num_batches must be >= 1, got {self.eval_num_batches}")

    def strategy_config(self, kind):
        return replace(self.strategy, kind=kind)

    def train_config(self, fraction, seed):
        return replace(self.train, fraction=fraction, seed=seed)


REQUIRED_KEYS = ("dataset.kind", "strategy.kinds")

# A comment starts at a '#' that begins the line or follows whitespace.
COMMENT = re.compile(r"(?:^|\s)#")

# ExperimentSpec fields that hold a config object, each built from its keys.
SECTIONS = {"dataset": DatasetDescriptor, "train": TrainConfig, "strategy": StrategyConfig}


def _bool(s):
    s = s.lower()
    if s in ("true", "1", "yes"):
        return True
    if s in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _tuple(parse):
    """A parser of comma-separated ``parse`` values; an empty value gives ()."""
    return lambda s: tuple(parse(x.strip()) for x in s.split(",")) if s else ()


# key -> (target, attribute, parser) where target is "spec", "preset" or a
# name in SECTIONS. Values reach their parser stripped.
KNOWN_KEYS = {
    "preset": ("preset", None, str),
    "dataset.kind": ("dataset", "kind", str),
    "dataset.path": ("dataset", "path", str),
    "dataset.label_col": ("dataset", "label_col", str),
    "dataset.feature_cols": ("dataset", "feature_cols", _tuple(str)),
    "dataset.split": ("dataset", "split", float),
    "dataset.split_seed": ("dataset", "split_seed", int),
    "dataset.n": ("dataset", "n", int),
    "dataset.classes": ("dataset", "classes", int),
    "dataset.dim": ("dataset", "dim", int),
    "dataset.separation": ("dataset", "separation", float),
    "dataset.noise": ("dataset", "noise", float),
    "dataset.seed": ("dataset", "seed", int),
    "model.hidden": ("spec", "hidden", _tuple(int)),
    "model.activation": ("spec", "activation", str),
    "train.base_batch": ("train", "base_batch", int),
    "train.batch_mode": ("train", "batch_mode", str),
    "train.epochs": ("train", "epochs", int),
    "train.momentum": ("train", "momentum", float),
    "train.nesterov": ("train", "nesterov", _bool),
    "train.weight_decay": ("train", "weight_decay", float),
    "train.schedule": ("train", "schedule", str),
    "train.milestones": ("train", "milestones", _tuple(int)),
    "train.decay_factor": ("train", "decay_factor", float),
    "train.base_lr": ("train", "base_lr", float),
    "train.lr_factor": ("train", "lr_factor", float),
    "train.stretch_schedule": ("train", "stretch_schedule", _bool),
    "train.label_noise": ("train", "label_noise", float),
    "strategy.kinds": ("spec", "strategy_kinds", _tuple(str)),
    "strategy.cdf_source": ("strategy", "cdf_source", str),
    "grid.fractions": ("spec", "fractions", _tuple(float)),
    "grid.seeds": ("spec", "seeds", _tuple(int)),
    "eval.num_batches": ("spec", "eval_num_batches", int),
    "eval.batch": ("spec", "eval_batch", int),
    "eval.subset": ("spec", "eval_subset", int),
    "out.dir": ("spec", "out_dir", str),
}


def parse_config_text(text):
    """Parse config text into an ExperimentSpec. See :func:`load_config`."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = (lineno, value)

    missing = [k for k in REQUIRED_KEYS if k not in pairs]
    if missing:
        raise ParseError(f"missing required keys: {', '.join(missing)}")

    kwargs = {target: {} for target in ("spec", *SECTIONS)}
    if "preset" in pairs:
        _, value = pairs.pop("preset")
        if value not in PRESETS:
            raise ParseError(
                f"unknown preset {value!r}; choose from {sorted(PRESETS)}"
            )
        kwargs["train"].update(PRESETS[value])

    for key, (lineno, value) in pairs.items():
        target, attr, parser = KNOWN_KEYS[key]
        try:
            parsed = parser(value)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        kwargs[target][attr] = parsed

    for name, cls in SECTIONS.items():
        kwargs["spec"][name] = _build(name, cls, kwargs[name], pairs)
    return _build("spec", ExperimentSpec, kwargs["spec"], pairs)


def _build(target, cls, kwargs, pairs):
    """``cls(**kwargs)``; a value its own checks reject is a ParseError that
    names the line of the key whose field the message names first."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        lines = {KNOWN_KEYS[k][1]: f"line {n}: bad value for {k!r}"
                 for k, (n, _) in pairs.items() if KNOWN_KEYS[k][0] == target}
        at = next((lines[w] for w in str(exc).split() if w in lines), f"bad {target} settings")
        raise ParseError(f"{at}: {exc}") from exc


def load_config(path):
    """Load an ExperimentSpec from a flat key=value file.

    Raises :class:`ParseError` with line diagnostics on malformed input and
    on keys outside the schema.
    """
    with open(path) as fh:
        return parse_config_text(fh.read())


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(spec):
    """Serialize a spec so that parse(dump(spec)) == spec. Raises
    :class:`ParseError` for a value the parser would read as a comment."""
    lines = []
    for key, (target, attr, _) in KNOWN_KEYS.items():
        if target == "preset":
            continue
        owner = spec if target == "spec" else getattr(spec, target)
        value = _fmt(getattr(owner, attr))
        if COMMENT.search(value):
            raise ParseError(f"{key} = {value!r}: its '#' would be read as a comment")
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
