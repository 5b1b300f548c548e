"""Flat key=value experiment configuration with named hyperparameter presets.

The format is one ``key = value`` pair per line; ``#`` starts a comment.
Lists are comma-separated. Unknown keys are hard errors. The full schema is
documented in the README and in ``REQUIRED_KEYS`` / ``KNOWN_KEYS`` below.
"""

from dataclasses import dataclass, field, replace

from .data import DatasetDescriptor
from .errors import ParseError, UnknownKey
from .selection import StrategyConfig
from .trainer import TrainConfig

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

    def strategy_config(self, kind, fraction):
        return replace(self.strategy, kind=kind, fraction=fraction)

    def train_config(self, fraction, seed):
        return replace(self.train, fraction=fraction, seed=seed)


REQUIRED_KEYS = ("dataset.kind", "strategy.kinds")

# ExperimentSpec fields that hold a config object, each built from its keys.
SECTIONS = {"dataset": DatasetDescriptor, "train": TrainConfig, "strategy": StrategyConfig}

# key -> (target, attribute, parser) where target is "spec", "preset" or a
# name in SECTIONS.
_INT = int
_FLOAT = float


def _bool(s):
    s = s.strip().lower()
    if s in ("true", "1", "yes"):
        return True
    if s in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _str(s):
    return s.strip()


def _ints(s):
    s = s.strip()
    return tuple(int(x) for x in s.split(",")) if s else ()


def _floats(s):
    s = s.strip()
    return tuple(float(x) for x in s.split(",")) if s else ()


def _strs(s):
    s = s.strip()
    return tuple(x.strip() for x in s.split(",")) if s else ()


KNOWN_KEYS = {
    "preset": ("preset", None, _str),
    "dataset.kind": ("dataset", "kind", _str),
    "dataset.path": ("dataset", "path", _str),
    "dataset.label_col": ("dataset", "label_col", _str),
    "dataset.feature_cols": ("dataset", "feature_cols", _strs),
    "dataset.split": ("dataset", "split", _FLOAT),
    "dataset.split_seed": ("dataset", "split_seed", _INT),
    "dataset.n": ("dataset", "n", _INT),
    "dataset.classes": ("dataset", "classes", _INT),
    "dataset.dim": ("dataset", "dim", _INT),
    "dataset.separation": ("dataset", "separation", _FLOAT),
    "dataset.noise": ("dataset", "noise", _FLOAT),
    "dataset.seed": ("dataset", "seed", _INT),
    "model.hidden": ("spec", "hidden", _ints),
    "model.activation": ("spec", "activation", _str),
    "train.base_batch": ("train", "base_batch", _INT),
    "train.batch_mode": ("train", "batch_mode", _str),
    "train.epochs": ("train", "epochs", _INT),
    "train.momentum": ("train", "momentum", _FLOAT),
    "train.nesterov": ("train", "nesterov", _bool),
    "train.weight_decay": ("train", "weight_decay", _FLOAT),
    "train.schedule": ("train", "schedule", _str),
    "train.milestones": ("train", "milestones", _ints),
    "train.decay_factor": ("train", "decay_factor", _FLOAT),
    "train.base_lr": ("train", "base_lr", _FLOAT),
    "train.lr_factor": ("train", "lr_factor", _FLOAT),
    "train.stretch_schedule": ("train", "stretch_schedule", _bool),
    "train.label_noise": ("train", "label_noise", _FLOAT),
    "strategy.kinds": ("spec", "strategy_kinds", _strs),
    "strategy.cdf_source": ("strategy", "cdf_source", _str),
    "grid.fractions": ("spec", "fractions", _floats),
    "grid.seeds": ("spec", "seeds", _ints),
    "eval.num_batches": ("spec", "eval_num_batches", _INT),
    "eval.batch": ("spec", "eval_batch", _INT),
    "eval.subset": ("spec", "eval_subset", _INT),
    "out.dir": ("spec", "out_dir", _str),
}


def parse_config_text(text):
    """Parse config text into an ExperimentSpec. See :func:`load_config`."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise UnknownKey(f"line {lineno}: unknown key {key!r}")
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

    sections = {}
    for name, cls in SECTIONS.items():
        try:
            sections[name] = cls(**kwargs[name])
        except ValueError as exc:  # rejected by the section's own checks
            at = [f"line {n}: bad value for {k!r}" for k, (n, _) in pairs.items()
                  if KNOWN_KEYS[k][0] == name and KNOWN_KEYS[k][1] in str(exc).split()]
            raise ParseError(f"{(at or [f'bad {name} settings'])[0]}: {exc}") from exc
    return ExperimentSpec(**sections, **kwargs["spec"])


def load_config(path):
    """Load an ExperimentSpec from a flat key=value file.

    Raises :class:`ParseError` with line diagnostics on malformed input and
    :class:`UnknownKey` on keys outside the schema.
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
    """Serialize a spec so that parse(dump(spec)) == spec."""
    lines = []
    for key, (target, attr, _) in KNOWN_KEYS.items():
        if target == "preset":
            continue
        owner = spec if target == "spec" else getattr(spec, target)
        lines.append(f"{key} = {_fmt(getattr(owner, attr))}")
    return "\n".join(lines) + "\n"
