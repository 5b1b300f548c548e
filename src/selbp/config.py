"""Flat key=value experiment configuration with named hyperparameter presets.

One ``key = value`` pair per line of UTF-8 text, less one leading byte order
mark; ``#`` starts a comment at the start of a line or after whitespace. The
keys are ``preset``, ``SPEC_KEYS`` and ``<section>.<field>`` for every field in
``SECTIONS`` but the two a grid cell sets; a field's annotation picks its
value's parser. Unknown keys are errors.
"""

import math
import re
from dataclasses import dataclass, field, fields, replace
from typing import get_args, get_origin

from .data import DatasetDescriptor
from .errors import DimensionMismatch, ParseError
from .model import Mlp
from .trainer import StrategyConfig, TrainConfig, forward_batch

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
    hidden: tuple[int, ...] = (32,)
    activation: str = "relu"
    train: TrainConfig = field(default_factory=TrainConfig)
    cdf_source: str = "within_batch"
    strategy_kinds: tuple[str, ...] = ("random",)
    fractions: tuple[float, ...] = (0.5,)
    seeds: tuple[int, ...] = (0,)
    eval_num_batches: int = 200
    out_dir: str = "runs"

    def __post_init__(self):
        StrategyConfig(cdf_source=self.cdf_source)  # alone first: an error names its own line
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
        if self.eval_num_batches < 1:
            raise ValueError(f"eval_num_batches must be >= 1, got {self.eval_num_batches}")

    def strategy_config(self, kind):
        return StrategyConfig(kind=kind, cdf_source=self.cdf_source)

    def train_config(self, fraction, seed):
        return replace(self.train, fraction=fraction, seed=seed)


REQUIRED_KEYS = ("dataset.kind", "strategy.kinds")

# A comment starts at a '#' that begins the line or follows whitespace.
COMMENT = re.compile(r"(?:^|\s)#")

# ExperimentSpec fields that hold a config object, each built from its keys.
SECTIONS = {"dataset": DatasetDescriptor, "train": TrainConfig}


def _bool(s):
    s = s.lower()
    if s in ("true", "1", "yes"):
        return True
    if s in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _float(s):
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {s!r}")
    return value


def _parser(annotation):
    """The parser of a field's text: ``tuple[T, ...]`` reads comma-separated
    ``T`` values (an empty value gives ()), ``bool`` and ``float`` have their
    own, and any other annotation is the type itself."""
    if get_origin(annotation) is tuple:
        item = _parser(get_args(annotation)[0])
        return lambda s: tuple(item(x.strip()) for x in s.split(",")) if s else ()
    return {bool: _bool, float: _float}.get(annotation, annotation)


# ExperimentSpec's own keyed fields: key -> attribute.
SPEC_KEYS = {
    "model.hidden": "hidden", "model.activation": "activation",
    "strategy.kinds": "strategy_kinds", "strategy.cdf_source": "cdf_source",
    "grid.fractions": "fractions", "grid.seeds": "seeds",
    "eval.num_batches": "eval_num_batches", "out.dir": "out_dir",
}

# key -> (target, attribute, parser) where target is "spec", "preset" or a
# name in SECTIONS. Each section field is the key <section>.<field>, except
# the fraction and seed that the grid sets per cell. The field's annotation
# picks the parser; values reach it stripped.
KNOWN_KEYS = {
    "preset": ("preset", None, str),
    **{f"{name}.{f.name}": (name, f.name, _parser(f.type))
       for name, cls in SECTIONS.items() for f in fields(cls)
       if f"{name}.{f.name}" not in ("train.fraction", "train.seed")},
    **{key: ("spec", attr, _parser(ExperimentSpec.__annotations__[attr]))
       for key, attr in SPEC_KEYS.items()},
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
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_config_text(text.removeprefix("\ufeff"))  # less one leading byte order mark


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
    :class:`ParseError` for a value that would not read back as itself."""
    lines = []
    for key, (target, attr, parse) in KNOWN_KEYS.items():
        if target == "preset":
            continue
        owner = spec if target == "spec" else getattr(spec, target)
        value = getattr(owner, attr)
        text = _fmt(value)
        try:
            if len(text.splitlines()) > 1 or COMMENT.search(text) or parse(text.strip()) != value:
                raise ValueError
        except ValueError:
            raise ParseError(f"{key} = {text!r} would not read back as itself") from None
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
