"""Run configuration: a flat, sectioned key-value file (INI syntax, each
value read as written, ``%`` included) whose shipped defaults reproduce
the reference setup with zero flags.

Sections and keys (all optional except the seed, which must come from the
file or from ``--seed``); any other section or key is rejected:

    [run]       seed
    [data]      retained, discarded      (feature names, comma list)
    [synthetic] bounds = xmin,ymin,xmax,ymax ; scatter = N ;
                blob1..blobN = cx,cy,sx,sy,count  (taken in order of N)
    [labeling]  clusters, knn_k, score_multiplier
    [mlp]       hidden      (inputs: one per feature; outputs: 4 labels)
    [train]     max_epochs, patience
    [ga]        cycles, population, alpha, mutation_rate, selection_rate
    [split]     train, validation, test

:func:`load_config` reads the file once, holds every rule the file alone
decides, and names the key in each error it raises.  The records it
builds (``LabelingConfig``, ``TrainingConfig``, ``GaConfig``,
``SplitRatios`` and the ``SyntheticSpec``) are plain values that carry
no checks and no defaults of their own: this module is the only place a
shipped value is written.

It is also the only place a seed is decided.  Each purpose gets its own
stream of the run seed: the synthetic data, labeling, the stratified
split and the GA.  The conventional network's initial weights come from
the ``[ga seed, 1]`` substream of the GA's (:func:`anomtax.ga.conventional`).
"""

import configparser
import io
import math
import re
from typing import NamedTuple

import numpy as np

from .data import BlobSpec, SplitRatios, SyntheticSpec, read_input
from .ga import GaConfig
from .labeling import LabelingConfig
from .mlp import TrainingConfig

__all__ = ["RunConfig", "load_config"]

# substream tags for deriving purpose-specific seeds from the run seed
_STREAM_SYNTH = 0
_STREAM_LABEL = 1
_STREAM_SPLIT = 2
_STREAM_GA = 3

_DEFAULTS = """
[run]
seed =

[data]
retained =
discarded =

[synthetic]
bounds = -20, -20, 120, 120
scatter = 20
blob1 = 35, 35, 5, 5, 44
blob2 = 48, 44, 7, 4, 38
blob3 = 60, 52, 4, 7, 30
blob4 = 70, 62, 6, 6, 33
blob5 = 82, 72, 3, 3, 30

[labeling]
clusters = 5
knn_k = 5
score_multiplier = 2.0

[mlp]
hidden = 10

[train]
max_epochs = 200
patience = 6

[ga]
cycles = 20
population = 15
alpha = 0.3
mutation_rate = 0.1
selection_rate = 0.7

[split]
train = 0.70
validation = 0.15
test = 0.15
"""


class RunConfig(NamedTuple):
    """Every value of a run.  ``synth_seed`` and ``split_seed`` seed the
    synthetic data and the stratified split; the labeling and GA records
    carry their own seeds."""

    synth_seed: int
    split_seed: int
    retained: tuple
    discarded: tuple
    synthetic: SyntheticSpec
    labeling: LabelingConfig
    hidden: int
    training: TrainingConfig
    ga: GaConfig
    ratios: SplitRatios


def _number(section, key: str, kind=float, raw: str | None = None, *,
            low=None, high=None, strict: bool = False):
    """``[section] key`` as an int or a finite float; ``raw``, one item of
    the key's comma list, is parsed in its place when given.  A value
    below ``low`` (or equal to it when ``strict``) or above ``high``, like
    any other bad value, raises an error naming the key."""
    text = (section.get(key) if raw is None else raw).strip()
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or (kind is float and not math.isfinite(value)):
        what = "an integer" if kind is int else "a finite number"
        raise ValueError(f"[{section.name}] {key} must be {what}, "
                         f"got {text!r}")
    too_low = low is not None and (value < low or strict and value == low)
    if too_low or high is not None and value > high:
        rule = (f"lie in [{low}, {high}]" if high is not None
                else f"be > {low}" if strict else f"be >= {low}")
        raise ValueError(f"[{section.name}] {key} must {rule}, got {value}")
    return value


def _feature_split(data):
    """The ``[data]`` lists ``(retained, discarded)``: both set or both
    empty, and no feature named twice in them."""
    retained, discarded = (
        tuple(filter(None, map(str.strip, data[key].split(","))))
        for key in ("retained", "discarded"))
    for key, names in (("retained", retained), ("discarded", discarded),
                       ("retained and discarded", retained + discarded)):
        twice = dict.fromkeys(n for i, n in enumerate(names) if n in names[:i])
        if twice:
            raise ValueError(f"[data] {key}: {', '.join(twice)} named twice")
    if bool(retained) != bool(discarded):
        given = "retained" if retained else "discarded"
        raise ValueError("[data] retained and discarded are set together, "
                         f"but only {given} is")
    return retained, discarded


def _derive_seed(seed: int, stream: int) -> int:
    """Stable child seed for a named substream of a run seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _synthetic_spec(section) -> SyntheticSpec:
    bounds = section.get("bounds").split(",")
    if len(bounds) != 4:
        raise ValueError("[synthetic] bounds needs xmin,ymin,xmax,ymax")
    blobs = []
    for key in sorted((k for k in section if k.startswith("blob")),
                      key=lambda k: int(k[4:])):
        vals = section.get(key).split(",")
        if len(vals) != 5:
            raise ValueError(f"[synthetic] {key} needs cx,cy,sx,sy,count")
        cx, cy, sx, sy = (_number(section, key, raw=v) for v in vals[:4])
        blobs.append(BlobSpec((cx, cy), (sx, sy),
                              _number(section, key, int, vals[4], low=1)))
    box = tuple(_number(section, "bounds", raw=v) for v in bounds)
    xmin, ymin, xmax, ymax = box
    if not (xmin <= xmax and ymin <= ymax
            and math.isfinite(xmax - xmin) and math.isfinite(ymax - ymin)):
        raise ValueError("[synthetic] bounds needs xmin <= xmax and ymin <= "
                         "ymax with finite widths, got "
                         f"{', '.join(map(str, box))}")
    return SyntheticSpec(tuple(blobs), _number(section, "scatter", int, low=0),
                         box)


def _reject_unread_keys(user, defaults, path) -> None:
    """Raise on the first section or key of ``user`` that ``defaults`` lacks;
    [synthetic] takes every blobN key, N a positive integer."""
    for name in user.sections():
        if not defaults.has_section(name):
            raise ValueError(f"{path}: [{name}] is not a config section; the "
                             f"sections are {', '.join(defaults.sections())}")
        for key in user[name]:
            if name == "synthetic" and re.fullmatch(r"blob[1-9][0-9]*", key):
                continue
            if not defaults.has_option(name, key):
                keys = [k for k in defaults[name] if not k.startswith("blob")]
                raise ValueError(f"{path}: [{name}] {key} is not a config "
                                 f"key; [{name}] accepts {', '.join(keys)}"
                                 + ", blobN" * (name == "synthetic"))


def load_config(path, seed) -> RunConfig:
    """Merge the shipped defaults, the config file at ``path`` (None for
    none), and the ``--seed`` override ``seed`` (None for none) into one
    validated RunConfig.  The seed is mandatory."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    parser.read_string(_DEFAULTS)
    if path is not None:
        # no section is named "", so [DEFAULT] is rejected like any other
        user = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                         default_section="",
                                         interpolation=None)
        try:
            user.read_file(io.StringIO(read_input(path), newline=None),
                           source=str(path))
        except configparser.MissingSectionHeaderError as exc:
            raise ValueError(f"{path}: line {exc.lineno}: no [section] header "
                             f"before {exc.line.strip()!r}") from None
        except configparser.ParsingError as exc:
            raise ValueError(f"{path}: line {exc.errors[0][0]}: neither a "
                             "[section] header nor key = value") from None
        except configparser.DuplicateOptionError as exc:
            raise ValueError(f"{path}: line {exc.lineno}: [{exc.section}] "
                             f"{exc.option} is set twice") from None
        except configparser.DuplicateSectionError as exc:
            raise ValueError(f"{path}: line {exc.lineno}: [{exc.section}] "
                             "appears twice") from None
        _reject_unread_keys(user, parser, path)
        values = {name: dict(user.items(name)) for name in user.sections()}
        # a user blob list replaces the default recipe instead of merging
        if any(k.startswith("blob") for k in values.get("synthetic", ())):
            for key in [k for k in parser["synthetic"]
                        if k.startswith("blob")]:
                parser.remove_option("synthetic", key)
        parser.read_dict(values)

    run = parser["run"]
    # the file's seed is checked even when --seed overrides it
    file_seed = _number(run, "seed", int) if run.get("seed").strip() else None
    for name, value in (("[run] seed", file_seed), ("--seed", seed)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be a non-negative integer, "
                             f"got {value}")
    seed = file_seed if seed is None else seed
    if seed is None:
        raise ValueError("a seed is required: set [run] seed in the config "
                         "file or pass --seed")

    retained, discarded = _feature_split(parser["data"])
    lab = parser["labeling"]
    labeling = LabelingConfig(
        num_clusters=_number(lab, "clusters", int, low=1),
        knn_k=_number(lab, "knn_k", int, low=1),
        pa_score_multiplier=_number(lab, "score_multiplier", low=0,
                                    strict=True),
        seed=_derive_seed(seed, _STREAM_LABEL),
    )
    hidden = _number(parser["mlp"], "hidden", int, low=1)
    tr = parser["train"]
    training = TrainingConfig(
        max_epochs=_number(tr, "max_epochs", int, low=1),
        patience=_number(tr, "patience", int, low=1),
    )
    ga = parser["ga"]
    ga_cfg = GaConfig(
        cycles=_number(ga, "cycles", int, low=1),
        population_size=_number(ga, "population", int, low=1),
        crossover_alpha=_number(ga, "alpha", low=0, high=1),
        mutation_rate=_number(ga, "mutation_rate", low=0, high=1),
        selection_rate=_number(ga, "selection_rate", low=0, high=1),
        seed=_derive_seed(seed, _STREAM_GA),
    )
    split = parser["split"]
    parts = [_number(split, key, low=0)
             for key in ("train", "validation", "test")]
    if abs(sum(parts) - 1.0) > 1e-9:
        raise ValueError("[split] train, validation and test must sum to 1, "
                         f"got {' + '.join(map(str, parts))} = {sum(parts)}")

    return RunConfig(
        synth_seed=_derive_seed(seed, _STREAM_SYNTH),
        split_seed=_derive_seed(seed, _STREAM_SPLIT),
        retained=retained, discarded=discarded,
        synthetic=_synthetic_spec(parser["synthetic"]),
        labeling=labeling,
        hidden=hidden,
        training=training,
        ga=ga_cfg,
        ratios=SplitRatios(*parts),
    )
