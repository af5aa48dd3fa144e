"""Experiment configuration: a flat ``key = value`` file with dotted keys.

No environment variables, no includes — everything an experiment needs is in
one file plus command-line overrides, so a run is reproducible from the
config text alone.  Unknown keys are rejected with the offending line number.
"""

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .fedavg import FederationConfig
from .fusion import FusionConfig
from .psi import PsiBackend
from .synth import SyntheticSpec

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config"]


class ConfigError(ValueError):
    pass


_ARCHES = ("gcn", "sage")
_PSI_BACKENDS = {"plain": None, "ddh": PsiBackend()}
# a relation name becomes a CSV field, a file-name part and an arm suffix
_RELATION_NAME = re.compile(r"[A-Za-z0-9_-]+")


@dataclass
class ExperimentConfig:
    """Every setting of an experiment.  Each stage's settings live in its own
    section object (``synth``, ``fusion``, ``federation``), which checks
    them; the rest are checked here."""

    arch: str = "gcn"
    seeds: tuple = (0,)
    arms: tuple = ("2sfgl", "fedavg_only", "local")
    out_dir: str = "out"
    synth: SyntheticSpec = None
    node_path: str = None
    relation_paths: dict = field(default_factory=dict)
    fusion: FusionConfig = FusionConfig()
    federation: FederationConfig = FederationConfig()
    ratio_low: float = 0.5
    ratio_high: float = 2.0
    train_frac: float = 0.6
    fanout: int = 5
    lr: float = 0.005
    window_lo: int = 60
    window_hi: int = 100

    def __post_init__(self):
        """Check every setting.  ``arms`` is resolved: ``local`` becomes one
        ``local_<relation>`` per relation, and each arm names a history file."""
        if self.arch not in _ARCHES:
            raise ConfigError(f"unknown arch {self.arch!r}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"duplicate seed in {self.seeds}")
        if not self.arms:
            raise ConfigError("need at least one arm")
        names = sorted(self.relation_paths if self.synth is None
                       else self.synth.relation_names())
        arms = [resolved for arm in self.arms for resolved in
                ([f"local_{name}" for name in names] if arm == "local" else [arm])]
        known = {"2sfgl", "fedavg_only", *(f"local_{name}" for name in names)}
        for arm in arms:
            if arm not in known:
                raise ConfigError(f"unknown arm {arm!r}")
            if arms.count(arm) > 1:
                raise ConfigError(f"arm {arm!r} is listed more than once")
        self.arms = tuple(arms)
        if self.synth is None and self.node_path is None:
            raise ConfigError("config needs either synth.* keys or data.* paths")
        if self.synth is not None and self.node_path is not None:
            raise ConfigError("synth.* and data.* are mutually exclusive")
        if self.node_path is not None and not self.relation_paths:
            raise ConfigError("data.nodes given but no data.relation.<name> keys")
        if not 0 < self.train_frac < 1:
            raise ConfigError("split.train_frac must lie in (0, 1), got "
                              f"{self.train_frac}")
        # ratio_high = 0 would drop every positive, which no metric survives
        if not 0 <= self.ratio_low <= self.ratio_high or self.ratio_high == 0:
            raise ConfigError("sample ratios must satisfy 0 <= ratio_low <= "
                              f"ratio_high, ratio_high > 0, got {self.ratio_low}"
                              f" and {self.ratio_high}")
        if not 0 < self.lr < math.inf:
            raise ConfigError("model.lr must be positive and finite, got "
                              f"{self.lr}")
        if self.fanout < 1:
            raise ConfigError(f"model.fanout must be >= 1, got {self.fanout}")
        if not 1 <= self.window_lo <= self.window_hi:
            raise ConfigError("report window must satisfy 1 <= lo <= hi")
        if self.window_hi > self.federation.rounds:
            raise ConfigError(
                f"report window ends at round {self.window_hi} but the run "
                f"has only {self.federation.rounds} rounds")


def _parse_scalar(text: str, kind: type, key: str, lineno: int):
    try:
        if kind is bool:
            raise TypeError
        if kind is float and text == "inf":
            return math.inf
        return kind(text)
    except (TypeError, ValueError):
        raise ConfigError(f"line {lineno}: key {key!r} expects {kind.__name__}, "
                          f"got {text!r}") from None


# key -> (section, attribute, type); section "top" is ExperimentConfig itself
_SCHEMA = {
    "arch": ("top", "arch", str),
    "out_dir": ("top", "out_dir", str),
    "fusion.lambda": ("fusion", "lam", float),
    "fusion.hops": ("fusion", "hops", int),
    "fusion.dp_epsilon": ("fusion", "dp_epsilon", float),
    "federation.rounds": ("federation", "rounds", int),
    "federation.local_steps": ("federation", "local_steps", int),
    "sample.ratio_low": ("top", "ratio_low", float),
    "sample.ratio_high": ("top", "ratio_high", float),
    "split.train_frac": ("top", "train_frac", float),
    "model.fanout": ("top", "fanout", int),
    "model.lr": ("top", "lr", float),
    "report.window_lo": ("top", "window_lo", int),
    "report.window_hi": ("top", "window_hi", int),
    "synth.nodes": ("synth", "nodes", int),
    "synth.fraud_fraction": ("synth", "fraud_fraction", float),
    "synth.relations": ("synth", "relations", int),
    "synth.intra_p": ("synth", "intra_p", float),
    "synth.inter_p": ("synth", "inter_p", float),
    "synth.features": ("synth", "features", int),
    "synth.class_sep": ("synth", "class_sep", float),
    "synth.coverage": ("synth", "coverage", float),
}
# section -> the object its keys build; synth is built only when a key names it
_SECTIONS = {"synth": SyntheticSpec, "fusion": FusionConfig,
             "federation": FederationConfig}


def parse_config(text: str, base_dir=".") -> ExperimentConfig:
    """Parse config text.  Relative data paths resolve against base_dir."""
    base_dir = Path(base_dir)
    top = {}
    sections = {name: {} for name in _SECTIONS}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key == "seeds":
            top["seeds"] = tuple(_parse_scalar(part.strip(), int, key, lineno)
                                 for part in value.split(","))
        elif key == "arms":
            top["arms"] = tuple(part.strip() for part in value.split(","))
        elif key == "data.nodes":
            top["node_path"] = str(base_dir / value)
        elif key.startswith("data.relation."):
            name = key[len("data.relation."):]
            if not name:
                raise ConfigError(f"line {lineno}: relation name missing in {key!r}")
            if not _RELATION_NAME.fullmatch(name):
                raise ConfigError(f"line {lineno}: relation name {name!r} may "
                                  "hold only letters, digits, '_' and '-'")
            top.setdefault("relation_paths", {})[name] = str(base_dir / value)
        elif key == "fusion.psi":
            if value not in _PSI_BACKENDS:
                raise ConfigError("fusion.*: psi must be 'plain' or 'ddh', "
                                  f"got {value!r}")
            sections["fusion"]["psi"] = _PSI_BACKENDS[value]
        elif key in _SCHEMA:
            section, attr, kind = _SCHEMA[key]
            parsed = _parse_scalar(value, kind, key, lineno)
            (top if section == "top" else sections[section])[attr] = parsed
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    for name, build in _SECTIONS.items():
        if name == "synth" and not sections[name]:
            continue
        try:
            top[name] = build(**sections[name])
        except ValueError as exc:
            raise ConfigError(f"{name}.*: {exc}") from None
    try:
        return ExperimentConfig(**top)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cfg = parse_config(text, base_dir=path.parent)
    if cfg.node_path is not None:
        missing = [p for p in [cfg.node_path, *cfg.relation_paths.values()]
                   if not Path(p).is_file()]
        if missing:
            raise ConfigError(f"config {path}: missing data files: "
                              + ", ".join(sorted(missing)))
    return cfg
