"""Experiment configuration files.

YAML documents with six sections — ``streams``, ``truth``, ``rule``,
``budget``, ``run``, ``output`` — plus an optional ``calibrate`` section
consumed by the calibrate command.  The schema is strict: unknown keys,
keys repeated within a mapping, and wrong types are rejected with the
offending field named, and such problems raise ConfigError (the CLI's
configuration exit class).  Semantic errors that only the assembled
experiment can detect (a metric the rule or the truth leaves undefined,
which ``metrics`` checks) surface later as runtime errors.

The ``rule`` section is read from the rule class that ``type`` names: its
dataclass fields, with a barrier rule's thresholds nested under
``thresholds``.  Threshold values may be the string "auto", which resolves
them through the closed-form formulas at the configured budget (the rule's
``at_budget``), with the bound constant of the rule's ``control`` metric
(default fdr); a control metric without constants for the rule is a
configuration error.  The sweep command uses the same control metric.
The stream models and the ``budget`` and ``calibrate`` sections are read
from the fields of StreamModel, ErrorBudget and CalibrationSettings, which
check their own values.  An optional key takes its default when absent or
null; a required key must be present.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, fields
from functools import partial
from typing import get_args, get_type_hints

import yaml

from .calibrate import CalibrationSettings
from .engine import DEFAULT_HORIZON, ExperimentConfig
from .metrics import MetricKind, NoBoundConstants, check_distinct
from .models import (
    StreamModel,
    StreamProfile,
    check_count,
    check_int,
    check_real,
    check_word,
)
from .rules import Rule
from .thresholds import ErrorBudget

FORMATS = ("csv", "json", "text")


class ConfigError(ValueError):
    """A configuration document is malformed; message names the field."""


@dataclass(frozen=True)
class LoadedConfig:
    """A fully resolved configuration document."""

    experiment: ExperimentConfig
    budget: ErrorBudget | None
    control: MetricKind
    calibration: CalibrationSettings
    output_format: str | None
    output_path: str | None


def _names(keys) -> str:
    """Keys as the file spells them: YAML reads a bare `null` key as None,
    and a number key as a number."""
    return ", ".join(sorted("null" if key is None else str(key) for key in keys))


class _Section:
    """One mapping of the document at ``path``, read a key at a time.

    ``take`` parses a key's value under its full name ``path.key``.  A key
    with a default is optional: absent or null, it takes the default.  A
    required key must be present, and a null value is its parser's to
    reject.  ``done`` rejects the keys left.
    """

    def __init__(self, value, path: str):
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be a mapping, got {type(value).__name__}")
        self.keys = dict(value)
        self.path = path

    def name(self, key: str) -> str:
        return f"{self.path}.{key}"

    def take(self, key: str, parse, default=MISSING):
        if key not in self.keys and default is MISSING:
            raise ConfigError(f"{self.name(key)} is required")
        value = self.keys.pop(key, None)
        if value is None and default is not MISSING:
            return default
        return parse(value, self.name(key))

    def done(self) -> None:
        if self.keys:
            raise ConfigError(f"unknown key(s) under {self.path}: {_names(self.keys)}")


def checked(check, value, name: str, *args):
    """``check(value, name, *args)``, one of the input checks of
    ``models``, with its ValueError raised as a ConfigError."""
    try:
        return check(value, name, *args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


_as_int = partial(checked, check_int)
_as_number = partial(checked, check_real)


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {value!r}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be a boolean, got {value!r}")
    return value


# The parser of each field annotation of a dataclass read from a section.
_FIELD_PARSERS = {
    int: _as_int,
    float: _as_number,
    bool: _as_bool,
    str: _as_str,
}


def _read_fields(cls, section: _Section) -> dict:
    """Each field of the dataclass ``cls`` read from ``section`` by its
    annotation, a field with a default optional; no other key is allowed."""
    types = get_type_hints(cls)
    values = {
        f.name: section.take(f.name, _FIELD_PARSERS[types[f.name]], f.default)
        for f in fields(cls)
    }
    section.done()
    return values


def _parse_model(section: _Section) -> StreamModel:
    if None in section.keys:  # YAML reads an unquoted `null:` key as None
        if "null" in section.keys:
            raise ConfigError(
                f"duplicate key 'null' under {section.path} (bare and quoted)"
            )
        section.keys["null"] = section.keys.pop(None)
    values = _read_fields(StreamModel, section)
    try:
        return StreamModel(**values)
    except ValueError as exc:
        raise ConfigError(f"{section.path}: {exc}") from exc


def _parse_streams(doc) -> StreamProfile:
    if isinstance(doc, list):
        if len(doc) < 2:
            raise ConfigError("streams list needs at least 2 entries")
        return StreamProfile(
            models=tuple(
                _parse_model(_Section(entry, f"streams[{i}]"))
                for i, entry in enumerate(doc)
            )
        )
    section = _Section(doc, "streams")
    count = section.take("count", lambda v, name: checked(check_count, v, name, 2))
    return StreamProfile.homogeneous(_parse_model(section), count)


def _as_labels(value, path: str) -> list[int]:
    if not isinstance(value, list):
        raise ConfigError(f"{path} must be a list of stream labels")
    return [_as_int(x, path) for x in value]


def _parse_truth(doc, j: int) -> frozenset[int]:
    section = _Section(doc, "truth")
    if ("count" in section.keys) == ("indices" in section.keys):
        raise ConfigError("truth needs exactly one of 'count' or 'indices'")
    if "count" in section.keys:
        count = section.take("count", _as_int)
        if not 0 <= count <= j:
            raise ConfigError(f"truth.count must be in 0..{j}, got {count}")
        labels = range(1, count + 1)
    else:
        labels = section.take("indices", _as_labels)
        bad = [x for x in labels if not 1 <= x <= j]
        if bad:
            raise ConfigError(
                f"truth.indices must be in 1..{j}, got {sorted(set(bad))}"
            )
        repeated = sorted({x for x in labels if labels.count(x) > 1})
        if repeated:
            raise ConfigError(f"truth.indices: repeated {repeated}")
    section.done()
    return frozenset(labels)


def _parse_budget(doc) -> ErrorBudget:
    values = _read_fields(ErrorBudget, _Section(doc, "budget"))
    try:
        return ErrorBudget(**values)
    except ValueError as exc:
        raise ConfigError(f"budget.{exc}") from exc


def _as_control(value, path: str) -> MetricKind:
    try:
        return MetricKind(_as_str(value, path))
    except ValueError as exc:
        raise ConfigError(
            f"{path} must be one of {[k.value for k in MetricKind]}, got {value!r}"
        ) from exc


# Each rule class by its type tag.
_RULES = {cls.name: cls for cls in get_args(Rule)}


def _parse_rule(
    doc,
    j: int,
    truth: frozenset[int],
    budget: ErrorBudget | None,
) -> tuple[Rule, MetricKind]:
    """The configured rule, "auto" thresholds resolved, and its control metric.

    Each field of the rule class is read by its annotation.  The fields in
    ``threshold_names`` nest under ``thresholds``, which may be "auto", as
    may a lone ``threshold``; only a rule with ``at_budget`` takes
    ``control``; an omitted ``level`` is the budget's alpha.
    """
    section = _Section(doc, "rule")
    kind = section.take("type", _as_str)
    if kind not in _RULES:
        raise ConfigError(f"rule.type must be one of {', '.join(_RULES)}; got {kind!r}")
    cls = _RULES[kind]
    types = get_type_hints(cls)
    nested = getattr(cls, "threshold_names", ())
    key = "thresholds" if nested else "threshold"
    auto = section.keys.get(key) == "auto"
    if auto:  # stand-ins until the rule is resolved at the budget
        section.keys[key] = dict.fromkeys(nested, 1.0) if nested else 1.0
    sub = section.take(key, _Section) if nested else None
    values = {}
    for name in (f.name for f in fields(cls)):
        where = sub if name in nested else section
        default = None if name == "level" else MISSING
        value = where.take(name, _FIELD_PARSERS[types[name]], default)
        if value is None and budget is None:
            raise ConfigError(
                f"{where.name(name)} is omitted, so it takes budget.alpha, "
                "but there is no budget section"
            )
        if value is None:
            value = budget.alpha
        values[name] = value
    if nested:
        sub.done()
    control = MetricKind.FDR
    if cls.sequential:
        control = section.take("control", _as_control, control)
    section.done()
    try:
        rule = cls(**values)
    except ValueError as exc:
        raise ConfigError(f"rule: {exc}") from exc
    if auto:
        if budget is None:
            raise ConfigError(
                f'{section.name(key)} set to "auto" needs a budget section'
            )
        try:
            rule = rule.at_budget(budget, j, truth, control)
        except NoBoundConstants as exc:
            raise ConfigError(f"rule.control: {exc}") from exc
    return rule, control


def _as_metrics(value, path: str) -> tuple[MetricKind, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a non-empty list of metric names")
    kinds = []
    for name in value:
        try:
            kinds.append(MetricKind(_as_str(name, path)))
        except ValueError as exc:
            raise ConfigError(
                f"{path}: unknown metric {name!r}; expected one of "
                f"{[k.value for k in MetricKind]}"
            ) from exc
    checked(check_distinct, kinds, path)
    return tuple(kinds)


def _as_format(value, path: str) -> str:
    if _as_str(value, path) not in FORMATS:
        raise ConfigError(f"{path} must be one of {FORMATS}, got {value!r}")
    return value


def _parse_calibration(doc) -> CalibrationSettings:
    """The ``calibrate`` section, read from the fields of
    CalibrationSettings; a null section keeps every default."""
    section = _Section({} if doc is None else doc, "calibrate")
    values = _read_fields(CalibrationSettings, section)
    try:
        return CalibrationSettings(**values)
    except ValueError as exc:
        # The settings name their fields; the file names its keys.
        message = str(exc)
        for key in values:
            message = message.replace(key, section.name(key))
        raise ConfigError(message) from exc


def build_config(doc, source: str = "<config>") -> LoadedConfig:
    """Assemble a parsed YAML document into a LoadedConfig."""
    top = _Section(doc, source).keys
    known = {"streams", "truth", "rule", "budget", "run", "calibrate", "output"}
    unknown = set(top) - known
    if unknown:
        raise ConfigError(f"unknown top-level section(s): {_names(unknown)}")
    for required in ("streams", "truth", "rule", "run"):
        if required not in top:
            raise ConfigError(f"missing required section: {required}")

    profile = _parse_streams(top["streams"])
    truth = _parse_truth(top["truth"], profile.j)
    budget = _parse_budget(top["budget"]) if "budget" in top else None
    rule, control = _parse_rule(top["rule"], profile.j, truth, budget)

    run = _Section(top["run"], "run")
    replications = run.take("replications", _as_int)
    seed = run.take("seed", _as_int)
    horizon = run.take("horizon", _as_int, DEFAULT_HORIZON)
    metrics = run.take("metrics", _as_metrics, (MetricKind.FDR, MetricKind.FNR))
    run.done()
    checked(check_count, replications, run.name("replications"))
    checked(check_word, seed, run.name("seed"))
    checked(check_count, horizon, run.name("horizon"))

    output = _Section(top.get("output", {}), "output")
    output_format = output.take("format", _as_format, None)
    output_path = output.take("path", _as_str, None)
    output.done()

    calibration = _parse_calibration(top.get("calibrate"))

    # Semantic assembly: errors from here on are the library's own and are
    # the CLI's runtime class, not configuration errors.
    experiment = ExperimentConfig(
        profile=profile,
        truth=truth,
        rule=rule,
        replications=replications,
        master_seed=seed,
        horizon=horizon,
        metrics=metrics,
    )
    return LoadedConfig(
        experiment=experiment,
        budget=budget,
        control=control,
        calibration=calibration,
        output_format=output_format,
        output_path=output_path,
    )


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that rejects a key repeated within one mapping."""

    def construct_mapping(self, node, deep=False):
        keys = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep=deep)
        seen = set()
        for key_node in keys:  # scalars: other keys are unhashable
            key = self.construct_object(key_node)
            if key in seen:
                line = key_node.start_mark.line + 1
                raise ConfigError(f"duplicate key {key_node.value!r} at line {line}")
            seen.add(key)
        return mapping


# YAML 1.1 floats need a dot and a signed exponent; read 1e-6 and 2.1e0 too.
_UniqueKeyLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"),
    None,
)


def load_config(path: str) -> LoadedConfig:
    """Read and assemble a YAML configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = yaml.load(handle, Loader=_UniqueKeyLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    return build_config(doc, source=path)
