"""Experiment configuration files.

YAML documents with six sections — ``streams``, ``truth``, ``rule``,
``budget``, ``run``, ``output`` — plus an optional ``calibrate`` section
consumed by the calibrate command.  The schema is strict: unknown keys,
keys repeated within a mapping, and wrong types are rejected with the
offending field named, and such problems raise ConfigError (the CLI's
configuration exit class).  Semantic errors that only the assembled
experiment can detect (rule/metric compatibility, say) surface later from
the engine as runtime errors.

The ``rule`` section is read from the rule class that ``type`` names: its
dataclass fields, with a barrier rule's thresholds nested under
``thresholds``.  Threshold values may be the string "auto", which resolves
them through the closed-form formulas at the configured budget (the rule's
``at_budget``), with the bound constant of the rule's ``control`` metric
(default fdr); a control metric without constants for the rule is a
configuration error.  The sweep command uses the same control metric.
The ``calibrate`` section is read from the fields of CalibrationSettings,
which checks its own values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be a mapping, got {type(value).__name__}")
    return dict(value)


def _pop(section: dict, path: str, key: str, required: bool = True, default=None):
    if key not in section:
        if required:
            raise ConfigError(f"{path}.{key} is required")
        return default
    return section.pop(key)


def _names(keys) -> str:
    """Keys as the file spells them: YAML reads a bare `null` key as None,
    and a number key as a number."""
    return ", ".join(sorted("null" if key is None else str(key) for key in keys))


def _done(section: dict, path: str) -> None:
    if section:
        raise ConfigError(f"unknown key(s) under {path}: {_names(section)}")


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


def _parse_model(doc: dict, path: str) -> StreamModel:
    section = _mapping(doc, path)
    if None in section:  # YAML reads an unquoted `null:` key as None
        if "null" in section:
            raise ConfigError(f"duplicate key 'null' under {path} (bare and quoted)")
        section["null"] = section.pop(None)
    family = _as_str(_pop(section, path, "family"), f"{path}.family")
    null = _as_number(_pop(section, path, "null"), f"{path}.null")
    alt = _as_number(_pop(section, path, "alt"), f"{path}.alt")
    _done(section, path)
    try:
        return StreamModel(family=family, null=null, alt=alt)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_streams(doc) -> StreamProfile:
    if isinstance(doc, list):
        if len(doc) < 2:
            raise ConfigError("streams list needs at least 2 entries")
        return StreamProfile(
            models=tuple(
                _parse_model(entry, f"streams[{i}]") for i, entry in enumerate(doc)
            )
        )
    section = _mapping(doc, "streams")
    count = _as_int(_pop(section, "streams", "count"), "streams.count")
    checked(check_count, count, "streams.count", 2)
    model = _parse_model(section, "streams")
    return StreamProfile.homogeneous(model, count)


def _parse_truth(doc, j: int) -> frozenset[int]:
    section = _mapping(doc, "truth")
    has_count = "count" in section
    has_indices = "indices" in section
    if has_count == has_indices:
        raise ConfigError("truth needs exactly one of 'count' or 'indices'")
    if has_count:
        count = _as_int(section.pop("count"), "truth.count")
        if not 0 <= count <= j:
            raise ConfigError(f"truth.count must be in 0..{j}, got {count}")
        truth = frozenset(range(1, count + 1))
    else:
        raw = section.pop("indices")
        if not isinstance(raw, list):
            raise ConfigError("truth.indices must be a list of stream labels")
        labels = [_as_int(x, "truth.indices") for x in raw]
        bad = [x for x in labels if not 1 <= x <= j]
        if bad:
            raise ConfigError(
                f"truth.indices must be in 1..{j}, got {sorted(set(bad))}"
            )
        repeated = sorted({x for x in labels if labels.count(x) > 1})
        if repeated:
            raise ConfigError(f"truth.indices: repeated {repeated}")
        truth = frozenset(labels)
    _done(section, "truth")
    return truth


def _parse_budget(doc) -> ErrorBudget:
    section = _mapping(doc, "budget")
    alpha = _as_number(_pop(section, "budget", "alpha"), "budget.alpha")
    beta = _as_number(_pop(section, "budget", "beta"), "budget.beta")
    _done(section, "budget")
    try:
        return ErrorBudget(alpha=alpha, beta=beta)
    except ValueError as exc:
        raise ConfigError(f"budget.{exc}") from exc


def _control_metric(section: dict) -> MetricKind:
    raw = _pop(section, "rule", "control", required=False, default="fdr")
    try:
        return MetricKind(_as_str(raw, "rule.control"))
    except ValueError as exc:
        raise ConfigError(
            f"rule.control must be one of {[k.value for k in MetricKind]}, got {raw!r}"
        ) from exc


def _need_budget(budget: ErrorBudget | None, what: str) -> ErrorBudget:
    if budget is None:
        raise ConfigError(f"{what} set to \"auto\" needs a budget section")
    return budget


# Stand-in for "auto" thresholds until the rule is resolved at the budget.
_AUTO_PLACEHOLDER = 1.0

# Each rule class by its type tag, and the parser of each field annotation
# (of a rule or of CalibrationSettings).
_RULES = {cls.name: cls for cls in get_args(Rule)}
_FIELD_PARSERS = {
    int: _as_int,
    float: _as_number,
    bool: _as_bool,
}


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
    section = _mapping(doc, "rule")
    kind = _as_str(_pop(section, "rule", "type"), "rule.type")
    if kind not in _RULES:
        raise ConfigError(f"rule.type must be one of {', '.join(_RULES)}; got {kind!r}")
    cls = _RULES[kind]
    types = get_type_hints(cls)
    nested = getattr(cls, "threshold_names", ())
    sub, auto = {}, None
    if nested:
        raw = _pop(section, "rule", "thresholds")
        if raw == "auto":
            raw, auto = dict.fromkeys(nested, _AUTO_PLACEHOLDER), "rule.thresholds"
        sub = _mapping(raw, "rule.thresholds")
    values = {}
    for name in (f.name for f in fields(cls)):
        where, path = (sub, "rule.thresholds") if name in nested else (section, "rule")
        raw = _pop(where, path, name, required=name != "level")
        if name == "level" and raw is None:
            raw = _need_budget(budget, "rule.level (omitted)").alpha
        elif name == "threshold" and raw == "auto":
            raw, auto = _AUTO_PLACEHOLDER, "rule.threshold"
        values[name] = _FIELD_PARSERS[types[name]](raw, f"{path}.{name}")
    _done(sub, "rule.thresholds")
    control = MetricKind.FDR
    if hasattr(cls, "at_budget"):
        control = _control_metric(section)
    _done(section, "rule")
    try:
        rule = cls(**values)
    except ValueError as exc:
        raise ConfigError(f"rule: {exc}") from exc
    if auto:
        budget = _need_budget(budget, auto)
        try:
            rule = rule.at_budget(budget, j, truth, control)
        except NoBoundConstants as exc:
            raise ConfigError(f"rule.control: {exc}") from exc
    return rule, control


def _parse_metrics(raw) -> tuple[MetricKind, ...]:
    if raw is None:
        return (MetricKind.FDR, MetricKind.FNR)
    if not isinstance(raw, list) or not raw:
        raise ConfigError("run.metrics must be a non-empty list of metric names")
    kinds = []
    for name in raw:
        try:
            kinds.append(MetricKind(_as_str(name, "run.metrics")))
        except ValueError as exc:
            raise ConfigError(
                f"run.metrics: unknown metric {name!r}; expected one of "
                f"{[k.value for k in MetricKind]}"
            ) from exc
    try:
        check_distinct(kinds, "run.metrics")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return tuple(kinds)


def _parse_calibration(doc) -> CalibrationSettings:
    """The ``calibrate`` section, read like a rule section from the fields of
    CalibrationSettings; an absent or null key keeps the field's default."""
    if doc is None:
        return CalibrationSettings()
    section = _mapping(doc, "calibrate")
    types = get_type_hints(CalibrationSettings)
    raw = {f.name: section.pop(f.name, None) for f in fields(CalibrationSettings)}
    _done(section, "calibrate")
    values = {
        key: _FIELD_PARSERS[types[key]](value, f"calibrate.{key}")
        for key, value in raw.items()
        if value is not None
    }
    try:
        return CalibrationSettings(**values)
    except ValueError as exc:
        # The settings name their fields; the file names its keys.
        message = str(exc)
        for key in raw:
            message = message.replace(key, f"calibrate.{key}")
        raise ConfigError(message) from exc


def build_config(doc, source: str = "<config>") -> LoadedConfig:
    """Assemble a parsed YAML document into a LoadedConfig."""
    top = _mapping(doc, source)
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

    run = _mapping(top["run"], "run")
    replications = _as_int(_pop(run, "run", "replications"), "run.replications")
    seed = _as_int(_pop(run, "run", "seed"), "run.seed")
    horizon_raw = _pop(run, "run", "horizon", required=False)
    horizon = (
        DEFAULT_HORIZON if horizon_raw is None else _as_int(horizon_raw, "run.horizon")
    )
    metrics = _parse_metrics(_pop(run, "run", "metrics", required=False))
    _done(run, "run")
    checked(check_count, replications, "run.replications")
    checked(check_word, seed, "run.seed")
    checked(check_count, horizon, "run.horizon")

    output_format = None
    output_path = None
    if "output" in top:
        out = _mapping(top["output"], "output")
        fmt = _pop(out, "output", "format", required=False)
        if fmt is not None:
            output_format = _as_str(fmt, "output.format")
            if output_format not in FORMATS:
                raise ConfigError(
                    f"output.format must be one of {FORMATS}, got {output_format!r}"
                )
        path = _pop(out, "output", "path", required=False)
        if path is not None:
            output_path = _as_str(path, "output.path")
        _done(out, "output")

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
