"""Tests for the YAML configuration schema."""

import math
import re
import textwrap
from dataclasses import fields
from typing import get_args

import pytest
import yaml

from seqgap import ConfigError, MetricKind, load_config
from seqgap.cli import main
from seqgap.config import _UniqueKeyLoader, build_config
from seqgap.rules import (
    BhRule,
    GapIntersectionRule,
    GapRule,
    IntersectionRule,
    Rule,
    TopMRule,
)

BASE = """
streams:
  family: gaussian-mean
  "null": 0.0
  alt: 0.5
  count: 10
truth:
  count: 5
rule:
  type: gap
  num_signals: 5
  threshold: 2.1
budget:
  alpha: 0.05
  beta: 0.05
run:
  replications: 500
  seed: 42
"""


def parse(text):
    return build_config(yaml.safe_load(textwrap.dedent(text)))


def test_minimal_gap_config():
    loaded = parse(BASE)
    experiment = loaded.experiment
    assert isinstance(experiment.rule, GapRule)
    assert experiment.rule.threshold == 2.1
    assert experiment.profile.j == 10
    assert experiment.truth == frozenset(range(1, 6))
    assert experiment.replications == 500
    assert experiment.metrics == (MetricKind.FDR, MetricKind.FNR)
    assert loaded.budget.alpha == 0.05


def test_unquoted_null_key_accepted():
    """YAML turns a bare `null:` key into None; the parser maps it back."""
    loaded = parse(BASE.replace('"null"', "null"))
    assert loaded.experiment.profile.models[0].null == 0.0


@pytest.mark.parametrize(
    "text,key,line",
    [
        (BASE + "run:\n  replications: 10\n  seed: 1\n", "run", 19),
        (BASE.replace("alpha: 0.05", "alpha: 0.05\n  alpha: 0.5"), "alpha", 15),
        (BASE.replace('"null": 0.0', "null: 0.0\n  null: 0.1"), "null", 5),
    ],
    ids=["section", "nested", "bare-null"],
)
def test_duplicate_key_is_a_config_error(text, key, line, tmp_path):
    """A key repeated in one mapping names the key and its line, instead of
    the last one silently winning."""
    path = tmp_path / "dup.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"^duplicate key {key!r} at line {line}$"):
        load_config(str(path))


def test_bare_and_quoted_null_keys_are_a_config_error(tmp_path):
    """YAML reads a bare `null:` key as None and a quoted one as "null", so
    the loader sees two keys; the stream parser names the repeated one
    instead of keeping either value."""
    streams = '{family: gaussian-mean, null: 0.0, "null": 0.3, alt: 0.5, count: 10}'
    path = tmp_path / "nulls.yaml"
    path.write_text(f"streams: {streams}\n" + BASE[BASE.index("truth:") :])
    with pytest.raises(ConfigError, match="^duplicate key 'null' under streams "):
        load_config(str(path))


def test_auto_gap_threshold_resolves_formula():
    loaded = parse(BASE.replace("threshold: 2.1", "threshold: auto"))
    expected = abs(math.log(0.05)) + math.log(25)
    assert loaded.experiment.rule.threshold == pytest.approx(expected, abs=1e-12)


def test_auto_threshold_with_pfer_control_rescales():
    """Expected-count control inflates C1, pushing the threshold up."""
    text = BASE.replace("threshold: 2.1", "threshold: auto\n  control: pfer")
    loaded = parse(text)
    plain = abs(math.log(0.05)) + math.log(25)
    assert loaded.experiment.rule.threshold == pytest.approx(
        plain + math.log(5), abs=1e-12
    )


def test_auto_threshold_with_fpr_control_divides_by_the_signal_count():
    """FPR is V / |truth|, so with m = 5 and |truth| = 2 its type-1 constant
    is m / |truth| = 2.5, and "auto" controls FPR at alpha / 2.5."""
    text = BASE.replace("threshold: 2.1", "threshold: auto\n  control: fpr")
    loaded = parse(text.replace("truth:\n  count: 5", "truth:\n  count: 2"))
    assert loaded.experiment.rule.threshold == 7.1308988302963465
    plain = abs(math.log(0.05 / 2.5)) + math.log(25)
    assert loaded.experiment.rule.threshold == pytest.approx(plain, abs=1e-12)


def test_auto_threshold_without_control_constants_fails():
    text = BASE.replace("threshold: 2.1", "threshold: auto\n  control: fpr")
    with pytest.raises(ConfigError, match="^rule.control: fpr bounds need"):
        parse(text.replace("truth:\n  count: 5", "truth:\n  count: 0"))


def test_auto_threshold_without_budget_fails():
    text = BASE.replace("threshold: 2.1", "threshold: auto")
    text = text.replace("budget:\n  alpha: 0.05\n  beta: 0.05\n", "")
    with pytest.raises(ConfigError, match="budget"):
        parse(text)


@pytest.mark.parametrize("level", ["", "\n  level: null"], ids=["omitted", "null"])
def test_bh_level_without_budget_exits_2(level, tmp_path, capsys):
    """A bh rule with no level takes budget.alpha; without a budget section
    that is a configuration error that says so, not one about "auto"."""
    text = BASE.replace("type: gap\n  num_signals: 5\n  threshold: 2.1", _BH + level)
    path = tmp_path / "bh.yaml"
    path.write_text(text.replace("budget:\n  alpha: 0.05\n  beta: 0.05\n", ""))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: rule.level is omitted, so it takes budget.alpha, "
        "but there is no budget section\n"
    )


def test_gap_intersection_config_auto():
    text = """
    streams: {family: gaussian-mean, "null": 0.0, alt: 0.5, count: 10}
    truth: {count: 4}
    rule:
      type: gap-intersection
      min_signals: 2
      max_signals: 7
      thresholds: auto
    budget: {alpha: 0.05, beta: 0.05}
    run: {replications: 100, seed: 1}
    """
    rule = parse(text).experiment.rule
    assert isinstance(rule, GapIntersectionRule)
    log05 = abs(math.log(0.05))
    assert rule.accept_barrier == pytest.approx(log05 + math.log(10), abs=1e-12)
    assert rule.accept_gap == pytest.approx(log05 + math.log(80), abs=1e-12)
    assert rule.reject_gap == pytest.approx(log05 + math.log(70), abs=1e-12)


def test_gap_intersection_explicit_thresholds():
    text = """
    streams: {family: gaussian-mean, "null": 0.0, alt: 0.5, count: 10}
    truth: {count: 4}
    rule:
      type: gap-intersection
      min_signals: 2
      max_signals: 7
      thresholds:
        accept_barrier: 5.0
        reject_barrier: 5.5
        accept_gap: 7.0
        reject_gap: 7.5
    run: {replications: 100, seed: 1}
    """
    rule = parse(text).experiment.rule
    assert rule.reject_barrier == 5.5
    assert rule.reject_gap == 7.5


def test_intersection_and_fixed_rules_parse():
    text = """
    streams: {family: gaussian-mean, "null": 0.0, alt: 0.5, count: 6}
    truth: {indices: [2, 4]}
    rule:
      type: intersection
      thresholds: {accept_barrier: 4.0, reject_barrier: 4.5}
    run: {replications: 100, seed: 1}
    """
    loaded = parse(text)
    assert isinstance(loaded.experiment.rule, IntersectionRule)
    assert loaded.experiment.truth == frozenset({2, 4})

    bh = parse(
        """
        streams: {family: gaussian-mean, "null": 0.0, alt: 0.5, count: 6}
        truth: {count: 2}
        rule: {type: bh, sample_size: 40}
        budget: {alpha: 0.03, beta: 0.05}
        run: {replications: 100, seed: 1}
        """
    )
    assert isinstance(bh.experiment.rule, BhRule)
    assert bh.experiment.rule.level == 0.03  # defaults to budget.alpha

    topm = parse(
        """
        streams: {family: gaussian-mean, "null": 0.0, alt: 0.5, count: 6}
        truth: {count: 2}
        rule: {type: top-m, sample_size: 40, num_signals: 2}
        run: {replications: 100, seed: 1}
        """
    )
    assert isinstance(topm.experiment.rule, TopMRule)


def test_heterogeneous_stream_list():
    text = """
    streams:
      - {family: gaussian-mean, "null": 0.0, alt: 0.5}
      - {family: gaussian-mean, "null": 0.0, alt: 1.0}
      - {family: bernoulli, "null": 0.3, alt: 0.7}
    truth: {count: 1}
    rule:
      type: intersection
      thresholds: {accept_barrier: 4.0, reject_barrier: 4.0}
    run: {replications: 10, seed: 0}
    """
    profile = parse(text).experiment.profile
    assert profile.j == 3
    assert profile.models[1].alt == 1.0
    assert profile.models[2].family == "bernoulli"


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="rule"):
        parse(BASE.replace("threshold: 2.1", "threshold: 2.1\n  extra: 1"))
    with pytest.raises(ConfigError, match="top-level"):
        parse(BASE + "\nbogus_section: {}\n")


@pytest.mark.parametrize(
    "extra,message",
    [
        ("  null: 3\n  7: 1\n", "unknown key(s) under run: 7, null"),
        ("null: {}\n7: {}\n", "unknown top-level section(s): 7, null"),
    ],
    ids=["section", "top-level"],
)
def test_unknown_null_and_number_keys_are_named(extra, message):
    """A bare `null:` key reads as None and `7:` as a number; the message
    spells them as the file does instead of failing to sort them."""
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse(BASE + extra)


def test_missing_sections_are_named():
    text = BASE.replace("run:\n  replications: 500\n  seed: 42\n", "")
    with pytest.raises(ConfigError, match="run"):
        parse(text)


def test_field_type_errors_are_named():
    with pytest.raises(ConfigError, match="run.replications"):
        parse(BASE.replace("replications: 500", "replications: many"))
    with pytest.raises(ConfigError, match="budget.alpha"):
        parse(BASE.replace("alpha: 0.05", "alpha: 1.5"))
    with pytest.raises(ConfigError, match="streams.count"):
        parse(BASE.replace("count: 10", "count: 1"))
    with pytest.raises(ConfigError, match="truth"):
        parse(BASE.replace("truth:\n  count: 5", "truth:\n  count: 5\n  indices: [1]"))


def test_metric_names_validated():
    with pytest.raises(ConfigError, match="run.metrics"):
        parse(BASE.replace("seed: 42", "seed: 42\n  metrics: [fdr, nope]"))
    with pytest.raises(ConfigError, match=r"^run\.metrics: repeated \['fdr'\]$"):
        parse(BASE.replace("seed: 42", "seed: 42\n  metrics: [fdr, fdr, fnr]"))


def test_rule_type_validated():
    with pytest.raises(ConfigError, match="rule.type"):
        parse(BASE.replace("type: gap", "type: sprt"))
    with pytest.raises(ConfigError) as err:
        parse(BASE.replace("type: gap", "type: nope"))
    assert str(err.value) == (
        "rule.type must be one of gap, gap-intersection, intersection, bh, "
        "top-m; got 'nope'"
    )


# One valid rule of each class for BASE's ten streams.
_RULE_EXAMPLES = {
    GapRule: GapRule(num_signals=4, threshold=2.5),
    GapIntersectionRule: GapIntersectionRule(
        min_signals=2,
        max_signals=7,
        accept_barrier=5.25,
        reject_barrier=7.5,
        accept_gap=7.0,
        reject_gap=7.25,
    ),
    IntersectionRule: IntersectionRule(accept_barrier=4.0, reject_barrier=4.5),
    BhRule: BhRule(sample_size=40, level=0.03),
    TopMRule: TopMRule(sample_size=40, num_signals=3),
}


@pytest.mark.parametrize("cls", get_args(Rule), ids=lambda cls: cls.name)
def test_every_rule_round_trips_through_its_section(cls):
    """A rule section written from a rule's fields, barriers nested under
    ``thresholds``, parses back to an equal rule."""
    rule = _RULE_EXAMPLES[cls]
    nested = getattr(cls, "threshold_names", ())
    values = {f.name: getattr(rule, f.name) for f in fields(rule)}
    section = {"type": cls.name}
    section.update((k, v) for k, v in values.items() if k not in nested)
    if nested:
        section["thresholds"] = {k: values[k] for k in nested}
    doc = yaml.safe_load(textwrap.dedent(BASE))
    doc["rule"] = section
    assert build_config(doc).experiment.rule == rule


def test_calibrate_section_parsed():
    text = BASE + textwrap.dedent(
        """
        calibrate:
          grid_step: 0.2
          threshold_cap: 9.0
          full_scan: true
        """
    )
    settings = parse(text).calibration
    assert settings.grid_step == 0.2
    assert settings.threshold_cap == 9.0
    assert settings.full_scan is True


@pytest.mark.parametrize(
    "line",
    [
        "threshold_cap: .nan",
        "threshold_cap: .inf",
        "threshold_cap: 0",
        "threshold_cap: -1",
        "grid_step: .nan",
        "grid_step: .inf",
        "grid_step: 0",
        "sample_size_cap: 0",
    ],
)
def test_calibrate_section_validated(line):
    key = line.split(":")[0]
    with pytest.raises(ConfigError, match=f"^calibrate.{key} must be"):
        parse(BASE + f"calibrate:\n  {line}\n")


@pytest.mark.parametrize(
    "old,new,key",
    [
        ("replications: 500", "replications: 0", "run.replications"),
        ("seed: 42", "seed: -1", "run.seed"),
        ("seed: 42", f"seed: {2**64}", "run.seed"),
        ("seed: 42", "seed: 42\n  horizon: 0", "run.horizon"),
    ],
)
def test_run_section_validated(old, new, key):
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        parse(BASE.replace(old, new))


def test_output_section_validated():
    text = BASE + "\noutput:\n  format: xml\n"
    with pytest.raises(ConfigError, match="output.format"):
        parse(text)


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.yaml")


def test_load_config_invalid_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("streams: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(str(path))


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "ok.yaml"
    path.write_text(BASE)
    loaded = load_config(str(path))
    assert loaded.experiment.replications == 500


@pytest.mark.parametrize(
    "old,exponent,dotted",
    [
        ("alpha: 0.05", "alpha: 1e-6", "alpha: 1.0e-6"),
        ("beta: 0.05", "beta: 5E-3", "beta: 5.0E-3"),
        ('"null": 0.0', '"null": -2e+1', '"null": -2.0e+1'),
        ("threshold: 2.1", "threshold: 2.1e0", "threshold: 2.1"),
        ("threshold: 2.1", "threshold: 2.1E3", "threshold: 2100.0"),
        ('"null": 0.0', '"null": -2.0e1', '"null": -20.0'),
        ("threshold: 2.1", "threshold: 1.e1", "threshold: 10.0"),
        ("threshold: 2.1", "threshold: .5e1", "threshold: 5.0"),
    ],
    ids=[
        "alpha", "capital", "signed", "dot-unsigned", "dot-capital",
        "dot-negative", "trailing-dot", "leading-dot",
    ],
)
def test_exponent_without_a_dot_is_a_float(old, exponent, dotted, tmp_path):
    """An unquoted number with an exponent and no dot, or with a dot and an
    unsigned exponent, loads as the same float as its YAML 1.1 form; quoted,
    it stays a string."""
    path = tmp_path / "exp.yaml"
    loaded = []
    for line in (exponent, dotted):
        path.write_text(BASE.replace(old, line))
        loaded.append(load_config(str(path)))
    assert loaded[0] == loaded[1]
    path.write_text(BASE.replace("alpha: 0.05", "alpha: '1e-6'"))
    with pytest.raises(ConfigError, match="budget.alpha must be a number, got '1e-6'"):
        load_config(str(path))


def test_exponent_resolver_leaves_other_scalars():
    """Integers, hex, quoted numbers and a bare or mantissa-less exponent
    load as YAML 1.1 reads them."""
    doc = yaml.load(
        "{a: 21, b: 0x1F, c: '2.1e0', d: 1e, e: e5}", Loader=_UniqueKeyLoader
    )
    assert doc == {"a": 21, "b": 31, "c": "2.1e0", "d": "1e", "e": "e5"}


_BH = "type: bh\n  sample_size: 40"


@pytest.mark.parametrize(
    "old,absent,null",
    [
        ("threshold: 2.1", "threshold: auto", "threshold: auto\n  control: null"),
        ("type: gap\n  num_signals: 5\n  threshold: 2.1", _BH, _BH + "\n  level: null"),
        ("seed: 42", "seed: 42", "seed: 42\n  horizon: null"),
        ("seed: 42", "seed: 42", "seed: 42\n  metrics: null"),
        (
            "seed: 42",
            "seed: 42",
            "seed: 42\ncalibrate: {grid_step: null, threshold_cap: null,"
            " sample_size_cap: null, full_scan: null}",
        ),
        ("seed: 42", "seed: 42", "seed: 42\noutput: {format: null, path: null}"),
    ],
    ids=["control", "level", "horizon", "metrics", "calibrate", "output"],
)
def test_null_optional_key_takes_its_default(old, absent, null):
    """A key with a default takes it when null as when absent; so
    rule.control: null is fdr."""
    loaded = parse(BASE.replace(old, null))
    assert loaded == parse(BASE.replace(old, absent))
    assert loaded.control is MetricKind.FDR


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("alpha: 0.05", "alpha: null", "budget.alpha must be a number, got None"),
        (
            "family: gaussian-mean",
            "family: null",
            "streams.family must be a string, got None",
        ),
        ("type: gap", "type: null", "rule.type must be a string, got None"),
        ("seed: 42", "seed: null", "run.seed must be an integer, got None"),
    ],
    ids=["budget", "streams", "rule", "run"],
)
def test_null_required_key_fails_its_type_check(old, new, message):
    """A required key that is null is read, not taken as absent."""
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse(BASE.replace(old, new))
