"""The config reader: a config class's fields are its JSON schema."""

import dataclasses
import functools

import pytest

from cloudguard.config import read_config
from cloudguard.detector import ArchConfig, TrainConfig
from cloudguard.environment import EnvConfig, defense_train_config
from cloudguard.errors import ConfigError
from cloudguard.policy import PolicyTrainConfig
from cloudguard.scenario import AttackSpec, ScenarioConfig, default_scenario
from cloudguard.simulate import SimConfig

DDOS = {"kind": "ddos", "intensity": 0.9, "start": 1000, "end": 4000}


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="'treshold'"):
        read_config(SimConfig, {"treshold": 0.2})
    with pytest.raises(ConfigError, match="'bogus'"):
        read_config(ScenarioConfig, {"duration_ms": 5000,
                                     "attacks": [dict(DDOS, bogus=1)]})


def test_missing_required_field_rejected():
    with pytest.raises(ConfigError, match="duration_ms"):
        read_config(ScenarioConfig, {"window_ms": 1000})
    with pytest.raises(ConfigError, match="intensity"):
        read_config(AttackSpec, {"kind": "ddos", "start": 0, "end": 1000})


def test_int_field_refuses_a_fraction_and_takes_whole_numbers():
    with pytest.raises(ConfigError, match="fixed_action"):
        read_config(SimConfig, {"fixed_action": 3.7})
    for value in (3, 3.0, "3"):
        assert read_config(SimConfig, {"fixed_action": value}).fixed_action == 3
    for bad in ("x", True, None, [3]):
        with pytest.raises(ConfigError):
            read_config(SimConfig, {"fixed_action": bad})


def test_float_field_stores_a_finite_float():
    cfg = read_config(ScenarioConfig, {"duration_ms": 5000, "benign_rate": 60})
    assert type(cfg.benign_rate) is float and cfg.benign_rate == 60.0
    for bad in ("x", float("nan"), float("inf"), "-inf"):
        with pytest.raises(ConfigError, match="benign_rate"):
            read_config(ScenarioConfig, {"duration_ms": 5000, "benign_rate": bad})


def test_nested_classes_tuples_optionals_and_given_fields():
    cfg = read_config(SimConfig, {
        "scenario": {"duration_ms": 5000, "attacks": [DDOS]},
        "policy": None, "seed": "7"})
    assert cfg.scenario.attacks == (AttackSpec(**DDOS),)
    assert cfg.policy is None and cfg.seed == 7
    # a missing optional nested object keeps its default
    assert read_config(SimConfig, {"seed": 2}).scenario == default_scenario(seed=2)

    arch = read_config(ArchConfig, {"conv_filters": [4, "4"], "seq_len": 8,
                                    "pool_after": [2], "fc_widths": []})
    assert arch.conv_filters == (4, 4) and arch.fc_widths == ()
    assert arch.lstm_hidden == ArchConfig().lstm_hidden
    with pytest.raises(ConfigError, match=r"conv_filters\[1\]"):
        read_config(ArchConfig, {"conv_filters": [4, 4.5]})
    with pytest.raises(ConfigError, match="conv_filters"):
        read_config(ArchConfig, {"conv_filters": 5})

    env = read_config(EnvConfig, {"intensity_range": [0.5, 1]}, seed=9)
    assert env.intensity_range == (0.5, 1) and env.seed == 9
    with pytest.raises(ConfigError, match="'seed'"):
        read_config(EnvConfig, {"seed": 1}, seed=9)


def test_class_checks_and_shape_errors_are_config_errors():
    with pytest.raises(ConfigError):
        read_config(EnvConfig, {"intensity_range": [0.5]})  # unpacking fails
    with pytest.raises(ConfigError, match="AttackSpec must be an object"):
        read_config(ScenarioConfig, {"duration_ms": 5000, "attacks": [3]})
    with pytest.raises(ConfigError, match="benign"):
        read_config(AttackSpec, dict(DDOS, kind="benign"))
    with pytest.raises(ConfigError):
        read_config(SimConfig, [])


@pytest.mark.parametrize("cls", [EnvConfig, PolicyTrainConfig, TrainConfig,
                                 functools.partial(ScenarioConfig, duration_ms=1000)])
def test_seeds_outside_one_uint64_word_are_config_errors(cls):
    # the generators take a seed in [0, 2**64); outside it they would fail
    # deep inside numpy with a bare ValueError or OverflowError
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*64\)"):
            cls(seed=seed)
    for seed in (0, 2**64 - 1):
        assert cls(seed=seed).seed == seed


@pytest.mark.parametrize("config", [
    default_scenario(seed=3, rounds=1),
    AttackSpec(**DDOS),
    SimConfig(scenario=default_scenario(seed=3, rounds=1), threshold=0.6,
              seed=5, fixed_action=7),
    ArchConfig(seq_len=8, conv_filters=(4, 4), pool_after=(2,),
               fc_widths=(8,)),
    TrainConfig(epochs=2, lr=0.01),
    defense_train_config(seed=4),
    EnvConfig(seed=2, intensity_range=(0.4, 0.9)),
], ids=lambda c: type(c).__name__)
def test_written_config_reads_back_equal(config):
    assert read_config(type(config), dataclasses.asdict(config)) == config
