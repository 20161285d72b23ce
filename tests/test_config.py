"""Config files: each value is checked against its field's type, naming the key."""

import json

import pytest

from rootcause.cli import main
from rootcause.config import Config, LlmConfig
from rootcause.errors import ConfigError

MISTYPED = {
    "integer as a string": ({"max_depth": "3"}, "'max_depth' must be an integer"),
    "bool for an integer": ({"max_depth": True}, "'max_depth' must be an integer"),
    "float for an integer": ({"max_steps": 2.5}, "'max_steps' must be an integer"),
    "bool for a number": ({"n_sigma": True}, "'n_sigma' must be a number"),
    "number as a string": ({"alpha": "0.5"}, "'alpha' must be a number"),
    "number out of range": ({"alpha": 10 ** 400}, "'alpha' must be a finite number"),
    "not a number": ({"n_sigma": float("nan")}, "'n_sigma' must be a finite number"),
    "infinite baseline": ({"baseline_minutes": float("inf")},
                          "'baseline_minutes' must be a finite number"),
    "string as a list": ({"log_patterns": "ab"}, "'log_patterns' must be a list"),
    "list of non-strings": ({"log_patterns": ["a", 1]}, "'log_patterns[1]' must be a string"),
    "number for a bool": ({"level_relaxed": 1}, "'level_relaxed' must be true or false"),
    "number for an optional string": ({"memory_path": 3}, "'memory_path' must be a string"),
    "llm not an object": ({"llm": "x"}, "'llm' must be a JSON object"),
    "llm number as a string": ({"llm": {"timeout": "5"}}, "'llm.timeout' must be a number"),
    "llm bool for an integer": ({"llm": {"max_retries": False}},
                                "'llm.max_retries' must be an integer"),
    "llm unknown key": ({"llm": {"timout": 5}}, "'llm.timout' is an unknown key"),
    "unknown key": ({"max_dept": 3}, "'max_dept' is an unknown key"),
    "not an object": ([1, 2], "top level must be a JSON object"),
}


@pytest.mark.parametrize("name", sorted(MISTYPED))
def test_mistyped_value_is_a_config_error_naming_the_key(name):
    data, message = MISTYPED[name]
    with pytest.raises(ConfigError) as err:
        Config.from_dict(data)
    assert message in str(err.value)


def test_well_typed_values_are_taken():
    cfg = Config.from_dict({
        "n_sigma": 4, "max_depth": 3, "memory_path": None, "level_relaxed": True,
        "log_patterns": ["oom"], "llm": {"timeout": 5, "model": "m"},
    })
    assert cfg.n_sigma == 4.0 and isinstance(cfg.n_sigma, float)
    assert cfg.max_depth == 3 and cfg.memory_path is None and cfg.level_relaxed is True
    assert cfg.log_patterns == ("oom",)
    assert cfg.llm == LlmConfig(timeout=5.0, model="m")


def test_default_config_reads_back_equal():
    assert Config.from_dict(json.loads(Config().to_json())) == Config()


@pytest.mark.parametrize("data", [
    {"max_depth": "3"}, {"log_patterns": "ab"}, {"llm": []}, {"baseline_minutes": float("nan")},
])
def test_cli_mistyped_config_exits_two(tmp_path, capsys, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["--config", str(path), "--print-config"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and next(iter(data)) in err
