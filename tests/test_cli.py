import json
import re
from pathlib import Path

import pytest

from pcmsim import ConfigError, PcmConfig, cli, parse_trace_file
from pcmsim.cli import ExperimentConfig, cmd_gen, cmd_run, main
from pcmsim.trace import GenSpec, preset_spec


def small_config(tmp_path, **kw):
    cfg = ExperimentConfig()
    cfg.memory_blocks = 16
    cfg.gen = preset_spec("balanced", events=800, seed=4)
    cfg.out_dir = str(tmp_path / "out")
    cfg.schemes = ["diffwrite", "wire"]
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def test_run_writes_reports_and_wire_beats_diff(tmp_path, capsys):
    cfg = small_config(tmp_path, memory_blocks=8)
    cfg.gen = preset_spec("balanced", events=4_000, seed=4)
    assert cmd_run(cfg) == 0
    out = tmp_path / "out"
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 3  # header + one row per scheme
    header = lines[0].split(",")
    rows = {r.split(",")[0]: dict(zip(header, r.split(","))) for r in lines[1:]}
    assert set(rows) == {"diffwrite", "wire"}
    diff_flips = int(rows["diffwrite"]["flips_set"]) + int(rows["diffwrite"]["flips_reset"])
    wire_flips = int(rows["wire"]["flips_set"]) + int(rows["wire"]["flips_reset"])
    assert wire_flips < diff_flips
    assert (out / "report.txt").exists()
    assert "trace_sha256" in (out / "report.txt").read_text()


def test_empty_scheme_list_is_a_config_error(tmp_path):
    cfg = small_config(tmp_path, schemes=[])
    with pytest.raises(ConfigError):
        cmd_run(cfg)


def test_identical_config_and_seed_reproduce_csv_bytes(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        cfg = small_config(tmp_path)
        cfg.out_dir = str(out)
        assert cmd_run(cfg) == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()


def test_gen_then_run_from_file(tmp_path, capsys):
    cfg = small_config(tmp_path)
    trace_path = tmp_path / "t.trace"
    assert cmd_gen(cfg, str(trace_path)) == 0
    events = parse_trace_file(trace_path)
    assert len(events) == 800
    cfg2 = small_config(tmp_path)
    cfg2.gen = None
    cfg2.trace_path = str(trace_path)
    assert cmd_run(cfg2) == 0


def test_config_loads_from_literal_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "memory_blocks": 32,
        "pcm": {"cell_endurance": 500, "rotation_max": 4, "counter_bits": 3},
        "schemes": ["plain", "fnw"],
        "fnw": {"word_bits": 8},
        "gen": {"events": 123, "read_fraction": 0.25, "values": {"0": 0.5, "f": 0.25},
                "seed": 99},
        "lifetime": True,
        "max_writes": 12345,
    }))
    assert ExperimentConfig.load(path) == ExperimentConfig(
        memory_blocks=32,
        pcm=PcmConfig(cell_endurance=500, rotation_max=4, counter_bits=3),
        schemes=["plain", "fnw"],
        fnw_word_bits=8,
        gen=GenSpec(events=123, read_fraction=0.25, values={0: 0.5, 15: 0.25},
                    seed=99),
        lifetime=True,
        max_writes=12345,
    )


def test_empty_config_keeps_every_default():
    assert ExperimentConfig.from_dict({}) == ExperimentConfig()


def test_readme_config_examples_load():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert examples
    for text in examples:
        ExperimentConfig.from_dict(json.loads(text)).validate()


@pytest.mark.parametrize("schemes", [["wire"], ["diffwrite", "fnw"]])
def test_bad_fnw_word_width_exits_2_before_any_scheme_runs(tmp_path, capsys, monkeypatch,
                                                            schemes):
    def no_run(*_, **__):
        pytest.fail("a scheme ran before the config was checked")
    monkeypatch.setattr(cli, "Simulation", no_run)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"memory_blocks": 16, "fnw": {"word_bits": 7},
                                  "schemes": schemes}))
    rc = main(["run", "--config", str(config), "--preset", "balanced", "--events", "200",
               "--seed", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "fnw word width 7 must divide the block" in capsys.readouterr().err


def test_truncated_report_on_dead_block(tmp_path, capsys):
    cfg = small_config(tmp_path, schemes=["plain"])
    cfg.pcm = PcmConfig(cell_endurance=2)
    cfg.memory_blocks = 2
    cfg.gen = GenSpec(events=50, read_fraction=0.0, seed=8)
    assert cmd_run(cfg) == 0
    text = (tmp_path / "out" / "report.txt").read_text()
    assert "truncated: true" in text


def test_main_cli_gen_and_analyze(tmp_path, capsys):
    trace_path = tmp_path / "cli.trace"
    rc = main(["gen", str(trace_path), "--preset", "balanced",
               "--events", "300", "--seed", "6"])
    assert rc == 0
    rc = main(["analyze", str(trace_path), "--out", str(tmp_path)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "cumulative" in captured.out
    assert (tmp_path / "coverage.csv").read_text().startswith("value,count")


@pytest.mark.parametrize("bits", ["-1", "3", "64"])
def test_main_cli_analyze_rejects_granule_width(tmp_path, capsys, bits):
    trace_path = tmp_path / "t.trace"
    trace_path.write_text(f"W 0 {'00' * 64}\n")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(trace_path), "--granule-bits", bits])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("nbytes", ["0", "-64"])
def test_main_cli_analyze_rejects_block_bytes_before_reading(tmp_path, capsys, nbytes):
    trace_path = tmp_path / "t.trace"
    trace_path.write_text(f"W 0 {'00' * 64}\n")
    assert main(["analyze", str(trace_path), "--block-bytes", nbytes]) == 2
    err = capsys.readouterr().err
    assert "--block-bytes" in err and "line 1" not in err


def test_main_cli_run_with_flags(tmp_path, capsys):
    rc = main(["run", "--preset", "balanced", "--events", "400", "--seed", "2",
               "--schemes", "plain,diffwrite", "--out", str(tmp_path / "o")])
    assert rc == 0
    lines = (tmp_path / "o" / "report.csv").read_text().splitlines()
    assert len(lines) == 3


def test_main_cli_rejects_bad_scheme(tmp_path, capsys):
    rc = main(["run", "--preset", "balanced", "--events", "100",
               "--schemes", "nope", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_main_cli_rejects_bad_trace(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text("W 0 12\n")
    rc = main(["run", "--trace", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_main_cli_rejects_non_ascii_trace_byte_by_line(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_bytes(b"R 0000\nR 0001 # caf\xc3\xa9\n")  # even inside a comment
    for argv in (["run", "--trace", str(bad), "--out", str(tmp_path)],
                 ["analyze", str(bad), "--out", str(tmp_path)]):
        assert main(argv) == 2
        assert "line 2" in capsys.readouterr().err


def test_main_cli_rejects_address_outside_64_bits(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text(f"R 0\nW -1 {'00' * 64}\n")
    rc = main(["run", "--trace", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_main_cli_rejects_wire_rotation_max(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"wire": {"rotation_max": 4}}))
    rc = main(["run", "--config", str(config), "--preset", "balanced",
               "--events", "100", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "pcm.rotation_max" in err


BAD_CONFIGS = [
    ('{"pcm": {"bogus": 1}}', "pcm.bogus"),
    ('{"gen": {"nope": 1}}', "gen.nope"),
    ('{"pcm": {"count_metadata_flips": true}}', "pcm.count_metadata_flips"),
    ('{"wire": {"freeze_codebook": false}}', "wire.freeze_codebook"),
    ('{"memory_blocks": "x"}', "memory_blocks"),
    ('{"wear": {"epoch_writes": "a"}}', "wear.epoch_writes"),
    ('{"memory_blocks": true}', "memory_blocks"),
    ('{"pcm": []}', "config section 'pcm' must be a JSON object"),
    ('{"gen": {"values": {"zz": 0.5}}}', "gen.values"),
    ('{"pcm": {"counter_bits": 65}}', "counter_bits"),  # wider than a 64-bit partition
    # 4-bit partitions and the default 6-bit counter: counter_bits must be set
    ('{"pcm": {"partitions_per_block": 128, "rotation_max": 3}}', "4], the partition width, not 6"),
    ('[1, 2]', "must be a JSON object"),
    ('{"memory_blocks": 16,', "not valid JSON"),
]


@pytest.mark.parametrize("text,named", BAD_CONFIGS)
def test_main_cli_bad_config_exits_2_with_message(tmp_path, capsys, text, named):
    config = tmp_path / "cfg.json"
    config.write_text(text)
    rc = main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text,named", BAD_CONFIGS[:-1])
def test_from_dict_raises_config_error_naming_key(text, named):
    with pytest.raises(ConfigError, match=named.replace(".", r"\.")):
        ExperimentConfig.from_dict(json.loads(text))


def test_non_numeric_value_probability_exits_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    for value in ("x", True):  # a JSON true is no probability
        config.write_text(json.dumps({"memory_blocks": 16,
                                      "gen": {"events": 10, "values": {"0": value}}}))
        rc = main(["run", "--config", str(config), "--out", str(tmp_path)])
        assert rc == 2
        assert "value probabilities" in capsys.readouterr().err


def test_scheme_string_is_rejected_not_split_into_letters(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"schemes": "wire"}))
    rc = main(["run", "--config", str(config), "--preset", "balanced",
               "--events", "100", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "schemes" in err and "JSON list of names" in err
    assert "'w'" not in err


@pytest.mark.parametrize("blocks", [0, -3])
def test_gen_with_no_memory_blocks_exits_2(tmp_path, capsys, blocks):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"memory_blocks": blocks}))
    trace_path = tmp_path / "t.trace"
    rc = main(["gen", str(trace_path), "--config", str(config), "--preset", "balanced",
               "--events", "100"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: memory_blocks must be positive")
    assert "Traceback" not in err and not trace_path.exists()


@pytest.mark.parametrize("argv,config", [
    (["run", "--seed", "-1", "--events", "100"], None),
    (["gen", "--preset", "balanced", "--events", "100"], {"seed": -3}),
    (["gen"], {"gen": {"events": 100, "seed": -3}}),
])
def test_negative_seed_exits_2(tmp_path, capsys, argv, config):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    if argv[0] == "gen":
        argv.append(str(tmp_path / "t.trace"))
    rc = main([*argv, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be non-negative")


def test_value_zipf_with_explicit_values_exits_2(tmp_path, capsys):
    # value_zipf_s ranks every value, so explicit values would be ignored
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"memory_blocks": 16, "gen": {
        "events": 200, "value_zipf_s": 1.2, "seed": 3, "values": {"0": 0.9}}}))
    trace_path = tmp_path / "t.trace"
    rc = main(["gen", "--config", str(config), str(trace_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "gen.values" in err and "gen.value_zipf_s" in err
    assert "Traceback" not in err and not trace_path.exists()


NON_FINITE_CONFIGS = [
    '{"gen": {"events": 100, "values": {"0": NaN}}}',
    '{"gen": {"events": 100}, "pcm": {"e_set": NaN}}',
    '{"gen": {"events": 100, "address_model": "zipf", "address_zipf_s": NaN}}',
    '{"gen": {"events": 100}, "pcm": {"e_reset": Infinity}}',
    '{"gen": {"events": 100, "read_fraction": -Infinity}}',
    '{"gen": {"events": 100}, "pcm": {"e_set": 1e999}}',  # overflows to inf
]


@pytest.mark.parametrize("text", NON_FINITE_CONFIGS)
def test_non_finite_number_in_config_exits_2(tmp_path, capsys, text):
    config = tmp_path / "cfg.json"
    config.write_text('{"memory_blocks": 16, ' + text[1:])
    with pytest.raises(ConfigError, match="not a finite number"):
        ExperimentConfig.load(config)
    with pytest.raises(ConfigError, match="not a finite number"):
        ExperimentConfig.from_dict(json.loads(config.read_text()))
    rc = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a finite number" in err
