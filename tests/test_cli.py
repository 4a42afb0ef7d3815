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
    cfg.out = str(tmp_path / "out")
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
        cfg.out = str(out)
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
    cfg2.trace = str(trace_path)
    assert cmd_run(cfg2) == 0


def test_config_loads_from_literal_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "memory_blocks": 32,
        "pcm": {"cell_endurance": 500, "rotation_max": 4},
        "schemes": ["plain", "fnw"],
        "gen": {"events": 123, "read_fraction": 0.25, "values": {"0": 0.5, "f": 0.25},
                "seed": 99},
        "lifetime": True,
        "max_writes": 12345,
    }))
    assert ExperimentConfig.load(path) == ExperimentConfig(
        memory_blocks=32,
        pcm=PcmConfig(cell_endurance=500, rotation_max=4),
        schemes=["plain", "fnw"],
        gen=GenSpec(events=123, read_fraction=0.25, values={0: 0.5, 15: 0.25},
                    seed=99),
        lifetime=True,
        max_writes=12345,
    )


def test_empty_config_keeps_every_default():
    assert ExperimentConfig.from_dict({}) == ExperimentConfig()


README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_config_examples_load():
    examples = re.findall(r"```json\n(.*?)```", README, re.S)
    assert examples
    for text in examples:
        ExperimentConfig.from_dict(json.loads(text)).validate()


def test_readme_shell_examples_name_real_subcommands(capsys):
    shell = "".join(re.findall(r"```sh\n(.*?)```", README, re.S))
    commands = sorted(set(re.findall(r"\bpcmsim (\w+)", shell)))
    assert commands
    for command in commands:
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0


# 3-byte blocks: FNW's 16-bit words do not divide their 24 bits
THREE_BYTE_BLOCKS = {"memory_blocks": 8, "gen": {"events": 200, "seed": 1},
                     "pcm": {"block_bytes": 3, "partitions_per_block": 1, "rotation_max": 4,
                             "page_bytes": 24}}


def test_run_without_fnw_does_not_check_the_fnw_word_width(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**THREE_BYTE_BLOCKS, "schemes": ["wire", "diffwrite"]}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert len((tmp_path / "out" / "report.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("schemes", [["fnw"], ["diffwrite", "fnw"]])
def test_bad_fnw_word_width_exits_2_before_any_scheme_runs(tmp_path, capsys, monkeypatch,
                                                            schemes):
    def no_run(*_, **__):
        pytest.fail("a scheme ran before the config was checked")
    monkeypatch.setattr(cli, "Simulation", no_run)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**THREE_BYTE_BLOCKS, "schemes": schemes}))
    rc = main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 2
    assert "fnw word width 16 must divide the block" in capsys.readouterr().err


# settings only `run` reads, each of which `run` rejects
RUN_ONLY_FAULTS = [
    ({"schemes": ["fnw"]}, "fnw word width 16 must divide the block"),
    ({"schemes": ["bogus"]}, "unknown scheme 'bogus'"),
    ({"schemes": []}, "at least one scheme is required"),
    ({"max_writes": 0}, "max_writes must be positive"),
]


@pytest.mark.parametrize("setting,named", RUN_ONLY_FAULTS)
def test_run_rejects_a_setting_gen_does_not_read(tmp_path, capsys, setting, named):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**THREE_BYTE_BLOCKS, **setting}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {named}")


@pytest.mark.parametrize("setting", [setting for setting, _ in RUN_ONLY_FAULTS])
def test_gen_ignores_settings_only_run_reads(tmp_path, capsys, monkeypatch, setting):
    def no_scheme(*_, **__):
        pytest.fail("gen built a scheme")
    monkeypatch.setattr(cli, "make_scheme", no_scheme)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**THREE_BYTE_BLOCKS, **setting}))
    assert main(["gen", "--config", str(config), str(tmp_path / "out.trace")]) == 0
    assert len(parse_trace_file(tmp_path / "out.trace", 3)) == 200


def test_gen_rejects_a_memory_of_no_blocks(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**THREE_BYTE_BLOCKS, "memory_blocks": 0}))
    assert main(["gen", "--config", str(config), str(tmp_path / "out.trace")]) == 2
    assert capsys.readouterr().err.startswith("error: memory_blocks must be positive")
    assert not (tmp_path / "out.trace").exists()


def assert_text_report_matches_csv(out):
    """Each scheme's block in report.txt opens with one `  <column>: <text>`
    line per report.csv column, equal to that column's cell in its row."""
    header, *rows = [line.split(",") for line in
                     (out / "report.csv").read_text(encoding="ascii").splitlines()]
    blocks = (out / "report.txt").read_text(encoding="ascii").split("\nscheme: ")[1:]
    assert len(blocks) == len(rows)
    for row, block in zip(rows, blocks):
        lines = block.splitlines()
        assert lines[0] == row[0]
        assert lines[1:len(header)] == [f"  {col}: {cell}"
                                        for col, cell in zip(header[1:], row[1:])]


def test_truncated_report_on_dead_block(tmp_path, capsys):
    cfg = small_config(tmp_path, schemes=["plain"])
    cfg.pcm = PcmConfig(cell_endurance=2)
    cfg.memory_blocks = 2
    cfg.gen = GenSpec(events=50, read_fraction=0.0, seed=8)
    assert cmd_run(cfg) == 0
    text = (tmp_path / "out" / "report.txt").read_text()
    assert "truncated: true" in text
    assert_text_report_matches_csv(tmp_path / "out")


def test_main_cli_gen_then_run_writes_coverage(tmp_path, capsys):
    trace_path = tmp_path / "cli.trace"
    rc = main(["gen", str(trace_path), "--preset", "balanced",
               "--events", "300", "--seed", "6"])
    assert rc == 0
    rc = main(["run", "--trace", str(trace_path), "--schemes", "plain",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "coverage.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "value,count,fraction,cumulative"
    assert len(lines) == 17 and lines[-1].endswith(",1.000000")  # every 4-bit value


def test_coverage_csv_bytes_are_pinned(tmp_path, capsys):
    # the written granule values, most frequent first, then every other
    # value at count 0; ties go to the smaller value
    trace_path = tmp_path / "t.trace"
    trace_path.write_text(f"W 0 {'00' * 64}\nR 0\nW 1 {'ff' * 64}\nW 0 {'07' * 64}\n")
    assert main(["run", "--trace", str(trace_path), "--schemes", "plain",
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "coverage.csv").read_bytes() == (
        "value,count,fraction,cumulative\n"
        "0x0,192,0.500000,0.500000\n"
        "0xf,128,0.333333,0.833333\n"
        "0x7,64,0.166667,1.000000\n"
        + "".join(f"{v:#x},0,0.000000,1.000000\n" for v in range(1, 15) if v != 7)
    ).encode("ascii")


def test_analyze_subcommand_is_gone(tmp_path, capsys):
    # `run` writes the value table to coverage.csv
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(tmp_path / "t.trace")])
    assert exc.value.code == 2
    assert "invalid choice: 'analyze'" in capsys.readouterr().err


def test_config_too_large_to_allocate_exits_2(tmp_path, capsys):
    # 10^15 events ask numpy for 7.1 PiB, more than the address space: the
    # request fails at once and allocates nothing
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"gen": {"events": 10**15}, "schemes": ["plain"]}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("argv,config,named", [
    (["--schemes", "bogus"], {}, "unknown scheme 'bogus'"),
    ([], {"schemes": [["wire"]]}, "unknown scheme '['wire']'"),
    ([], {"schemes": [7]}, "unknown scheme '7'"),
    ([], {**THREE_BYTE_BLOCKS, "schemes": ["wire", "fnw"]}, "fnw word width 16 must divide"),
])
def test_scheme_that_cannot_be_built_exits_2_before_any_report(tmp_path, capsys, argv, config,
                                                               named):
    (tmp_path / "cfg.json").write_text(json.dumps({"gen": {"events": 50}, **config}))
    rc = main(["run", "--config", str(tmp_path / "cfg.json"), *argv,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_main_cli_rejects_a_scheme_listed_twice(tmp_path, capsys):
    rc = main(["run", "--preset", "balanced", "--events", "200", "--seed", "1",
               "--schemes", "wire,wire", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: scheme 'wire' is listed twice")
    assert not (tmp_path / "o").exists()


def test_main_cli_rejects_an_empty_scheme_list(tmp_path, capsys):
    rc = main(["run", "--preset", "balanced", "--events", "200", "--seed", "1",
               "--schemes", "", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: at least one scheme is required")
    assert not (tmp_path / "o").exists()


def test_main_cli_rejects_bad_trace(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text("W 0 12\n")
    rc = main(["run", "--trace", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_main_cli_rejects_non_ascii_trace_byte_by_line(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_bytes(b"R 0000\nR 0001 # caf\xc3\xa9\n")  # even inside a comment
    assert main(["run", "--trace", str(bad), "--out", str(tmp_path)]) == 2
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
    assert err.startswith("error: unknown config key 'wire'")


BAD_CONFIGS = [
    ('{"pcm": {"bogus": 1}}', "pcm.bogus"),
    ('{"gen": {"nope": 1}}', "gen.nope"),
    ('{"pcm": {"count_metadata_flips": true}}', "pcm.count_metadata_flips"),
    ('{"wire": {"freeze_codebook": false}}', "unknown config key 'wire'"),
    ('{"fnw": {"word_bits": 8}}', "unknown config key 'fnw'"),
    ('{"memory_blocks": "x"}', "memory_blocks"),
    ('{"wear": {"epoch_writes": "a"}}', "wear.epoch_writes"),
    ('{"memory_blocks": true}', "memory_blocks"),
    ('{"pcm": []}', "config section 'pcm' must be a JSON object"),
    ('{"gen": {"values": {"zz": 0.5}}}', "gen.values"),
    # a value is bare hex digits, named by one key
    ('{"gen": {"values": {"1_0": 0.1}}}', "gen.values key '1_0'"),
    ('{"gen": {"values": {"+f": 0.1}}}', "gen.values key '+f'"),
    ('{"gen": {"values": {" 7": 0.1}}}', "gen.values key ' 7'"),
    ('{"gen": {"values": {"0x7": 0.1}}}', "gen.values key '0x7'"),
    ('{"gen": {"values": {"": 0.1}}}', "gen.values key ''"),
    ('{"pcm": {"granule_bits": 8}, "gen": {"events": 50, "values": {"7": 0.3, "07": 0.6}},'
     ' "schemes": ["plain"]}', "gen.values key '07' names a value another key names"),
    # energy and latency are constants, and values follow `gen.values`
    ('{"pcm": {"e_set": 13.5}}', "unknown config key 'pcm.e_set'"),
    ('{"pcm": {"e_reset": 19.2}}', "unknown config key 'pcm.e_reset'"),
    ('{"pcm": {"write_latency_ns": 250}}', "unknown config key 'pcm.write_latency_ns'"),
    ('{"gen": {"value_zipf_s": 1.2}}', "unknown config key 'gen.value_zipf_s'"),
    # a rotation counter is as wide as its partition needs, with no key of its own
    ('{"pcm": {"counter_bits": 65}}', "counter_bits"),  # an unknown key
    # a generated trace's seed is `gen.seed`, with no second home
    ('{"seed": 3, "gen": {"events": 100}}', "unknown config key 'seed'"),
    # `gen.address_zipf_s` alone selects zipf addresses
    ('{"gen": {"address_model": "zipf"}}', "gen.address_model"),
    ('[1, 2]', "must be a JSON object"),
    # `validate` rejects this one, after the flags are applied
    ('{"schemes": ["wire", "wire"]}', "scheme 'wire' is listed twice"),
    ('{"memory_blocks": 16,', "not valid JSON"),
]


# any partition width runs: its counters take the fewest bits that name its rotations
@pytest.mark.parametrize("pcm, overhead_bits", [
    ({"partitions_per_block": 128, "rotation_max": 3}, 256),  # 4-bit partitions: 2-bit counters
    ({"partitions_per_block": 4, "rotation_max": 100}, 28),   # 128-bit: 7-bit counters
])
def test_main_cli_runs_partitions_of_any_width(tmp_path, pcm, overhead_bits):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"pcm": pcm}))
    assert main(["run", "--config", str(config), "--preset", "balanced", "--events", "200",
                 "--schemes", "diffwrite,wire", "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "report.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["0", str(overhead_bits)]


@pytest.mark.parametrize("text,named", BAD_CONFIGS)
def test_main_cli_bad_config_exits_2_with_message(tmp_path, capsys, text, named):
    config = tmp_path / "cfg.json"
    config.write_text(text)
    rc = main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


# the range checks of each config section and of `validate`, one config each
RANGE_FAULTS = [
    ({"pcm": {"block_bytes": 0}}, "block_bytes and partitions_per_block must be positive"),
    ({"pcm": {"partitions_per_block": 0}},
     "block_bytes and partitions_per_block must be positive"),
    # 3-byte blocks in 8 partitions of 3 bits, which 2-bit granules do not divide
    ({"pcm": {"block_bytes": 3, "granule_bits": 2}},
     "partition width 3 not divisible by granule width 2"),
    ({"pcm": {"cell_endurance": 0}}, "cell_endurance must be positive"),
    ({"pcm": {"page_bytes": 100}}, "page_bytes must be a positive multiple of block_bytes"),
    ({"pcm": {"metadata_cache_bytes": -1}}, "metadata_cache_bytes must be non-negative"),
    ({"wear": {"epoch_writes": 0}}, "wear-leveling periods must be positive"),
    ({"wear": {"remap_period": 0}}, "wear-leveling periods must be positive"),
    # every g4 value named, with 0.2 of the mass left to no value
    ({"gen": {"events": 50, "values": {f"{v:x}": 0.05 for v in range(16)}}},
     "no tail values left to absorb the remaining mass"),
    ({}, "either a trace path or a generator spec is required"),
]


@pytest.mark.parametrize("config,message", RANGE_FAULTS)
def test_out_of_range_config_exits_2_and_writes_nothing(tmp_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_gen_without_a_generator_spec_exits_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"trace": str(small_trace(tmp_path))}))
    trace_path = tmp_path / "t.trace"
    assert main(["gen", str(trace_path), "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: gen subcommand needs a generator spec")
    assert not trace_path.exists()


# not the repeated scheme, which `validate` rejects, nor the text that is no JSON
@pytest.mark.parametrize("text,named", BAD_CONFIGS[:-2])
def test_from_dict_raises_config_error_naming_key(text, named):
    with pytest.raises(ConfigError, match=re.escape(named)):
        ExperimentConfig.from_dict(json.loads(text))


# a key an object repeats: `json.loads` alone keeps its last value, so these
# stay out of `BAD_CONFIGS`, whose texts `from_dict` also sees
REPEATED_KEYS = [
    ('{"memory_blocks": 8, "memory_blocks": 16, "gen": {"events": 50}, "schemes": ["plain"]}',
     "memory_blocks"),
    ('{"pcm": {"granule_bits": 8}, "gen": {"events": 50, "values": {"7": 0.3, "7": 0.6}},'
     ' "schemes": ["plain"]}', "7"),
]


@pytest.mark.parametrize("text,key", REPEATED_KEYS)
def test_repeated_config_key_exits_2_naming_it(tmp_path, capsys, text, key):
    config = tmp_path / "cfg.json"
    config.write_text(text)
    message = f"config key '{key}' is repeated"
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.load(config)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


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
    (["gen", "--preset", "balanced", "--events", "100", "--seed", "-3"], None),
    (["gen"], {"gen": {"events": 100, "seed": -3}}),
])
def test_negative_seed_exits_2(tmp_path, capsys, argv, config):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    # `gen` takes its output path, `run` an output directory
    out = [str(tmp_path / "t.trace")] if argv[0] == "gen" else ["--out", str(tmp_path / "out")]
    rc = main([*argv, *out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be non-negative")


@pytest.mark.parametrize("key", ["address_zipf_s"])
def test_non_positive_zipf_exponent_exits_2_naming_its_key(tmp_path, capsys, key):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"gen": {key: -3.0}}))
    rc = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"gen.{key}" in err
    assert not (tmp_path / "out").exists()


NON_FINITE_CONFIGS = [
    '{"gen": {"events": 100, "values": {"0": NaN}}}',
    '{"gen": {"events": 100, "read_fraction": NaN}}',
    '{"gen": {"events": 100, "address_zipf_s": NaN}}',
    '{"gen": {"events": 100, "address_zipf_s": Infinity}}',
    '{"gen": {"events": 100, "read_fraction": -Infinity}}',
    '{"gen": {"events": 100, "values": {"f": 1e999}}}',  # overflows to inf
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


# ---------------------------------------------------------------------------
# one event source per run; --events and --seed set a generated one's length and seed

def small_trace(tmp_path):
    path = tmp_path / "a.trace"
    assert main(["gen", str(path), "--preset", "balanced", "--events", "300",
                 "--seed", "6"]) == 0
    return path


@pytest.mark.parametrize("command", ["run", "gen"])
def test_trace_and_preset_together_exit_2(tmp_path, capsys, command):
    # `gen` writes a generated trace, so it has no --trace flag to exclude
    trace_path = small_trace(tmp_path)
    argv = [command, "--trace", str(trace_path), "--preset", "balanced", "--events", "500",
            "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(tmp_path / "b.trace")] if command == "gen" else argv)
    assert exc.value.code == 2
    assert ("not allowed with argument" if command == "run"
            else "unrecognized arguments: --trace") in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "b.trace").exists()


def test_gen_rejects_the_out_flag_it_would_ignore(tmp_path, capsys):
    # `gen` writes only the trace path it is given; --out names a directory
    # for `run`'s reports
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--preset", "balanced", "--events", "50", "--out", str(tmp_path / "out"),
              str(tmp_path / "t.trace")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "t.trace").exists()


def test_events_flag_sets_the_length_of_a_config_gen(tmp_path, capsys):
    config = tmp_path / "g.json"
    config.write_text(json.dumps({"memory_blocks": 16, "schemes": ["diffwrite"],
                                  "gen": {"events": 300, "seed": 2}}))
    assert main(["run", "--config", str(config), "--events", "50",
                 "--out", str(tmp_path / "out")]) == 0
    assert "events: 50\n" in (tmp_path / "out" / "report.txt").read_text()
    assert main(["gen", "--config", str(config), "--events", "50",
                 str(tmp_path / "b.trace")]) == 0
    assert len(parse_trace_file(tmp_path / "b.trace")) == 50
    # without the flag, a preset keeps its 10,000 events
    assert main(["gen", "--preset", "balanced", str(tmp_path / "c.trace")]) == 0
    assert len(parse_trace_file(tmp_path / "c.trace")) == 10_000
    capsys.readouterr()
    # a trace file has its own length
    rc = main(["run", "--trace", str(small_trace(tmp_path)), "--events", "50",
               "--out", str(tmp_path / "out2")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --events")
    assert not (tmp_path / "out2").exists()


@pytest.mark.parametrize("from_config", [False, True])
def test_seed_with_a_trace_file_exits_2(tmp_path, capsys, from_config):
    trace_path = tmp_path / "t.trace"
    trace_path.write_text(f"W 0 {'00' * 64}\n")
    source = ["--trace", str(trace_path)]
    if from_config:
        (tmp_path / "cfg.json").write_text(json.dumps({"trace": str(trace_path)}))
        source = ["--config", str(tmp_path / "cfg.json")]
    rc = main(["run", *source, "--seed", "5", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --seed")
    assert not (tmp_path / "o").exists()


def test_config_with_trace_and_gen_exits_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"memory_blocks": 16, "trace": str(small_trace(tmp_path)),
                                  "gen": {"events": 100}}))
    with pytest.raises(ConfigError, match="'trace' and 'gen'"):
        ExperimentConfig.load(config)
    capsys.readouterr()
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "'trace' and 'gen'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# a lifetime run on zipf addresses: start-gap steps copy into dead blocks

ZIPF_LIFETIME = {
    "memory_blocks": 64, "pcm": {"cell_endurance": 200, "page_bytes": 256},
    "wear": {"enabled": True, "epoch_writes": 64, "remap_period": 97},
    "gen": {"events": 4000, "read_fraction": 0.25, "address_zipf_s": 1.2,
            "values": {"0": 0.5, "f": 0.5}, "seed": 3},
    "schemes": ["plain", "diffwrite", "fnw", "wire"], "lifetime": True, "max_writes": 200000}


def test_zipf_lifetime_report_is_pinned(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(ZIPF_LIFETIME))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "report.csv").read_text(encoding="ascii").splitlines()[1:] == [
        "plain,9637,3498,2496804,2482908,0,81378687.600000,0,9637,0.002409250,0,"
        "0.500632,1.000000,1.000000,1.000000,1.000000,0",
        "diffwrite,14629,5248,1919360,1902700,0,62443200.000000,0.14967697203,14629,"
        "0.003657250,0,0.500632,1.000000,1.000000,1.000000,1.000000,0",
        "fnw,23642,8505,1949248,1939064,238069,67434571.800000,0.185416143252,23642,"
        "0.005910500,0,0.500632,1.000000,1.000000,1.000000,1.000000,32",
        "wire,17677,6339,487994,542888,69715,18148595.400000,1.63017395378,17677,"
        "0.004419250,64,0.500632,1.000000,1.000000,1.000000,1.000000,48",
    ]
    dropped = [line.split(": ")[1] for line in
               (out / "report.txt").read_text(encoding="ascii").splitlines()
               if line.startswith("  dropped_writes:")]
    assert dropped == ["26141", "36735", "66833", "45988"]
    assert_text_report_matches_csv(out)
