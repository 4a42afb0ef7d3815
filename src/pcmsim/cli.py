"""Experiment runner: config loading, trace replay, scheme comparison, reports.

Subcommands:

    run      replay or generate a trace under one or more schemes
    gen      write a synthetic trace file
    analyze  print the granule-value frequency table of a trace

Config files are JSON with the section/key names used throughout the library
(`pcm.*`, `wear.*`, `fnw.word_bits`, `gen.*`). Flags override config values.
Identical config and seed reproduce identical output bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .core import ConfigError, PcmConfig, SimulationError
from .metrics import (build_report, mfv_coverage, reports_to_csv,
                      reports_to_text, run_lifetime)
from .schemes import SCHEME_IDS, FnwScheme
from .sim import Simulation
from .trace import (GenSpec, PRESETS, TraceFormatError, emit_trace, generate,
                    parse_trace_file, preset_spec)
from .wearlevel import WearConfig


@dataclass
class ExperimentConfig:
    """Full description of one experiment, read from JSON by `load`; a key
    the JSON leaves out keeps its field default."""

    memory_blocks: int = 256
    pcm: PcmConfig = field(default_factory=PcmConfig)
    wear: WearConfig = field(default_factory=WearConfig)
    schemes: list[str] = field(default_factory=lambda: ["diffwrite", "wire"])
    fnw_word_bits: int = 16
    trace_path: str | None = None
    gen: GenSpec | None = None
    seed: int | None = None
    out_dir: str = "."
    lifetime: bool = False
    max_writes: int = 100_000_000

    def validate(self) -> None:
        if self.memory_blocks <= 0:
            raise ConfigError("memory_blocks must be positive")
        if not self.schemes:
            raise ConfigError("at least one scheme is required")
        for s in self.schemes:
            if s not in SCHEME_IDS:
                raise ConfigError(f"unknown scheme '{s}'")
        FnwScheme(self.pcm, self.fnw_word_bits)  # checks the word width, run or not
        if self.trace_path is None and self.gen is None:
            raise ConfigError("either a trace path or a generator spec is required")
        if self.max_writes <= 0:
            raise ConfigError("max_writes must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _check_keys(d, _CONFIG_KEYS)
        cfg = cls()
        if "rotation_max" in d.get("wire", {}):
            raise ConfigError("wire.rotation_max is not a config key; "
                              "set pcm.rotation_max instead")
        cfg.pcm = PcmConfig(**dict(d.get("pcm", {})))
        cfg.wear = WearConfig(**d.get("wear", {}))
        cfg.memory_blocks = d.get("memory_blocks", cfg.memory_blocks)
        cfg.schemes = list(d.get("schemes", cfg.schemes))
        cfg.fnw_word_bits = d.get("fnw", {}).get("word_bits", cfg.fnw_word_bits)
        cfg.trace_path = d.get("trace")
        cfg.seed = d.get("seed")
        cfg.out_dir = d.get("out", cfg.out_dir)
        cfg.lifetime = d.get("lifetime", cfg.lifetime)
        cfg.max_writes = d.get("max_writes", cfg.max_writes)
        if "gen" in d:
            g = dict(d["gen"])
            try:
                g["values"] = {int(k, 16): v for k, v in g.get("values", {}).items()}
            except ValueError:
                raise ConfigError("gen.values keys must be hex granule values") from None
            cfg.gen = GenSpec(**g)
        return cfg

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            d = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
        return cls.from_dict(d)


# each config key's type (an annotation, or its section's), and each annotation's JSON form
_CONFIG_KEYS = {"memory_blocks": "int", "schemes": "list", "trace": "str | None",
                "seed": "int | None", "out": "str", "lifetime": "bool", "max_writes": "int",
                "pcm": PcmConfig.__annotations__, "wear": WearConfig.__annotations__,
                "gen": GenSpec.__annotations__, "fnw": {"word_bits": "int"},
                "wire": {"rotation_max": "int"}}
_JSON_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "bool": ((bool,), "true or false"), "str": ((str,), "a string"),
               "dict": ((dict,), "a JSON object"), "list": ((list,), "a JSON list of names")}


def _is_finite(value) -> bool:
    """False for an infinite or NaN float, or a JSON object that holds one.

    JSON's NaN, Infinity and overflowing literals such as 1e999 parse to
    these; no config value may be one.
    """
    if isinstance(value, dict):
        return all(map(_is_finite, value.values()))
    return not isinstance(value, float) or math.isfinite(value)


def _check_keys(kw, types, where: str = "") -> None:
    """Raise ConfigError unless each key of `kw` is in `types` with a finite
    value of its type."""
    if not isinstance(kw, dict):
        raise ConfigError(f"config section '{where[:-1]}' must be a JSON object" if where
                          else "config must be a JSON object")
    for key, value in kw.items():
        hint = types.get(key)
        if hint is None:
            raise ConfigError(f"unknown config key '{where}{key}'")
        if isinstance(hint, dict):
            _check_keys(value, hint, f"{where}{key}.")
            continue
        want, name = _JSON_TYPES[hint.split(" | ")[0].split("[")[0]]
        if type(value) not in want and not (value is None and hint.endswith("| None")):
            raise ConfigError(f"config key '{where}{key}' must be {name}, not {value!r}")
        if not _is_finite(value):
            raise ConfigError(f"config key '{where}{key}' holds {value!r}, not a finite number")


def load_events(cfg: ExperimentConfig):
    if cfg.trace_path is not None:
        return parse_trace_file(cfg.trace_path, cfg.pcm.block_bytes)
    gen = dataclasses.replace(cfg.gen)
    if cfg.seed is not None:
        gen.seed = cfg.seed
    return generate(gen, num_blocks=cfg.memory_blocks,
                    block_bytes=cfg.pcm.block_bytes,
                    granule_bits=cfg.pcm.granule_bits)


def trace_digest(events) -> str:
    h = hashlib.sha256()
    for ev in events:
        h.update(ev.op.encode())
        h.update(ev.addr.to_bytes(8, "little"))
        if ev.payload is not None:
            h.update(ev.payload)
    return h.hexdigest()


def cmd_run(cfg: ExperimentConfig) -> int:
    """Replay one trace under every configured scheme and write the reports."""
    cfg.validate()
    # frozen events in a tuple: every scheme replays the identical stream
    events = tuple(load_events(cfg))
    digest = trace_digest(events)
    coverage = mfv_coverage((ev.payload for ev in events if ev.op == "W"),
                            cfg.pcm.granule_bits)

    reports = []
    for scheme_id in cfg.schemes:
        sim = Simulation(scheme_id, cfg.memory_blocks, cfg.pcm, cfg.wear,
                         fnw_word_bits=cfg.fnw_word_bits)
        if cfg.lifetime:
            run_lifetime(sim, events, cfg.max_writes)
        else:
            sim.replay(events)
        reports.append(build_report(sim, coverage, cfg.lifetime))

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(reports_to_csv(reports), encoding="ascii")
    header = [
        "pcm write simulation report",
        f"trace_sha256: {digest}",
        f"events: {len(events)}",
        f"memory_blocks: {cfg.memory_blocks}",
        f"lifetime_mode: {str(cfg.lifetime).lower()}",
        "",
    ]
    (out / "report.txt").write_text(reports_to_text(reports, header), encoding="ascii")
    for rep in reports:
        flag = " [truncated]" if rep.truncated else ""
        print(f"{rep.scheme}: writes={rep.writes} flips={rep.flips_set + rep.flips_reset} "
              f"energy_pj={rep.energy_pj:.1f} intrav={rep.intrav:.6g}{flag}")
    return 0


def cmd_gen(cfg: ExperimentConfig, path: str) -> int:
    """Generate a synthetic trace file."""
    if cfg.gen is None:
        raise ConfigError("gen subcommand needs a generator spec (config or --preset)")
    cfg.validate()
    events = load_events(cfg)
    with open(path, "w", encoding="ascii") as fh:
        emit_trace(events, fh)
    writes = sum(1 for ev in events if ev.op == "W")
    print(f"wrote {len(events)} events ({writes} writes) to {path}")
    return 0


def cmd_analyze(trace_path: str, granule_bits: int, block_bytes: int,
                out_dir: str | None = None) -> int:
    """Print (and optionally emit as CSV) a trace's value frequency table."""
    if block_bytes <= 0:
        raise ConfigError(f"--block-bytes must be positive, not {block_bytes}")
    events = parse_trace_file(trace_path, block_bytes)
    rows = mfv_coverage((ev.payload for ev in events if ev.op == "W"), granule_bits)
    print(f"{'value':>6} {'count':>10} {'fraction':>9} {'cumulative':>10}")
    for v, count, frac, cum in rows:
        print(f"{v:>#6x} {count:>10} {frac:>9.4f} {cum:>10.4f}")
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["value,count,fraction,cumulative"]
        lines += [f"{v:#x},{c},{f:.6f},{cm:.6f}" for v, c, f, cm in rows]
        (out / "coverage.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    return 0


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.trace is not None:
        cfg.trace_path = args.trace
        cfg.gen = None
    if args.preset is not None:
        cfg.gen = preset_spec(args.preset, events=args.events,
                              seed=args.seed if args.seed is not None else 0)
        cfg.trace_path = None
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "schemes", None):
        cfg.schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if args.out is not None:
        cfg.out_dir = args.out
    if getattr(args, "lifetime", False):
        cfg.lifetime = True
    return cfg


def _base_config(args) -> ExperimentConfig:
    if args.config is not None:
        cfg = ExperimentConfig.load(args.config)
    else:
        cfg = ExperimentConfig()
        cfg.gen = preset_spec("balanced", events=args.events)
    return _apply_overrides(cfg, args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pcmsim",
        description="Trace-driven PCM write simulator with pluggable encodings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--trace", type=str, default=None, help="input trace file")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="generator seed")
        p.add_argument("--events", type=int, default=10_000,
                       help="event count for generated traces")
        p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                       help="built-in read/write mix")

    p_run = sub.add_parser("run", help="replay a trace under the configured schemes")
    common(p_run)
    p_run.add_argument("--schemes", type=str, default=None,
                       help="comma-separated scheme list "
                            f"({', '.join(SCHEME_IDS)})")
    p_run.add_argument("--lifetime", action="store_true",
                       help="replay cyclically until half the pages are worn out")

    p_gen = sub.add_parser("gen", help="generate a synthetic trace file")
    common(p_gen)
    p_gen.add_argument("path", type=str, help="output trace path")

    p_an = sub.add_parser("analyze", help="value frequency table of a trace")
    p_an.add_argument("trace", type=str, help="trace file to analyze")
    p_an.add_argument("--granule-bits", type=int, choices=(1, 2, 4, 8), default=4)
    p_an.add_argument("--block-bytes", type=int, default=64)
    p_an.add_argument("--out", type=str, default=None,
                      help="also write coverage.csv to this directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(_base_config(args))
        if args.command == "gen":
            return cmd_gen(_base_config(args), args.path)
        if args.command == "analyze":
            return cmd_analyze(args.trace, args.granule_bits, args.block_bytes,
                               args.out)
    except (ConfigError, TraceFormatError, SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
