"""Experiment runner: config loading, trace replay, scheme comparison, reports.

Subcommands:

    run      replay or generate a trace under one or more schemes, and write
             report.csv, report.txt and the trace's value table coverage.csv
    gen      write a synthetic trace file

Config files are JSON with the section/key names used throughout the library
(`pcm.*`, `wear.*`, `gen.*`). Flags override config values.
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
from .metrics import build_report, mfv_coverage, reports_to_csv, reports_to_text
from .schemes import SCHEME_IDS, make_scheme
from .sim import Simulation, run_lifetime
from .trace import (_HEX_DIGITS, GenSpec, PRESETS, TraceFormatError, emit_trace,
                    generate, parse_trace_file, preset_spec)
from .wearlevel import WearConfig


@dataclass
class ExperimentConfig:
    """Full description of one experiment, read from JSON by `load`. Each
    field is a top-level JSON key, and a key the JSON leaves out keeps its
    field default."""

    memory_blocks: int = 256
    pcm: PcmConfig = field(default_factory=PcmConfig)
    wear: WearConfig = field(default_factory=WearConfig)
    schemes: list[str] = field(default_factory=lambda: ["diffwrite", "wire"])
    trace: str | None = None
    gen: GenSpec | None = None
    out: str = "."
    lifetime: bool = False
    max_writes: int = 100_000_000

    def validate(self, replay: bool = True) -> None:
        """Raise ConfigError on a bad setting; replay=False checks only what `gen` reads."""
        if self.memory_blocks <= 0:
            raise ConfigError("memory_blocks must be positive")
        if not replay:
            return
        if not self.schemes:
            raise ConfigError("at least one scheme is required")
        for i, s in enumerate(self.schemes):
            make_scheme(s, self.pcm, self.wear)  # id and constructor checks, before any replay
            if s in self.schemes[:i]:
                raise ConfigError(f"scheme '{s}' is listed twice")
        if self.trace is None and self.gen is None:
            raise ConfigError("either a trace path or a generator spec is required")
        if self.max_writes <= 0:
            raise ConfigError("max_writes must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _check_keys(d, _CONFIG_KEYS)
        if d.get("trace") is not None and "gen" in d:
            raise ConfigError("config sets both 'trace' and 'gen'; give one event source")
        kw = dict(d)
        if "values" in d.get("gen", {}):
            values = {}
            for k, p in d["gen"]["values"].items():
                # bare hex digits, as a trace address: int(k, 16) also takes a
                # sign, `_`, `0x` and whitespace
                if not k or not _HEX_DIGITS.issuperset(k):
                    raise ConfigError(f"gen.values key {k!r} is not a hex granule value")
                if int(k, 16) in values:
                    raise ConfigError(f"gen.values key {k!r} names a value another key names")
                values[int(k, 16)] = p
            kw["gen"] = {**d["gen"], "values": values}
        for key, section in _SECTIONS.items():
            if key in kw:
                kw[key] = section(**kw[key])
        return cls(**kw)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            d = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
        return cls.from_dict(d)


def _unique_keys(pairs) -> dict:
    """A JSON object's dict; a key it repeats raises, rather than keeping its last value."""
    d = {}
    for key, value in pairs:
        if key in d:
            raise ConfigError(f"config key '{key}' is repeated in one JSON object")
        d[key] = value
    return d


# the config sections, each built from the JSON object under its key
_SECTIONS = {"pcm": PcmConfig, "wear": WearConfig, "gen": GenSpec}
# each config key's type (an annotation, or its section's), and each annotation's JSON form
_CONFIG_KEYS = {key: _SECTIONS[key].__annotations__ if key in _SECTIONS else hint
                for key, hint in ExperimentConfig.__annotations__.items()}
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
    if cfg.trace is not None:
        return parse_trace_file(cfg.trace, cfg.pcm.block_bytes)
    return generate(cfg.gen, num_blocks=cfg.memory_blocks,
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
        sim = Simulation(scheme_id, cfg.memory_blocks, cfg.pcm, cfg.wear)
        if cfg.lifetime:
            run_lifetime(sim, events, cfg.max_writes)
        else:
            sim.replay(events)
        reports.append(build_report(sim, coverage, cfg.lifetime))

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(reports_to_csv(reports), encoding="ascii")
    lines = ["value,count,fraction,cumulative"]
    lines += [f"{v:#x},{c},{f:.6f},{cm:.6f}" for v, c, f, cm in coverage]
    (out / "coverage.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
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
    cfg.validate(replay=False)
    events = load_events(cfg)
    with open(path, "w", encoding="ascii") as fh:
        emit_trace(events, fh)
    writes = sum(1 for ev in events if ev.op == "W")
    print(f"wrote {len(events)} events ({writes} writes) to {path}")
    return 0


def _config(args) -> ExperimentConfig:
    """The config file's experiment, or the balanced preset's, with the flags applied."""
    cfg = ExperimentConfig(gen=preset_spec("balanced")) if args.config is None \
        else ExperimentConfig.load(args.config)
    if getattr(args, "trace", None) is not None:
        cfg.trace, cfg.gen = args.trace, None
    if args.preset is not None:
        cfg.trace, cfg.gen = None, preset_spec(args.preset)
    if args.events is not None:
        if cfg.gen is None:
            raise ConfigError("--events sets a generated trace's length, not a trace file's")
        cfg.gen = dataclasses.replace(cfg.gen, events=args.events)
    if args.seed is not None:
        if cfg.gen is None:
            raise ConfigError("--seed seeds a generated trace, not a trace file")
        cfg.gen = dataclasses.replace(cfg.gen, seed=args.seed)
    if getattr(args, "schemes", None) is not None:
        cfg.schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if getattr(args, "out", None) is not None:
        cfg.out = args.out
    if getattr(args, "lifetime", False):
        cfg.lifetime = True
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pcmsim",
        description="Trace-driven PCM write simulator with pluggable encodings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        """The flags both subcommands read; returns the event-source group."""
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        source = p.add_mutually_exclusive_group()
        source.add_argument("--preset", choices=sorted(PRESETS), default=None,
                            help="built-in read/write mix")
        p.add_argument("--seed", type=int, default=None, help="generator seed")
        p.add_argument("--events", type=int, default=None,
                       help="event count of a generated trace (a preset's: 10000)")
        return source

    p_run = sub.add_parser("run", help="replay a trace under the configured schemes")
    common(p_run).add_argument("--trace", type=str, default=None, help="input trace file")
    p_run.add_argument("--out", type=str, default=None, help="output directory")
    p_run.add_argument("--schemes", type=str, default=None,
                       help="comma-separated scheme list "
                            f"({', '.join(SCHEME_IDS)})")
    p_run.add_argument("--lifetime", action="store_true",
                       help="replay cyclically until half the pages are worn out")

    p_gen = sub.add_parser("gen", help="generate a synthetic trace file")
    common(p_gen)
    p_gen.add_argument("path", type=str, help="output trace path")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(_config(args))
        return cmd_gen(_config(args), args.path)
    except (ConfigError, TraceFormatError, SimulationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
