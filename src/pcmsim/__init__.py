"""Trace-driven PCM write simulator with pluggable bit-flip-reducing encodings."""

from .core import (ConfigError, DeadBlockError, MetadataCache, PcmBlock,
                   PcmConfig, PcmMemory, SimulationError, WriteOutcome,
                   program_all_cells, program_cells)
from .mfv import MfvFinder, build_codebook, pack_granules, unpack_granules
from .metrics import RunReport, build_report, intrav, mfv_coverage, top_k_coverage
from .schemes import (SCHEME_IDS, SCHEMES, FnwScheme, PlainScheme, WireScheme,
                      WriteScheme, make_scheme, optimal_rotation)
from .sim import Simulation, run_lifetime
from .trace import (GenSpec, PRESETS, TraceEvent, TraceFormatError, emit_trace,
                    generate, parse_trace, parse_trace_file, preset_spec)
from .wearlevel import StartGapLeveler, WearConfig, next_epoch
