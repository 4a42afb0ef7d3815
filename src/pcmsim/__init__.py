"""Trace-driven PCM write simulator with pluggable bit-flip-reducing encodings."""

from .core import (ConfigError, DeadBlockError, MetadataCache, PcmBlock,
                   PcmConfig, PcmMemory, SimulationError, WriteOutcome,
                   program_all_cells, program_cells)
from .mfv import MfvFinder, build_codebook, pack_granules, unpack_granules
from .metrics import (RunReport, build_report, intrav, mfv_coverage,
                      run_lifetime, top_k_coverage)
from .schemes import (SCHEME_IDS, DiffScheme, FnwScheme, PlainScheme,
                      WireScheme, make_scheme, optimal_rotation)
from .sim import Simulation
from .trace import (GenSpec, PRESETS, TraceEvent, TraceFormatError, emit_trace,
                    generate, parse_trace, parse_trace_file, preset_spec)
from .wearlevel import StartGapLeveler, WearConfig, next_epoch

__version__ = "0.1.0"
