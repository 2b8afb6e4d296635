"""Allowable sequences of permutations with every flip far from the centre.

Construction procedures, an exact trace engine with independent
verification, brute-force oracles, recurrence planning, and the planar
point-set bridge between flips and bisecting-line imbalance.
"""

from .engine import (BlockSwap, FlipStep, Trace, TraceRecorder,
                     VerificationReport, flip_imbalance, min_deviation,
                     verify_stream, verify_trace)
from .errors import ConstructionBug, ContractError, RangeError, RefusalError
from .seqcore import (BalanceReport, Block, CentredSequence, Flip, Window,
                      apply_block_flip, identity_sequence, is_r_balanced,
                      is_valid_flip_block, width, width_greedy)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
