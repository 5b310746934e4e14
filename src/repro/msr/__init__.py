"""Memory Space Representation: the paper's core contribution.

- :mod:`repro.msr.msrlt` — the MSR Lookup Table: tracks memory blocks,
  provides machine-independent logical identification, and supports the
  address→block search used during collection (paper §3.1);
- :mod:`repro.msr.ti` — the Type Information table: per-type layout and
  the type-specific saving/restoring functions (with a vectorized fast
  path for large pointer-free arrays);
- :mod:`repro.msr.wire` — the machine-independent migration payload
  format (pointer = *pointer header* + *offset*, per §3.2);
- :mod:`repro.msr.collect` — ``Save_pointer`` / ``Save_variable``:
  depth-first traversal of the MSR graph with visited-marking;
- :mod:`repro.msr.restore` — ``Restore_pointer`` / ``Restore_variable``:
  reconstruction on the destination, in the records' (DFS) order;
- :mod:`repro.msr.model` — explicit MSR graph G=(V,E) snapshots for
  inspection, tests, and the paper's Figure 1 example.
"""

from repro.msr.msrlt import (
    BlockKind,
    LogicalId,
    MemoryBlock,
    MSRLT,
    MSRLTError,
)
from repro.msr.ti import TypeInfo, TITable
from repro.msr.collect import Collector, Save_pointer, Save_variable
from repro.msr.restore import Restorer, Restore_pointer, Restore_variable
from repro.msr.model import MSRGraph, MSREdge, build_msr_graph

__all__ = [
    "BlockKind",
    "LogicalId",
    "MemoryBlock",
    "MSRLT",
    "MSRLTError",
    "TypeInfo",
    "TITable",
    "Collector",
    "Save_pointer",
    "Save_variable",
    "Restorer",
    "Restore_pointer",
    "Restore_variable",
    "MSRGraph",
    "MSREdge",
    "build_msr_graph",
]
