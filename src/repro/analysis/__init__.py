"""Result analysis: trace breakdowns (:mod:`repro.analysis.breakdown`)
and the results report (:mod:`repro.analysis.report`, run as
``python -m repro.analysis.report``; the package does not import it, so
running it as a module finds it fresh)."""

from repro.analysis.breakdown import (
    aggregate,
    breakdown_rows,
    op_breakdowns,
)

__all__ = [
    "aggregate",
    "breakdown_rows",
    "op_breakdowns",
]
