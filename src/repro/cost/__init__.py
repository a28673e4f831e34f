"""Area, power and energy cost models for generated accelerators."""

from .area import AreaReport, accelerator_area, function_aluts, single_module_area
from .power import DEFAULT_FREQUENCY_HZ, PowerReport, power_report

#: Bump whenever the area/power constants or aggregation rules change in a
#: way that alters reported numbers, or the serialised ``EvalResult``
#: schema grows a field.  Part of every design-space-exploration cache key
#: (:func:`repro.dse.evaluate.result_key`), so stale sweep results are never
#: reused across cost-model revisions.
#:
#: 2: typed failure classification + ``EvalResult.diagnosis``.
COST_MODEL_VERSION = 2

__all__ = [
    "AreaReport", "accelerator_area", "single_module_area", "function_aluts",
    "PowerReport", "power_report", "DEFAULT_FREQUENCY_HZ",
    "COST_MODEL_VERSION",
]
