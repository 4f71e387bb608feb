"""Measurement agents and the coordinator (§IV deployment roles)."""

from repro._facade import facade

__all__, __getattr__, __dir__ = facade(__name__, {
    ".agent": ("MeasurementAgent",),
    ".coordinator": ("Coordinator",),
})
