"""Website performance auditing from normalized load traces.

The pipeline: a stored trace (paint events, main-thread tasks, network
requests, visual progress) yields six load metrics; log-normal curves map
each metric to a 0-100 score; a weight table combines them into the
performance score; batches over a site corpus aggregate per region into
ranked, reportable tables. The curves, the weights and every other
calibrated number are written down only in data/calibration.json, which
load_calibration() reads. A network/CPU throttle simulator rebuilds
traces under slow conditions so stored recordings can be re-audited as if
on a 4G connection. Its one request graph is index arrays: plan_from_dict
reads a plan file into them and waterfall_times plays them over the link.

The names in ``__all__`` are the short API that the demos, the README
example and `bench/` import; everything else is imported from its module
(`webaudit.corpus`, `webaudit.report`, ...). `import webaudit` imports
none of the modules: the first use of a name imports its module and keeps
the value here, so a process loads only the layers it runs. Converting a
browser's performance entries into a trace is `webaudit.capture`, which
this package does not name.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the names this package gives from it
_EXPORTS = {
    "collector": ("load_trace",),
    "config": ("load_calibration", "load_member_regions", "resolve_throttle"),
    "corpus": ("audit_trace", "ingest_corpus", "membership_filter", "run_batch", "trace_slug"),
    "errors": ("AuditError",),
    "metrics": ("METRIC_KEYS", "compute_all", "compute_fcp", "compute_fmp", "compute_max_fid", "compute_speed_index"),
    "netsim": ("UNTHROTTLED", "apply_throttle", "plan_from_dict", "waterfall_times"),
    "report": ("aggregate_regions", "build_aggregates", "emit_report", "overall_average", "rank_regions"),
    "scoring": ("ScoreCurve", "aggregate", "categorize", "metric_score"),
    "trace": ("MainThreadTask", "NetworkRequest", "NormalizedTrace", "PaintEvent", "VisualSample"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name: str):
    """Import the module a public name lives in on its first use (PEP 562)."""
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
