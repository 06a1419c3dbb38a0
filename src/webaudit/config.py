"""Calibration loading and the device-mode types it builds.

Everything tunable lives in one JSON document: device modes, per-mode
scoring curves, metric weights, category bands, outlier bounds, named
throttle profiles, and the quiet-window parameters. A packaged default
ships with the library; any audit can point at its own file instead.
`DeviceMode` (with its `Viewport`) is defined here because the
calibration's `modes` section is the only place one is built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping

from .errors import InvalidCurve, ParseError, SchemaError
from .metrics import METRIC_KEYS, QuietWindow
from .netsim import ThrottleProfile
from .scoring import CategoryBands, ScoreCurve, WeightTable
from .trace import _integer, _number

MODE_KINDS = ("mobile", "desktop")


@dataclass(frozen=True)
class Viewport:
    width_px: int
    height_px: int

    def __post_init__(self):
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValueError(f"viewport dimensions must be > 0, got {self.width_px}x{self.height_px}")


@dataclass(frozen=True)
class DeviceMode:
    """One measurement condition: an emulated device class."""

    kind: str
    viewport: Viewport
    cpu_multiplier: float

    def __post_init__(self):
        if self.kind not in MODE_KINDS:
            raise ValueError(f"kind must be one of {', '.join(MODE_KINDS)}, got {self.kind!r}")
        if self.cpu_multiplier < 1:
            raise ValueError(f"cpu_multiplier must be >= 1, got {self.cpu_multiplier!r}")


@dataclass(frozen=True)
class OutlierBounds:
    """Scores at or beyond these bounds get flagged for manual validation."""

    upper: float = 95.0
    lower: float = 5.0

    def __post_init__(self):
        if not 0 <= self.lower < self.upper <= 100:
            raise ValueError(f"need 0 <= lower < upper <= 100, got {self.lower!r}/{self.upper!r}")


@dataclass(frozen=True)
class ThrottleSpec:
    """A throttle profile as configured.

    cpu_multiplier None defers to the device mode it is resolved against;
    a downlink of None means unlimited.
    """

    rtt_ms: float
    downlink_kbps: float | None
    cpu_multiplier: float | None

    def resolve(self, mode: DeviceMode | None = None) -> ThrottleProfile:
        cpu = self.cpu_multiplier
        if cpu is None:
            cpu = mode.cpu_multiplier if mode is not None else 1.0
        return ThrottleProfile(
            rtt_ms=self.rtt_ms,
            downlink_kbps=math.inf if self.downlink_kbps is None else self.downlink_kbps,
            cpu_multiplier=cpu,
        )


@dataclass(frozen=True)
class Calibration:
    modes: Mapping[str, DeviceMode]
    curves: Mapping[str, Mapping[str, ScoreCurve]]
    weights: WeightTable
    bands: CategoryBands
    outliers: OutlierBounds
    throttles: Mapping[str, ThrottleSpec]
    quiet_window: QuietWindow

    def mode(self, kind: str) -> DeviceMode:
        if kind not in self.modes:
            raise SchemaError("$.modes", f"no device mode named {kind!r}")
        return self.modes[kind]

    def curves_for(self, kind: str) -> Mapping[str, ScoreCurve]:
        if kind not in self.curves:
            raise SchemaError("$.curves", f"no curves for mode {kind!r}")
        return self.curves[kind]


def default_calibration_text() -> str:
    return resources.files("webaudit").joinpath("data/calibration.json").read_text("utf-8")


def load_calibration(path: str | Path | None = None) -> Calibration:
    """Load a calibration file; None loads the packaged defaults."""
    if path is None:
        text = default_calibration_text()
        source = "<packaged calibration>"
    else:
        text = Path(path).read_text("utf-8")
        source = str(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: {exc}") from exc
    return calibration_from_dict(data)


def calibration_from_dict(data: Any) -> Calibration:
    if not isinstance(data, dict):
        raise SchemaError("$", "calibration document must be an object")

    modes = {}
    for kind, item in _object(data, "modes", "$").items():
        path = f"$.modes.{kind}"
        if kind not in MODE_KINDS:
            raise SchemaError(path, f"unknown mode kind (expected one of {', '.join(MODE_KINDS)})")
        viewport = _object(item, "viewport", path)
        width = _integer(viewport, "width_px", f"{path}.viewport")
        height = _integer(viewport, "height_px", f"{path}.viewport")
        cpu = _number(item, "cpu_multiplier", path)
        modes[kind] = _checked(path, lambda: DeviceMode(kind, Viewport(width, height), cpu))
    for kind in MODE_KINDS:
        if kind not in modes:
            raise SchemaError("$.modes", f"missing device mode {kind!r}")
    if modes["mobile"].cpu_multiplier < modes["desktop"].cpu_multiplier:
        raise SchemaError("$.modes", "mobile cpu_multiplier must be >= desktop cpu_multiplier")

    curves: dict[str, dict[str, ScoreCurve]] = {}
    for kind, table in _object(data, "curves", "$").items():
        path = f"$.curves.{kind}"
        if kind not in MODE_KINDS:
            raise SchemaError(path, "curves must be keyed by mode kind")
        curves[kind] = {}
        for key in METRIC_KEYS:
            item = _object(table, key, path)
            median = _number(item, "median_ms", f"{path}.{key}")
            podr = _number(item, "podr_ms", f"{path}.{key}")
            curves[kind][key] = _checked(f"{path}.{key}", lambda: ScoreCurve(median_ms=median, podr_ms=podr))
    for kind in MODE_KINDS:
        if kind not in curves:
            raise SchemaError("$.curves", f"missing curves for mode {kind!r}")

    weight_data = _object(data, "weights", "$")
    unknown = sorted(set(weight_data) - set(METRIC_KEYS))
    if unknown:
        raise SchemaError("$.weights", f"unknown metric keys: {', '.join(unknown)}")
    weight_values = {key: _number(weight_data, key, "$.weights") for key in weight_data}
    weights = _checked("$.weights", lambda: WeightTable(**weight_values))

    bands_data = data.get("category_bands", {})
    good_min = _number(bands_data, "good_min", "$.category_bands", default=90.0)
    average_min = _number(bands_data, "average_min", "$.category_bands", default=50.0)
    bands = _checked("$.category_bands", lambda: CategoryBands(good_min=good_min, average_min=average_min))

    outlier_data = data.get("outlier_bounds", {})
    upper = _number(outlier_data, "upper", "$.outlier_bounds", default=95.0)
    lower = _number(outlier_data, "lower", "$.outlier_bounds", default=5.0)
    outliers = _checked("$.outlier_bounds", lambda: OutlierBounds(upper=upper, lower=lower))

    throttles = {
        name: _throttle_spec(item, f"$.throttle_profiles.{name}")
        for name, item in _object(data, "throttle_profiles", "$").items()
    }

    quiet_data = data.get("quiet_window", {})
    long_task_ms = _number(quiet_data, "long_task_ms", "$.quiet_window", default=50.0)
    window_ms = _number(quiet_data, "window_ms", "$.quiet_window", default=5000.0)
    max_inflight = _integer(quiet_data, "max_inflight_requests", "$.quiet_window", default=2)
    quiet = _checked(
        "$.quiet_window",
        lambda: QuietWindow(long_task_ms=long_task_ms, window_ms=window_ms, max_inflight_requests=max_inflight),
    )

    return Calibration(
        modes=modes,
        curves=curves,
        weights=weights,
        bands=bands,
        outliers=outliers,
        throttles=throttles,
        quiet_window=quiet,
    )


def resolve_throttle(spec: str, calibration: Calibration, mode: DeviceMode | None = None) -> ThrottleProfile:
    """Turn a profile name or a profile-file path into a concrete profile."""
    if spec in calibration.throttles:
        return calibration.throttles[spec].resolve(mode)
    path = Path(spec)
    if not path.exists():
        known = ", ".join(sorted(calibration.throttles))
        raise SchemaError("$.throttle_profiles", f"unknown throttle {spec!r} (profiles: {known}; or pass a file)")
    try:
        data = json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return _throttle_spec(data, "$").resolve(mode)


def _throttle_spec(item: Any, path: str) -> ThrottleSpec:
    """Read one throttle profile object; keys it does not name are ignored.

    The spec is resolved once here so that ThrottleProfile's own checks
    reject a bad value when the document is read, not when it is used.
    """
    if not isinstance(item, dict):
        raise SchemaError(path, "throttle profile must be an object")
    spec = ThrottleSpec(
        rtt_ms=_number(item, "rtt_ms", path, default=0.0),
        downlink_kbps=_number(item, "downlink_kbps", path, default=None),
        cpu_multiplier=_number(item, "cpu_multiplier", path, default=None),
    )
    _checked(path, spec.resolve)
    return spec


def load_member_regions(path: str | Path | None = None) -> tuple[str, ...]:
    """Region names, one per line; blank lines and # comments are skipped."""
    if path is None:
        text = resources.files("webaudit").joinpath("data/member_regions.txt").read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8")
    regions = []
    for line in text.splitlines():
        name = line.strip()
        if name and not name.startswith("#"):
            regions.append(name)
    return tuple(regions)


def _checked(path: str, build: Callable[[], Any]) -> Any:
    """build(), with a failed range check reported as a SchemaError at path."""
    try:
        return build()
    except (ValueError, InvalidCurve) as exc:
        raise SchemaError(path, str(exc)) from exc


def _object(data: Any, key: str, path: str) -> dict:
    if not isinstance(data, dict) or not isinstance(data.get(key), dict):
        raise SchemaError(f"{path}.{key}", "must be an object")
    return data[key]
