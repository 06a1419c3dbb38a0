"""Calibration loading and the device-mode types it builds.

Everything tunable lives in one JSON document: device modes, per-mode
scoring curves, metric weights, category bands, outlier bounds, named
throttle profiles, and the quiet-window parameters. A packaged default
ships with the library; any audit can point at its own file instead.
`DeviceMode` is defined here because the calibration's `modes` section is
the only place one is built.
"""

from __future__ import annotations

import contextlib
import functools
import math
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, NamedTuple, TextIO

from .errors import ParseError, SchemaError
from .metrics import METRIC_KEYS, QuietWindow
from .netsim import ThrottleProfile
from .scoring import CategoryBands, ScoreCurve, WeightTable
from .trace import _checked_record, _integer, _known_keys, _number, _object, _parse_json, _read_json

MODE_KINDS = ("mobile", "desktop")
# The sections of a calibration document.
_SECTIONS = ("modes", "curves", "weights", "category_bands", "outlier_bounds", "throttle_profiles", "quiet_window")
_DATA = Path(__file__).with_name("data")  # read by path: importlib.resources imports inspect on Python 3.12


@_checked_record
class DeviceMode(NamedTuple):
    """One measurement condition: an emulated device class."""

    kind: str
    cpu_multiplier: float

    def _check(self):
        if self.kind not in MODE_KINDS:
            raise ValueError(f"kind must be one of {', '.join(MODE_KINDS)}, got {self.kind!r}")
        if self.cpu_multiplier < 1:
            raise ValueError(f"cpu_multiplier must be >= 1, got {self.cpu_multiplier!r}")


@_checked_record
class OutlierBounds(NamedTuple):
    """Scores at or beyond these bounds get flagged for manual validation."""

    upper: float
    lower: float

    def _check(self):
        if not 0 <= self.lower < self.upper <= 100:
            raise ValueError(f"need 0 <= lower < upper <= 100, got {self.lower!r}/{self.upper!r}")

    def flags(self, score: float) -> bool:
        """True when a score sits close enough to 0 or 100 to deserve a manual look."""
        return score >= self.upper or score <= self.lower


class ThrottleSpec(NamedTuple):
    """A throttle profile as configured.

    cpu_multiplier None defers to the device mode it is resolved against;
    a downlink of None means unlimited. A field left out or null takes its default.
    """

    rtt_ms: float = 0.0
    downlink_kbps: float | None = None
    cpu_multiplier: float | None = None

    def resolve(self, mode: DeviceMode | None = None) -> ThrottleProfile:
        cpu = self.cpu_multiplier
        if cpu is None:
            cpu = mode.cpu_multiplier if mode is not None else 1.0
        return ThrottleProfile(
            rtt_ms=self.rtt_ms,
            downlink_kbps=math.inf if self.downlink_kbps is None else self.downlink_kbps,
            cpu_multiplier=cpu,
        )


class Calibration(NamedTuple):
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


@contextlib.contextmanager
def open_text(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """open() for reading UTF-8 text, a leading byte-order mark skipped; a byte that
    is not UTF-8 is a ParseError naming the file, the byte's line and its offset in the file."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        # A stream counts the position within its decode chunk: decode the
        # file whole for the offset in the file.
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as whole:
            line = data.count(b"\n", 0, whole.start) + 1
            raise ParseError(f"{path}, line {line}: {whole}") from whole
        raise ParseError(f"{path}: {exc}") from exc


def default_calibration_text() -> str:
    return (_DATA / "calibration.json").read_text("utf-8")


def _packaged_calibration() -> Any:
    return _parse_json(default_calibration_text(), "<packaged calibration>")


def load_calibration(path: str | Path | None = None) -> Calibration:
    """Load a calibration file; None loads the packaged defaults."""
    return calibration_from_dict(_packaged_calibration() if path is None else _read_json(path))


def calibration_from_dict(data: Any) -> Calibration:
    """A Calibration from a document; an optional value it leaves out is read from the packaged one."""
    if not isinstance(data, dict):
        raise SchemaError("$", "calibration document must be an object")
    _known_keys(data, _SECTIONS, "$")
    packaged = functools.cache(_packaged_calibration)

    modes_data = _object(data, "modes", "$")
    _known_keys(modes_data, MODE_KINDS, "$.modes")
    modes = {}
    for kind in MODE_KINDS:
        path = f"$.modes.{kind}"
        cpu = _number(_object(modes_data, kind, "$.modes"), "cpu_multiplier", path)
        modes[kind] = _checked(path, lambda: DeviceMode(kind, cpu))
    if modes["mobile"].cpu_multiplier < modes["desktop"].cpu_multiplier:
        raise SchemaError("$.modes", "mobile cpu_multiplier must be >= desktop cpu_multiplier")

    curves_data = _object(data, "curves", "$")
    _known_keys(curves_data, MODE_KINDS, "$.curves")
    curves: dict[str, dict[str, ScoreCurve]] = {}
    for kind in MODE_KINDS:
        path = f"$.curves.{kind}"
        table = _object(curves_data, kind, "$.curves")
        curves[kind] = {}
        for key in METRIC_KEYS:
            item = _object(table, key, path)
            median = _number(item, "median_ms", f"{path}.{key}")
            podr = _number(item, "podr_ms", f"{path}.{key}")
            curves[kind][key] = _checked(f"{path}.{key}", lambda: ScoreCurve(median_ms=median, podr_ms=podr))

    weight_data = _object(data, "weights", "$")
    _known_keys(weight_data, METRIC_KEYS, "$.weights")
    weight_values = {key: _number(weight_data, key, "$.weights") for key in weight_data}
    if len(weight_values) < len(METRIC_KEYS):
        weight_values = {key: _number(packaged()["weights"], key, "$.weights") for key in METRIC_KEYS} | weight_values
    weights = _checked("$.weights", lambda: WeightTable(**weight_values))

    section = functools.partial(_optional_section, data, packaged)
    bands = section("category_bands", CategoryBands, good_min=_number, average_min=_number)
    outliers = section("outlier_bounds", OutlierBounds, upper=_number, lower=_number)
    throttles = {
        name: _throttle_spec(item, f"$.throttle_profiles.{name}")
        for name, item in _object(data, "throttle_profiles", "$").items()
    }
    quiet = section(
        "quiet_window", QuietWindow, long_task_ms=_number, window_ms=_number, max_inflight_requests=_integer
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


def _optional_section(data: dict, packaged: Callable[[], dict], key: str, cls: type, **readers: Callable) -> Any:
    """``cls`` built from the section ``data[key]``, each field read by its reader.

    An absent or null section, or a field absent or null in it, is read from ``packaged()[key]``.
    """
    path = f"$.{key}"
    section = _object(data, key, "$", default={})
    _known_keys(section, readers, path)
    values = {}
    for name, read in readers.items():
        values[name] = read(section if section.get(name) is not None else packaged()[key], name, path)
    return _checked(path, lambda: cls(**values))


def resolve_throttle(spec: str, calibration: Calibration, mode: DeviceMode | None = None) -> ThrottleProfile:
    """Turn a profile name or a profile-file path into a concrete profile."""
    return _find_throttle(spec, calibration).resolve(mode)


def _find_throttle(spec: str, calibration: Calibration) -> ThrottleSpec:
    """The profile a name or a profile-file path names, as configured; a file is read here, once per call."""
    if spec in calibration.throttles:
        return calibration.throttles[spec]
    path = Path(spec)
    if not path.exists():
        known = ", ".join(sorted(calibration.throttles))
        raise SchemaError("$.throttle_profiles", f"unknown throttle {spec!r} (profiles: {known}; or pass a file)")
    return _throttle_spec(_read_json(path), "$")


def _throttle_spec(item: Any, path: str) -> ThrottleSpec:
    """Read one throttle profile object: a key that is neither a ThrottleSpec
    field nor the retired uplink_kbps is a SchemaError.

    The spec is resolved once here so that ThrottleProfile's own checks
    reject a bad value when the document is read, not when it is used.
    """
    if not isinstance(item, dict):
        raise SchemaError(path, "throttle profile must be an object")
    defaults = ThrottleSpec._field_defaults
    _known_keys(item, (*defaults, "uplink_kbps"), path)
    spec = ThrottleSpec(**{key: _number(item, key, path, default=value) for key, value in defaults.items()})
    _checked(path, spec.resolve)
    return spec


def load_member_regions(path: str | Path | None = None) -> tuple[str, ...]:
    """Region names, one per line; blank lines and # comments are skipped."""
    with open_text(_DATA / "member_regions.txt" if path is None else path) as handle:
        names = [line.strip() for line in handle.read().splitlines()]
    return tuple(name for name in names if name and not name.startswith("#"))


def _checked(path: str, build: Callable[[], Any]) -> Any:
    """build(), with a failed range check reported as a SchemaError at path."""
    try:
        return build()
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc
