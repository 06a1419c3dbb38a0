"""Calibration loading, throttle resolution, and the member-region list."""

import codecs
import json
import math

import pytest

from webaudit import config
from webaudit.config import (
    Calibration,
    DeviceMode,
    OutlierBounds,
    ThrottleSpec,
    calibration_from_dict,
    default_calibration_text,
    load_calibration,
    load_member_regions,
    resolve_throttle,
)
from webaudit.errors import ParseError, SchemaError
from webaudit.netsim import apply_throttle
from webaudit.scoring import METRIC_KEYS
from webaudit.trace import MainThreadTask, NetworkRequest, NormalizedTrace


@pytest.fixture(scope="module")
def calibration() -> Calibration:
    return load_calibration()


class TestPackagedDefaults:
    def test_both_modes_with_full_curve_sets(self, calibration):
        for kind in ("mobile", "desktop"):
            assert set(calibration.curves_for(kind)) == set(METRIC_KEYS)
        assert calibration.mode("mobile").cpu_multiplier == 4.0
        assert calibration.mode("desktop").cpu_multiplier == 1.0

    def test_unknown_mode_or_curves_raise(self, calibration):
        with pytest.raises(SchemaError):
            calibration.mode("tablet")
        with pytest.raises(SchemaError):
            calibration.curves_for("tablet")

    def test_named_profiles_include_4g_and_none(self, calibration):
        assert {"4g", "none"} <= set(calibration.throttles)
        four_g = calibration.throttles["4g"]
        assert (four_g.rtt_ms, four_g.downlink_kbps) == (150.0, 1638.0)
        assert four_g.cpu_multiplier is None  # defers to the device mode

    def test_quiet_window_defaults(self, calibration):
        q = calibration.quiet_window
        assert (q.long_task_ms, q.window_ms, q.max_inflight_requests) == (50.0, 5000.0, 2)

    def test_explicit_path_loads_the_same_document(self, tmp_path, calibration):
        p = tmp_path / "calibration.json"
        p.write_text(default_calibration_text(), "utf-8")
        assert load_calibration(p).weights == calibration.weights


class TestThrottleSpec:
    def test_none_rates_mean_unlimited(self):
        profile = ThrottleSpec(0.0, None, 1.0).resolve()
        assert math.isinf(profile.downlink_kbps)
        trace = NormalizedTrace(requests=(NetworkRequest(0.0, 10.0, 90.0, 5000, "https://a.test"),))
        assert apply_throttle(trace, profile) is trace

    def test_deferred_cpu_takes_the_mode_multiplier(self, calibration):
        spec = ThrottleSpec(150.0, 1638.0, None)
        assert spec.resolve(calibration.mode("mobile")).cpu_multiplier == 4.0
        assert spec.resolve(calibration.mode("desktop")).cpu_multiplier == 1.0
        assert spec.resolve(None).cpu_multiplier == 1.0


class TestResolveThrottle:
    def test_named_profile(self, calibration):
        profile = resolve_throttle("4g", calibration, calibration.mode("mobile"))
        assert (profile.rtt_ms, profile.downlink_kbps, profile.cpu_multiplier) == (150.0, 1638.0, 4.0)

    def test_none_profile_is_identity_even_on_mobile(self, calibration):
        trace = NormalizedTrace(
            tasks=(MainThreadTask(100.0, 60.0),), requests=(NetworkRequest(0.0, 10.0, 90.0, 5000, "https://a.test"),)
        )
        assert apply_throttle(trace, resolve_throttle("none", calibration, calibration.mode("mobile"))) is trace

    def test_profile_file(self, tmp_path, calibration):
        p = tmp_path / "slow.json"
        p.write_text(json.dumps({"rtt_ms": 400, "downlink_kbps": 400}), "utf-8")
        profile = resolve_throttle(str(p), calibration, calibration.mode("desktop"))
        assert (profile.rtt_ms, profile.downlink_kbps, profile.cpu_multiplier) == (400.0, 400.0, 1.0)

    def test_every_mode_of_a_throttle_shares_one_link(self, tmp_path, calibration):
        # run_batch replays a site once, on the link resolved with no mode, for
        # all its modes by this rule; only a cpu_multiplier deferred to the mode varies.
        files = [tmp_path / "fixed-cpu.json", tmp_path / "deferred-cpu.json"]
        files[0].write_text(json.dumps({"rtt_ms": 40, "downlink_kbps": 700, "cpu_multiplier": 3}), "utf-8")
        files[1].write_text(json.dumps({"rtt_ms": 40, "downlink_kbps": 700}), "utf-8")
        for spec in sorted(calibration.throttles) + [str(file) for file in files]:
            profiles = [resolve_throttle(spec, calibration, calibration.mode(kind)) for kind in calibration.modes]
            profiles.append(resolve_throttle(spec, calibration))
            assert len({(p.rtt_ms, p.downlink_kbps) for p in profiles}) == 1, spec

    def test_unknown_name_lists_known_profiles(self, calibration):
        with pytest.raises(SchemaError, match="4g"):
            resolve_throttle("5g", calibration)

    def test_profile_file_ignores_the_retired_uplink_kbps(self, tmp_path, calibration):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(json.dumps({"rtt_ms": 400, "downlink_kbps": 400, "uplink_kbps": 100}), "utf-8")
        new.write_text(json.dumps({"rtt_ms": 400, "downlink_kbps": 400}), "utf-8")
        assert resolve_throttle(str(old), calibration) == resolve_throttle(str(new), calibration)

    @pytest.mark.parametrize(
        "doc",
        [{"rtt_ms": -1}, {"rtt_ms": "fast"}, {"downlink_kbps": 0}, {"cpu_multiplier": 0.5}, [150]],
    )
    def test_profile_file_rejections_are_schema_errors(self, tmp_path, calibration, doc):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc), "utf-8")
        with pytest.raises(SchemaError, match=r"^\$"):
            resolve_throttle(str(p), calibration)

    def test_unparsable_profile_file(self, tmp_path, calibration):
        p = tmp_path / "junk.json"
        p.write_text("{", "utf-8")
        with pytest.raises(ParseError):
            resolve_throttle(str(p), calibration)


class TestCalibrationSchema:
    def base(self) -> dict:
        return json.loads(default_calibration_text())

    @pytest.mark.parametrize(
        "mutate, path_part",
        [
            (lambda d: d.pop("modes"), "modes"),
            (lambda d: d["modes"].update(tablet={"cpu_multiplier": 1}), "tablet"),
            (lambda d: d["curves"]["mobile"].pop("tti"), "tti"),
            (lambda d: d["curves"]["mobile"]["fcp"].update(podr_ms=99999), "fcp"),
            (lambda d: d["weights"].update(fcp="heavy"), "weights"),
            (lambda d: d["category_bands"].update(good_min=40), "category_bands"),
            (lambda d: d["outlier_bounds"].update(lower=96), "outlier_bounds"),
            (lambda d: d["throttle_profiles"]["4g"].update(downlink_kbps=-5), "downlink_kbps"),
            (lambda d: d["throttle_profiles"]["4g"].update(rtt_ms=float("nan")), "rtt_ms"),
            (lambda d: d["throttle_profiles"]["4g"].update(rtt_ms="fast"), "rtt_ms"),
            (lambda d: d["throttle_profiles"]["4g"].update(cpu_multiplier=0.5), "4g"),
            (lambda d: d["quiet_window"].update(max_inflight_requests="two"), "max_inflight_requests"),
            (lambda d: d["quiet_window"].update(window_ms=0), "window_ms"),
            (lambda d: d.update(category_bands=[1]), "$.category_bands: must be an object"),
            (lambda d: d.update(outlier_bounds=7), "$.outlier_bounds: must be an object"),
            (lambda d: d.update(quiet_window="quiet"), "$.quiet_window: must be an object"),
            (lambda d: d["modes"].pop("desktop"), "$.modes.desktop: missing field"),
            (lambda d: d["modes"].update(mobile=5), "$.modes.mobile: must be an object"),
            (lambda d: d["curves"].update(tablet={}), "$.curves.tablet: unknown field"),
            (lambda d: d["curves"].pop("mobile"), "$.curves.mobile: missing field"),
            (lambda d: d["weights"].update(speed=0.1), "$.weights.speed: unknown field"),
            (lambda d: d.pop("throttle_profiles"), "$.throttle_profiles: missing field"),
        ],
    )
    def test_rejections_carry_a_path(self, mutate, path_part):
        doc = self.base()
        mutate(doc)
        with pytest.raises(SchemaError) as exc:
            calibration_from_dict(doc)
        assert path_part in str(exc.value)

    @pytest.mark.parametrize(
        "weights_patch",
        [{"fcp": -0.5}, {"fcp": 1.2}, None],
        ids=["negative", "above_one", "missing_metrics"],
    )
    def test_weight_rejections_carry_a_path(self, weights_patch):
        doc = self.base()
        if weights_patch is None:
            doc["weights"] = {"fcp": 1.0}
        else:
            doc["weights"].update(weights_patch)
        with pytest.raises(SchemaError) as exc:
            calibration_from_dict(doc)
        assert "weights" in str(exc.value)

    def test_old_calibration_with_uplink_still_loads(self):
        doc = self.base()
        doc["throttle_profiles"]["4g"]["uplink_kbps"] = 750
        assert calibration_from_dict(doc) == calibration_from_dict(self.base())

    @pytest.mark.parametrize(
        "extra",
        [{"foo": 1}, {"viewport": {"width_px": 0, "height_px": 640}}],
        ids=["unknown-key", "retired-viewport"],
    )
    def test_keys_a_mode_item_does_not_read_are_ignored(self, extra):
        doc = self.base()
        doc["modes"]["mobile"].update(extra)
        assert calibration_from_dict(doc) == calibration_from_dict(self.base())

    def test_missing_optional_sections_load_the_packaged_values(self):
        doc = self.base()
        for section in ("category_bands", "outlier_bounds", "quiet_window"):
            del doc[section]
        assert calibration_from_dict(doc) == calibration_from_dict(self.base())

    def test_null_optional_field_keeps_its_default(self):
        doc = self.base()
        doc["quiet_window"] = {"window_ms": None, "max_inflight_requests": 3}
        quiet = calibration_from_dict(doc).quiet_window
        assert (quiet.long_task_ms, quiet.window_ms, quiet.max_inflight_requests) == (50.0, 5000.0, 3)

    @pytest.mark.parametrize(
        "leave_out",
        [
            lambda d: d.pop("quiet_window"),
            lambda d: d["quiet_window"].pop("window_ms"),
            lambda d: d["quiet_window"].update(window_ms=None),
        ],
        ids=["section", "field", "null_field"],
    )
    def test_a_quiet_window_value_left_out_comes_from_the_packaged_document(self, monkeypatch, leave_out):
        doc = self.base()
        leave_out(doc)
        packaged = self.base()
        packaged["quiet_window"]["window_ms"] = 1000
        monkeypatch.setattr(config, "default_calibration_text", lambda: json.dumps(packaged))
        assert calibration_from_dict(doc).quiet_window.window_ms == 1000.0

    def test_weights_bands_and_bounds_left_out_come_from_the_packaged_document(self, monkeypatch):
        doc = self.base()
        del doc["weights"]["fcp"], doc["weights"]["si"], doc["category_bands"], doc["outlier_bounds"]["lower"]
        packaged = self.base()
        packaged["weights"].update(fcp=0.267, si=0.2)
        packaged["category_bands"]["good_min"] = 80
        packaged["outlier_bounds"]["lower"] = 10
        monkeypatch.setattr(config, "default_calibration_text", lambda: json.dumps(packaged))
        loaded = calibration_from_dict(doc)
        assert (loaded.weights.fcp, loaded.weights.si, loaded.weights.tti) == (0.267, 0.2, 0.333)
        assert (loaded.bands.good_min, loaded.bands.average_min) == (80.0, 50.0)
        assert (loaded.outliers.upper, loaded.outliers.lower) == (95.0, 10.0)

    def test_the_packaged_text_is_read_at_most_once(self, monkeypatch):
        text = default_calibration_text()
        reads = []
        monkeypatch.setattr(config, "default_calibration_text", lambda: reads.append(text) or text)
        calibration_from_dict(json.loads(text))
        assert reads == []  # a complete document never needs it
        doc = json.loads(text)
        del doc["weights"]["fcp"], doc["category_bands"], doc["outlier_bounds"], doc["quiet_window"]
        assert calibration_from_dict(doc) == calibration_from_dict(json.loads(text))
        assert len(reads) == 1

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["quiet_window"].update(windw_ms=100), "$.quiet_window.windw_ms: unknown field"),
            (lambda d: d.update(quiet_window={"windw_ms": 100}), "$.quiet_window.windw_ms: unknown field"),
            (lambda d: d["category_bands"].update(good=90), "$.category_bands.good: unknown field"),
            (lambda d: d["outlier_bounds"].update(uper=90), "$.outlier_bounds.uper: unknown field"),
            (lambda d: d.update(outlier_bound={"upper": 90, "lower": 10}), "$.outlier_bound: unknown field"),
        ],
        ids=["field", "field-of-a-partial-section", "band", "bound", "section"],
    )
    def test_an_unknown_key_at_the_top_or_in_an_optional_section_is_an_error(self, mutate, message):
        # Before, each of these loaded the packaged value without a word.
        doc = self.base()
        mutate(doc)
        with pytest.raises(SchemaError) as exc:
            calibration_from_dict(doc)
        assert str(exc.value) == message

    def test_a_null_weight_is_still_an_error(self):
        doc = self.base()
        doc["weights"]["fcp"] = None
        with pytest.raises(SchemaError) as exc:
            calibration_from_dict(doc)
        assert str(exc.value) == "$.weights.fcp: must be a number"

    def test_mobile_cpu_may_not_undercut_desktop(self):
        doc = self.base()
        doc["modes"]["mobile"]["cpu_multiplier"] = 0.5
        with pytest.raises(SchemaError):
            calibration_from_dict(doc)

    def test_broken_json_is_a_parse_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("not json", "utf-8")
        with pytest.raises(ParseError):
            load_calibration(p)


class TestMemberRegions:
    def test_packaged_list_has_the_twelve_reporting_rows(self):
        regions = load_member_regions()
        assert len(regions) == 12
        assert regions[0] == "Web SKPD Provinsi"
        assert "Kota Bandung" in regions
        assert "Kab. Cirebon" in regions

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "members.txt"
        p.write_text("# header\n\nKota A\n  Kota B \n", "utf-8")
        assert load_member_regions(p) == ("Kota A", "Kota B")

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        p = tmp_path / "members.txt"
        p.write_bytes(codecs.BOM_UTF8 + "Web SKPD Provinsi\nKota Bandung\n".encode("utf-8"))
        assert load_member_regions(p) == ("Web SKPD Provinsi", "Kota Bandung")


class TestOutlierBounds:
    def test_validation(self):
        OutlierBounds(upper=95.0, lower=5.0)
        for upper, lower in ((5.0, 95.0), (50.0, 50.0), (101.0, 5.0), (95.0, -1.0)):
            with pytest.raises(ValueError):
                OutlierBounds(upper=upper, lower=lower)


class TestDeviceMode:
    def test_cpu_validation(self):
        DeviceMode(kind="mobile", cpu_multiplier=4.0)
        with pytest.raises(ValueError):
            DeviceMode(kind="mobile", cpu_multiplier=0.5)
