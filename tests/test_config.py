"""Calibration loading, throttle resolution, and the member-region list."""

import json
import math

import pytest

from webaudit.config import (
    Calibration,
    DeviceMode,
    OutlierBounds,
    ThrottleSpec,
    Viewport,
    calibration_from_dict,
    default_calibration_text,
    load_calibration,
    load_member_regions,
    resolve_throttle,
)
from webaudit.errors import ParseError, SchemaError
from webaudit.scoring import METRIC_KEYS


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
        assert profile.is_identity

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
        assert resolve_throttle("none", calibration, calibration.mode("mobile")).is_identity

    def test_profile_file(self, tmp_path, calibration):
        p = tmp_path / "slow.json"
        p.write_text(json.dumps({"rtt_ms": 400, "downlink_kbps": 400}), "utf-8")
        profile = resolve_throttle(str(p), calibration, calibration.mode("desktop"))
        assert (profile.rtt_ms, profile.downlink_kbps, profile.cpu_multiplier) == (400.0, 400.0, 1.0)

    def test_unknown_name_lists_known_profiles(self, calibration):
        with pytest.raises(SchemaError, match="4g"):
            resolve_throttle("5g", calibration)

    def test_profile_file_ignores_unknown_keys(self, tmp_path, calibration):
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
            (lambda d: d["modes"].update(tablet={"viewport": {"width": 1, "height": 1}, "cpu_multiplier": 1}), "tablet"),
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


class TestOutlierBounds:
    def test_validation(self):
        OutlierBounds(upper=95.0, lower=5.0)
        for upper, lower in ((5.0, 95.0), (50.0, 50.0), (101.0, 5.0), (95.0, -1.0)):
            with pytest.raises(ValueError):
                OutlierBounds(upper=upper, lower=lower)


class TestDeviceMode:
    def test_viewport_and_cpu_validation(self):
        DeviceMode(kind="mobile", viewport=Viewport(360, 640), cpu_multiplier=4.0)
        with pytest.raises(ValueError):
            Viewport(0, 640)
        with pytest.raises(ValueError):
            DeviceMode(kind="mobile", viewport=Viewport(360, 640), cpu_multiplier=0.5)
