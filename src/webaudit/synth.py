"""Deterministic synthetic fixtures: corpora, traces, demo workspaces.

Everything here is pure arithmetic on indices, no RNG, so generated
fixtures are byte-stable across platforms and interpreter versions.
Checked-in golden files depend on that.
"""

from __future__ import annotations

import csv
import math
import re
from datetime import date
from pathlib import Path

from .collector import write_trace
from .config import load_member_regions
from .corpus import _CSV_HEADER, trace_slug
from .trace import MainThreadTask, NetworkRequest, NormalizedTrace, PaintEvent, VisualSample

NON_MEMBER_REGIONS = (
    "Kab. Garut",
    "Kab. Sukabumi",
    "Kab. Cianjur",
    "Kab. Karawang",
    "Kab. Bekasi",
    "Kab. Purwakarta",
    "Kab. Subang",
    "Kab. Sumedang",
    "Kab. Majalengka",
    "Kab. Kuningan",
    "Kab. Tasikmalaya",
    "Kab. Ciamis",
    "Kab. Pangandaran",
    "Kota Tasikmalaya",
    "Kota Banjar",
)

_DEPARTMENTS = (
    "Pendidikan",
    "Kesehatan",
    "Perhubungan",
    "Pariwisata",
    "Pertanian",
    "Komunikasi dan Informatika",
    "Lingkungan Hidup",
    "Sosial",
)

_PLACE_NAMES = (
    "Mekarsari",
    "Sukajadi",
    "Cibodas",
    "Tanjungsari",
    "Karangasih",
    "Sindangbarang",
    "Wanakerta",
    "Babakan",
    "Cilengkrang",
    "Rancaekek",
)


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


def _scatter_multiplier(n: int) -> int:
    # Fixed multiplicative scramble; any unit mod n gives a permutation.
    m = max(3, int(n * 0.46) | 1)
    while math.gcd(m, n) != 1:
        m += 2
    return m


def build_corpus_rows(
    n_sites: int = 1012,
    n_members: int = 530,
    member_regions: tuple[str, ...] | None = None,
) -> list[tuple[int, str, str, str, str]]:
    """Rows for a synthetic corpus CSV with an exact member-site count.

    Row i takes slot (i * m) % n_sites for a fixed unit m, which is a
    permutation, so exactly n_members rows land in member regions.
    """
    if member_regions is None:
        member_regions = load_member_regions()
    if not 0 <= n_members <= n_sites:
        raise ValueError(f"need 0 <= n_members <= n_sites, got {n_members}/{n_sites}")
    m = _scatter_multiplier(n_sites)
    rows = []
    for i in range(n_sites):
        slot = (i * m) % n_sites
        if slot < n_members:
            region = member_regions[slot % len(member_regions)]
        else:
            region = NON_MEMBER_REGIONS[slot % len(NON_MEMBER_REGIONS)]
        if region == "Web SKPD Provinsi":
            tier = "provinsi"
            institution = f"Dinas {_DEPARTMENTS[slot % len(_DEPARTMENTS)]} Provinsi Jawa Barat"
        else:
            tier = ("kabupaten-kota", "kecamatan", "desa")[slot % 3]
            if tier == "kabupaten-kota":
                institution = f"Dinas {_DEPARTMENTS[slot % len(_DEPARTMENTS)]} {region}"
            elif tier == "kecamatan":
                institution = f"Kecamatan {_PLACE_NAMES[slot % len(_PLACE_NAMES)]} {region}"
            else:
                institution = f"Desa {_PLACE_NAMES[slot % len(_PLACE_NAMES)]}"
        url = f"https://{_slug(institution)}-{i:04d}.example.go.id"
        rows.append((i + 1, institution, tier, region, url))
    return rows


def write_corpus_csv(rows: list[tuple[int, str, str, str, str]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        writer.writerows(rows)


# Page heaviness per demo site index: 0 is the lightest page, 11 the
# heaviest. Index 5 (the sixth member region) gets the fast page and the
# last region the slow one, so the demo report shows a spread with
# outliers at both ends.
_DEMO_HEAVINESS = (6, 4, 8, 3, 7, 0, 5, 2, 9, 1, 10, 11)


def build_demo_trace(index: int) -> NormalizedTrace:
    """A plausible page-load trace; integer-millisecond, varied by index.

    Heaviness is mostly main-thread work, so the mobile mode (which
    multiplies task durations) suffers more than desktop, as real pages do.
    """
    h = _DEMO_HEAVINESS[index % len(_DEMO_HEAVINESS)]

    doc_end = 160 + h * 60
    css_start = doc_end + 20
    css_end = css_start + 50 + h * 25
    js_start = doc_end + 30
    js_end = js_start + 80 + h * 40
    img_start = css_end + 25
    img_end = img_start + 100 + h * 70

    requests = (
        NetworkRequest(0, 10, doc_end, 20000 + h * 9000, "https://origin.example.go.id"),
        NetworkRequest(doc_end, css_start, css_end, 7000 + h * 5000, "https://origin.example.go.id"),
        NetworkRequest(doc_end, js_start, js_end, 14000 + h * 12000, "https://cdn.example.go.id"),
        NetworkRequest(css_end, img_start, img_end, 16000 + h * 14000, "https://cdn.example.go.id"),
    )

    first_paint = css_end + 30
    fcp = first_paint + 40 + h * 25
    fmp_a = fcp + 110 + h * 30
    fmp_b = img_end + 15
    paints = (
        PaintEvent(first_paint, "first-paint"),
        PaintEvent(fcp, "contentful-paint"),
        PaintEvent(fmp_a, "fmp-candidate", significance=700.0 + h * 40),
        PaintEvent(fmp_b, "fmp-candidate", significance=500.0 + h * 55),
    )

    tasks = [MainThreadTask(js_end + 10, 35 + h * 3)]
    cursor = js_end + 120
    tasks.append(MainThreadTask(cursor, 90 + h * 85))
    cursor += 90 + h * 85
    if h >= 4:
        cursor += 600
        tasks.append(MainThreadTask(cursor, 180 + h * 110))
        cursor += 180 + h * 110
    if h >= 8:
        cursor += 1500
        tasks.append(MainThreadTask(cursor, 260 + h * 90))
        cursor += 260 + h * 90
    tasks.append(MainThreadTask(max(cursor, img_end) + 500, 25))

    visual = (
        VisualSample(first_paint, 0.1),
        VisualSample(fcp, 0.35),
        VisualSample(min(fmp_a, fmp_b), 0.7),
        VisualSample(max(fmp_a, fmp_b) + 30, 1.0),
    )

    return NormalizedTrace(
        paint_events=paints,
        tasks=tuple(tasks),
        requests=requests,
        visual_progress=visual,
    )


def build_no_paint_trace() -> NormalizedTrace:
    """A load that fetches but never paints anything contentful."""
    return NormalizedTrace(
        paint_events=(),
        tasks=(MainThreadTask(300.0, 80.0),),
        requests=(NetworkRequest(0, 10, 450, 52000, "https://origin.example.go.id"),),
        visual_progress=(),
    )


DEMO_TEST_DATE = date(2019, 8, 25)


def write_demo_workspace(root: str | Path, include_failure: bool = False) -> dict[str, Path]:
    """Lay out a ready-to-audit workspace under root.

    Contains a corpus of one site per member region with a stored trace
    each; include_failure appends one extra site whose trace never paints.
    Returns the paths batch auditing needs.
    """
    root = Path(root)
    traces_dir = root / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    member_regions = load_member_regions()

    rows = []
    for index, region in enumerate(member_regions):
        tier = "provinsi" if region == "Web SKPD Provinsi" else "kabupaten-kota"
        institution = f"Situs Utama {region}" if tier != "provinsi" else "Web SKPD Provinsi Jawa Barat"
        url = f"https://demo-{_slug(region)}.example.go.id"
        rows.append((index + 1, institution, tier, region, url))
        write_trace(build_demo_trace(index), traces_dir / (trace_slug(url) + ".json"))
    if include_failure:
        url = "https://demo-nopaint.example.go.id"
        rows.append((len(rows) + 1, "Situs Uji Gagal", "kabupaten-kota", member_regions[5], url))
        write_trace(build_no_paint_trace(), traces_dir / (trace_slug(url) + ".json"))

    corpus_path = root / "corpus.csv"
    write_corpus_csv(rows, corpus_path)
    members_path = root / "members.txt"
    members_path.write_text("\n".join(member_regions) + "\n", "utf-8")
    return {"corpus": corpus_path, "members": members_path, "traces": traces_dir}
