"""Seeded input generator for the benchmark workloads.

    python3 bench/inputs.py --workload NAME --seed N --out DIR

Writes ``DIR/corpus.csv``, one stored trace per audited site under
``DIR/traces/`` (named by ``trace_slug`` as the batch command expects) and
``DIR/manifest.json``, and prints the sha256 of everything written. The
same workload and seed give byte-identical files.

Pages are built from random draws of their own (``random.Random`` seeded
with a string, which is stable across runs and platforms) and written as
JSON directly; the program is used only for the corpus rows
(``build_corpus_rows``) and for file names (``trace_slug``). So a change to
the program never changes its inputs.

Large pages are stratified: page k of N gets the request count at the
midpoint of the k-th of N equal slices of a log-uniform distribution over
[16, 1024], and a fan-out from a fixed cycle. The seed changes every
page's structure, byte sizes, timings and site, but not the mix of sizes.
Drawn at random, the sum of squared request counts, which sets the run
time of the O(n^2) layers, would swing by about 20% from seed to seed,
and the pages at p50 and p90 by a slice's width.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from program import add_program_to_path


@dataclass(frozen=True)
class Workload:
    name: str
    modes: tuple[str, ...]
    throttle: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus-4g", ("mobile", "desktop"), "4g"),
        Workload("large-pages-4g", ("mobile", "desktop"), "4g"),
        Workload("captured-mobile-none", ("mobile",), "none"),
    )
}

TEST_DATE = "2019-08-25"

CORPUS_SITES = 1012
CORPUS_MEMBERS = 530

LARGE_SITES = 40
MIN_REQUESTS = 16
MAX_REQUESTS = 1024
# Largest burst of requests discovered at once, cycled over the pages.
FANOUTS = (2, 4, 8, 16, 32, 64)

ORIGINS = (
    "https://www.example.go.id",
    "https://static.example.go.id",
    "https://cdn.example.net",
    "https://fonts.example.com",
    "https://analytics.example.com",
)
KINDS = ("css", "js", "img", "font", "xhr")
KIND_WEIGHTS = (1, 3, 5, 1, 1)
BYTE_RANGES = {
    "doc": (20_000, 80_000),
    "css": (2_000, 30_000),
    "js": (3_000, 90_000),
    "img": (1_000, 40_000),
    "font": (10_000, 40_000),
    "xhr": (200, 5_000),
}


@dataclass(frozen=True)
class Network:
    """How a page is rendered into a recording: per-flow rate, no sharing."""

    rtt_ms: int
    kbps: int  # kilobits per second, i.e. bits per millisecond
    cpu: int


# Large pages as recorded on a fast connection (replayed under 4g), and as
# a mobile capture already made on a slow one (replayed with no throttle).
RECORDED = Network(rtt_ms=20, kbps=20_000, cpu=1)
CAPTURED = Network(rtt_ms=150, kbps=800, cpu=4)


def _log_uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    return round(lo * (hi / lo) ** rng.random())


def small_page(rng: random.Random) -> dict:
    """A 4-request page shaped like ``synth.build_demo_trace``, varied by a
    continuous heaviness h in [0, 11] and a few ms of jitter per event."""
    h = rng.uniform(0.0, 11.0)

    def jitter(hi: int) -> int:
        return rng.randint(0, hi)

    doc_end = 160 + round(60 * h) + jitter(20)
    css_start = doc_end + 20 + jitter(10)
    css_end = css_start + 50 + round(25 * h) + jitter(10)
    js_start = doc_end + 30 + jitter(10)
    js_end = js_start + 80 + round(40 * h) + jitter(10)
    img_start = css_end + 25 + jitter(10)
    img_end = img_start + 100 + round(70 * h) + jitter(20)
    origin, cdn = ORIGINS[0], ORIGINS[2]
    requests = [
        _request(0, 10, doc_end, 20_000 + round(9_000 * h), origin),
        _request(doc_end, css_start, css_end, 7_000 + round(5_000 * h), origin),
        _request(doc_end, js_start, js_end, 14_000 + round(12_000 * h), cdn),
        _request(css_end, img_start, img_end, 16_000 + round(14_000 * h), cdn),
    ]

    first_paint = css_end + 30 + jitter(10)
    fcp = first_paint + 40 + round(25 * h)
    fmp_a = fcp + 110 + round(30 * h)
    fmp_b = img_end + 15
    paints = [
        {"kind": "first-paint", "t_ms": first_paint},
        {"kind": "contentful-paint", "t_ms": fcp},
        {"kind": "fmp-candidate", "significance": 700 + round(40 * h), "t_ms": fmp_a},
        {"kind": "fmp-candidate", "significance": 500 + round(55 * h), "t_ms": fmp_b},
    ]

    tasks = [(js_end + 10, 35 + round(3 * h))]
    cursor = js_end + 120
    tasks.append((cursor, 90 + round(85 * h)))
    cursor += tasks[-1][1]
    if h >= 4:
        cursor += 600
        tasks.append((cursor, 180 + round(110 * h)))
        cursor += tasks[-1][1]
    if h >= 8:
        cursor += 1500
        tasks.append((cursor, 260 + round(90 * h)))
        cursor += tasks[-1][1]
    tasks.append((max(cursor, img_end) + 500, 25))

    visual = [(first_paint, 0.1), (fcp, 0.35), (min(fmp_a, fmp_b), 0.7), (max(fmp_a, fmp_b) + 30, 1.0)]
    return _document(paints, tasks, requests, visual)


@dataclass(frozen=True)
class PageSpec:
    """The random draws behind one large page, independent of the network
    it is rendered on."""

    parents: tuple[int | None, ...]
    offsets: tuple[int, ...]  # discovery delay after the parent's end
    queues: tuple[int, ...]  # discovery to request start
    sizes: tuple[int, ...]
    kinds: tuple[str, ...]
    origins: tuple[str, ...]
    task_gaps: tuple[int, ...]  # per request; used for doc and js only
    task_durs: tuple[int, ...]
    first_paint_gap: int
    fcp_gap: int
    fmp_images: tuple[tuple[int, int], ...]  # (request index, significance)


def page_spec(rng: random.Random, n: int, fanout: int) -> PageSpec:
    """A dependency tree grown breadth-first: each request in turn makes
    one burst of 1..fanout requests, all discovered at the same moment."""
    parents: list[int | None] = [None]
    offsets = [0]
    kinds = ["doc"]
    pending = deque([0])
    while len(parents) < n:
        parent = pending.popleft()
        burst = min(rng.randint(1, fanout), n - len(parents))
        offset = rng.randint(0, 40)
        for _ in range(burst):
            pending.append(len(parents))
            parents.append(parent)
            offsets.append(offset)
            kinds.append(rng.choices(KINDS, KIND_WEIGHTS)[0])
    images = [i for i, kind in enumerate(kinds) if kind == "img"]
    chosen = rng.sample(images, min(6, len(images)))
    return PageSpec(
        parents=tuple(parents),
        offsets=tuple(offsets),
        queues=tuple(rng.randint(0, 12) for _ in range(n)),
        sizes=tuple(_log_uniform_int(rng, *BYTE_RANGES[kind]) for kind in kinds),
        kinds=tuple(kinds),
        origins=tuple([ORIGINS[0]] + [rng.choice(ORIGINS) for _ in range(n - 1)]),
        task_gaps=tuple(rng.randint(1, 20) for _ in range(n)),
        task_durs=tuple(rng.randint(51, 250) if rng.random() < 0.3 else rng.randint(3, 45) for _ in range(n)),
        first_paint_gap=rng.randint(10, 40),
        fcp_gap=rng.randint(0, 80),
        fmp_images=tuple((i, rng.randint(100, 2000)) for i in sorted(chosen)),
    )


def render(spec: PageSpec, net: Network) -> dict:
    """The trace document of one page load on the given network.

    Every event follows what caused it: a request starts after its parent
    ends, a script's task after the script arrives, paints after the
    render-blocking styles and visual progress after the images.
    """
    ends: list[int] = []
    requests = []
    for i, parent in enumerate(spec.parents):
        discovered = 0 if parent is None else ends[parent] + spec.offsets[i]
        start = discovered + spec.queues[i]
        end = start + net.rtt_ms + math.ceil(spec.sizes[i] * 8 / net.kbps)
        ends.append(end)
        requests.append(_request(discovered, start, end, spec.sizes[i], spec.origins[i]))

    wanted = sorted((ends[i] + spec.task_gaps[i], i) for i, kind in enumerate(spec.kinds) if kind in ("doc", "js"))
    tasks = []
    free_at = 0
    for at, i in wanted:
        start = max(at, free_at)
        dur = spec.task_durs[i] * net.cpu
        tasks.append((start, dur))
        free_at = start + dur

    blocking = [0] + [i for i, p in enumerate(spec.parents) if p == 0 and spec.kinds[i] == "css"]
    first_paint = max(ends[i] for i in blocking) + spec.first_paint_gap
    fcp = first_paint + spec.fcp_gap
    paints = [{"kind": "first-paint", "t_ms": first_paint}, {"kind": "contentful-paint", "t_ms": fcp}]
    paints += [
        {"kind": "fmp-candidate", "significance": sig, "t_ms": max(ends[i], fcp) + 16} for i, sig in spec.fmp_images
    ]

    image_ends = sorted(max(ends[i], fcp) + 16 for i, kind in enumerate(spec.kinds) if kind == "img")
    # At most 30 intermediate samples, evenly picked, then the final frame.
    picked = image_ends[:: max(1, len(image_ends) // 30)][:30]
    done = max(image_ends[-1] if image_ends else fcp, fcp) + 16
    visual = [(first_paint, 0.05), (fcp, 0.25)]
    visual += [(t, round(0.25 + 0.7 * (k + 1) / len(picked), 4)) for k, t in enumerate(picked)]
    visual.append((done, 1.0))
    return _document(paints, tasks, requests, visual)


def _request(discovered: int, start: int, end: int, size: int, origin: str) -> dict:
    return {"bytes": size, "discovered_ms": discovered, "end_ms": end, "origin": origin, "start_ms": start}


def _document(paints: list, tasks: list, requests: list, visual: list) -> dict:
    return {
        "nav_start": 0,
        "paint_events": paints,
        "requests": requests,
        "tasks": [{"dur_ms": dur, "start_ms": start} for start, dur in tasks],
        "visual_progress": [{"fraction": fraction, "t_ms": t} for t, fraction in visual],
    }


def _encode(document: dict) -> str:
    # The layout write_trace uses, so these read like the program's own files.
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def large_page_plan(seed: int) -> tuple[random.Random, list[tuple[int, int]]]:
    """The seeded stream for large pages and each page's (requests, fan-out)."""
    rng = random.Random(f"large-pages:{seed}")
    span = MAX_REQUESTS / MIN_REQUESTS
    sizes = [round(MIN_REQUESTS * span ** ((k + 0.5) / LARGE_SITES)) for k in range(LARGE_SITES)]
    pages = [(n, FANOUTS[k % len(FANOUTS)]) for k, n in enumerate(sizes)]
    rng.shuffle(pages)
    return rng, pages


def generate(workload: str, seed: int, out: str | Path) -> dict:
    """Write the inputs of one workload and seed under out; returns the manifest."""
    add_program_to_path()
    from webaudit.config import load_member_regions
    from webaudit.corpus import trace_slug
    from webaudit.synth import build_corpus_rows, write_corpus_csv

    spec = WORKLOADS[workload]
    out = Path(out)
    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)

    if workload == "corpus-4g":
        rows = build_corpus_rows(CORPUS_SITES, CORPUS_MEMBERS)
        members = set(load_member_regions())
        rows_audited = [row for row in rows if row[3] in members]
        rng = random.Random(f"corpus:{seed}")
        documents = [small_page(rng) for _ in rows_audited]
        shapes = [(4, 2)] * len(rows_audited)
    else:
        rows = build_corpus_rows(LARGE_SITES, LARGE_SITES)
        rows_audited = rows
        rng, shapes = large_page_plan(seed)
        net = CAPTURED if workload == "captured-mobile-none" else RECORDED
        documents = [render(page_spec(rng, n, fanout), net) for n, fanout in shapes]

    write_corpus_csv(rows, out / "corpus.csv")
    sites = []
    for row, document, (n, fanout) in zip(rows_audited, documents, shapes):
        name = trace_slug(row[4]) + ".json"
        (traces / name).write_text(_encode(document), "utf-8")
        sites.append({"no": row[0], "url": row[4], "file": name, "requests": n, "fanout": fanout})

    manifest = {
        "workload": workload,
        "seed": seed,
        "modes": list(spec.modes),
        "throttle": spec.throttle,
        "test_date": TEST_DATE,
        "corpus_rows": len(rows),
        "sites": sites,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", "utf-8")
    return manifest


def digest(out: str | Path) -> str:
    """sha256 over every generated file's relative name and bytes."""
    out = Path(out)
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)
    print(digest(args.out))


if __name__ == "__main__":
    main()
