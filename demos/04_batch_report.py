"""A complete batch audit: corpus in, regional report out.

write_demo_workspace lays out a 12-region corpus with one stored trace
per site. The batch audits every site in both device modes on the 4G
profile, aggregates scores per region, and renders the markdown report
with regional means, chart data, outliers for manual review, and a
failure section. The workspace is removed when the demo ends.
"""

import tempfile
from datetime import date
from pathlib import Path

from webaudit import (
    aggregate_regions,
    emit_report,
    ingest_corpus,
    load_member_regions,
    membership_filter,
    overall_average,
    rank_regions,
    run_batch,
)
from webaudit.synth import write_demo_workspace

with tempfile.TemporaryDirectory(prefix="webaudit-demo-") as tmp:
    workspace = Path(tmp)
    paths = write_demo_workspace(workspace)
    print(f"workspace under {workspace}")

    records = membership_filter(ingest_corpus(paths["corpus"]), load_member_regions(paths["members"]))
    print(f"{len(records)} member sites in the corpus")

    results = run_batch(
        records,
        modes=("mobile", "desktop"),
        throttle="4g",
        traces_dir=paths["traces"],
        test_date=date(2019, 8, 25),
    )
    failed = [r for r in results if r.status == "failed"]
    print(f"{len(results)} audits, {len(failed)} failed")
    print()

    aggregates = aggregate_regions(results)
    overall = overall_average(aggregates)
    print("region means (mobile / web):")
    for row in aggregates:
        print(f"  {row.region:20s} {row.mean_mobile:6.2f} / {row.mean_web:6.2f}")
    print(f"  {'overall':20s} {overall['mobile']:6.1f} / {overall['web']:6.1f}")
    print()

    ranked = rank_regions(aggregates, "mobile")
    print(f"best mobile region : {ranked[0].region} ({ranked[0].mean_mobile:.2f})")
    print(f"worst mobile region: {ranked[-1].region} ({ranked[-1].mean_mobile:.2f})")
    print()

    report = emit_report(aggregates, results, "md", decimal_comma=True)
    out = workspace / "report.md"
    out.write_text(report, "utf-8")
    print(f"markdown report written to {out} (removed on exit); first lines:")
    print()
    for line in report.splitlines()[:10]:
        print(" ", line)
