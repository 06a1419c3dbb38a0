"""Website performance auditing from normalized load traces.

The pipeline: a trace (paint events, main-thread tasks, network requests,
visual progress) yields six load metrics; log-normal curves map each
metric to a 0-100 score; a weight table combines them into the
performance score; batches over a site corpus aggregate per region into
ranked, reportable tables. A network/CPU throttle simulator rebuilds
traces under slow conditions so stored recordings can be re-audited as if
on a 4G connection.

The names below are the short API that the demos, the README example and
`bench/` import; everything else is imported from its module
(`webaudit.corpus`, `webaudit.report`, ...). Live capture is
`webaudit.capture`, which this package does not import.
"""

from .collector import load_trace
from .config import load_calibration, load_member_regions, resolve_throttle
from .corpus import audit_trace, ingest_corpus, membership_filter, run_batch, trace_slug
from .errors import AuditError
from .metrics import (
    METRIC_KEYS,
    compute_all,
    compute_fci,
    compute_fcp,
    compute_fmp,
    compute_max_fid,
    compute_speed_index,
    compute_tti,
)
from .netsim import UNTHROTTLED, PlannedRequest, WaterfallPlan, apply_throttle, simulate_waterfall
from .report import aggregate_regions, emit_report, overall_average, rank_regions
from .scoring import DEFAULT_WEIGHTS, ScoreCurve, aggregate, categorize, metric_score
from .trace import MainThreadTask, NetworkRequest, NormalizedTrace, PaintEvent, VisualSample

__version__ = "0.1.0"
