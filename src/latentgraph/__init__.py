"""latent-graph: empirically grounded interaction graphs from post/comment dumps.

The package turns raw Reddit-style JSONL dumps into a simulation-ready
social graph: staged preprocessing with auditable manifests, user-to-agent
clustering, window-consistency follow inference, directed weighted graph
construction, a structural metric suite, triadic-closure time series, and
linear interaction-chain extraction.
"""

__version__ = "0.1.0"

from .config import RunConfig, default_config, load_config, validate  # noqa: F401
from .graph import EdgeClass, InteractionGraph, apply_coverage, build  # noqa: F401
from .inference import (  # noqa: F401
    FollowEdge,
    FollowStatus,
    InteractionEvent,
    WindowGrid,
    classify,
    event_timeline,
    extract_events,
    infer_all,
)
from .ingest import (  # noqa: F401
    RawRecord,
    RecordKind,
    StageSnapshot,
    load_dump,
    run_pipeline,
)
from .metrics import MetricsReport, full_report  # noqa: F401
from .profiles import AgentProfile, UserVectors, cluster_users  # noqa: F401
