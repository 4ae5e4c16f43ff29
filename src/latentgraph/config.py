"""Run configuration: one JSON document drives the whole pipeline.

``merge_config`` is the one precedence rule: a flag wins, then a key the
config file itself sets, then ``default_config(domain)``.  The domain is
resolved by the same order and is ``"generic"`` when neither sets it, so a
domain given only as a flag still picks its published agent count.
``validate`` returns every violated invariant, wrong types included, as a
diagnostic string (empty list = usable config), and the sha256 digest of
the canonical config JSON is stamped into output manifests so artifacts can
always be traced back to the parameters that produced them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Mapping

from .errors import ConfigError, DataError
from .ingest import read_json

# Published agent counts of the three released domain datasets; used as the
# default cluster count when a known domain is selected.
DOMAIN_AGENT_COUNTS = {"technology": 33, "climate": 14, "covid": 7}

# Reference structural metrics reported for the released datasets.  Only the
# replication report uses these, as side-by-side comparison targets; they
# are not reproducible from scratch without the published data.
REFERENCE_METRICS = {
    "climate": {
        "nodes": 14,
        "edges": 35,
        "density": 0.192,
        "clustering": 0.765,
        "reciprocity": 0.286,
        "avg_path_length": 1.67,
        "modularity": 0.083,
        "n_communities": 3,
        "largest_community": 7,
    },
    "covid": {
        "nodes": 7,
        "edges": 7,
        "density": 0.167,
        "clustering": 0.295,
        "reciprocity": 0.000,
        "avg_path_length": 1.67,
        "modularity": 0.122,
        "n_communities": 2,
        "largest_community": 5,
    },
    "technology": {
        "nodes": 33,
        "edges": 40,
        "density": 0.038,
        "clustering": 0.349,
        "reciprocity": 0.000,
        "avg_path_length": 1.92,
        "modularity": 0.258,
        "n_communities": 6,
        "largest_community": 19,
    },
}


@dataclass(frozen=True)
class RunConfig:
    domain: str = "generic"
    window_days: int = 30
    maybe_min: int = 2
    forsure_min: int = 3
    coverage: float = 0.0001
    sim_threshold: float = 0.1
    k_agents: int = 8
    seed: int = 42
    max_comments_per_post: int = 10
    min_interactions: int = 2
    level: str = "agent"  # 'agent' or 'user' relation inference
    interval_days: int = 182
    degree_top_k: int = 10
    posts_path: str | None = None
    comments_path: str | None = None
    out_dir: str | None = None
    lexicon_path: str | None = None
    embeddings_path: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def default_config(domain: str = "generic") -> RunConfig:
    k = DOMAIN_AGENT_COUNTS.get(domain, 8)
    return RunConfig(domain=domain, k_agents=k)


_PATH_FIELDS = ("posts_path", "comments_path", "out_dir", "lexicon_path", "embeddings_path")


FIELD_NAMES = frozenset(f.name for f in fields(RunConfig))


def read_config_file(path: str | Path) -> dict:
    """The keys a JSON config file itself sets, with no defaults filled in."""
    source = Path(path)
    try:
        data = read_json(source, "config")
    except DataError as exc:  # missing, unreadable or not JSON
        raise ConfigError(str(exc)) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: config must be a JSON object")
    unknown = set(data) - FIELD_NAMES
    if unknown:
        raise ConfigError(f"{source}: unknown config keys {sorted(unknown)}")
    return data


def merge_config(flags: Mapping[str, object], file_keys: Mapping[str, object]) -> RunConfig:
    """Flag, then file key, then ``default_config(domain)``, field by field."""
    merged = {**file_keys, **flags}
    return replace(default_config(str(merged.get("domain", "generic"))), **merged)


def load_config(path: str | Path) -> RunConfig:
    return merge_config({}, read_config_file(path))


_COUNT_FIELDS = ("window_days", "maybe_min", "forsure_min", "k_agents",
                 "max_comments_per_post", "min_interactions", "interval_days", "degree_top_k")


def _is_number(value, kinds=(int, float)) -> bool:
    """JSON numbers of the given kinds; ``True`` and ``False`` are not numbers here."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def validate(config: RunConfig) -> list[str]:
    """Every violated invariant, wrong types included, in a stable order."""
    diagnostics = []
    if not isinstance(config.domain, str):
        diagnostics.append(f"domain must be a string (got {config.domain!r})")
    for name in _COUNT_FIELDS:
        value = getattr(config, name)
        if not _is_number(value, int) or value < 1:
            diagnostics.append(f"{name} must be an integer >= 1 (got {value!r})")
    if not _is_number(config.seed, int) or config.seed < 0:
        diagnostics.append(f"seed must be an integer >= 0 (got {config.seed!r})")
    if (
        _is_number(config.maybe_min, int)
        and _is_number(config.forsure_min, int)
        and config.maybe_min > config.forsure_min
    ):
        diagnostics.append(
            f"maybe_min ({config.maybe_min}) must be <= forsure_min ({config.forsure_min})"
        )
    if not (_is_number(config.coverage) and 0.0 <= config.coverage <= 1.0):
        diagnostics.append(f"coverage must be a number in [0, 1] (got {config.coverage!r})")
    if not (_is_number(config.sim_threshold) and 0.0 < config.sim_threshold < 1.0):
        diagnostics.append(
            f"sim_threshold must be a number in (0, 1) (got {config.sim_threshold!r})"
        )
    if config.level not in ("agent", "user"):
        diagnostics.append(f"level must be 'agent' or 'user' (got {config.level!r})")
    for name in _PATH_FIELDS:
        value = getattr(config, name)
        if value is not None and not isinstance(value, str):
            diagnostics.append(f"{name} must be a path string (got {value!r})")
    return diagnostics


def require_valid(config: RunConfig) -> None:
    problems = validate(config)
    if problems:
        raise ConfigError("; ".join(problems))


def config_digest(config: RunConfig) -> str:
    """Digest of the semantic parameters.

    Filesystem locations are excluded so the digest is stable across
    machines and output directories; input file contents are digested
    separately in the run manifest.
    """
    params = {k: v for k, v in config.to_dict().items() if k not in _PATH_FIELDS}
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
