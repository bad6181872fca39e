#!/usr/bin/env python3
"""Schema check for the BENCH_*.json files the bench binaries emit.

Every bench links bench/common.hpp's BenchReporter, which writes one
`BENCH_<name>.json` per run (schema `lookhd-bench-v2`). Downstream
perf tooling (tools/bench_compare.py) diffs those files across
commits, so CI validates that the schema never drifts: required keys
present, no key outside the schema, types right, the `name` field
consistent with the filename, and the v2 `quality` section
well-formed. Files still claiming the retired `lookhd-bench-v1`
schema are rejected - they predate quality telemetry and must be
regenerated.

Usage:
    validate_bench_json.py FILE_OR_DIR [FILE_OR_DIR ...]

Directories are scanned (non-recursively) for BENCH_*.json. Passing a
directory that contains no bench JSON is an error - it almost always
means the smoke run silently wrote elsewhere.

Exit status: 0 clean, 1 violations (printed one per line as
`path: message`).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SCHEMA = "lookhd-bench-v2"
RETIRED_SCHEMAS = ("lookhd-bench-v1",)

# Top-level key -> required JSON type.
TOP_LEVEL = {
    "schema": str,
    "name": str,
    "git_rev": str,
    "quick": bool,
    "config": dict,
    "metrics": dict,
    "registry": dict,
    "span_rollup": list,
    "quality": dict,
}

REGISTRY_SECTIONS = ("counters", "gauges", "latency", "labels")

SPAN_FIELDS = {
    "name": str,
    "category": str,
    "count": (int, float),
    "total_ns": (int, float),
    "self_ns": (int, float),
}

LATENCY_FIELDS = ("count", "min_ns", "max_ns", "mean_ns", "p50_ns",
                  "p90_ns", "p99_ns")

MARGIN_FIELDS = ("count", "negatives", "mean", "min", "max",
                 "bucket_edges", "buckets")

CONFUSION_FIELDS = ("classes", "total", "correct", "accuracy",
                    "counts")

# Per-bench contracts: benches whose downstream gating depends on
# specific metrics / config keys being present. bench_compare.py can
# only gate what the emitter actually wrote, so absence is caught
# here rather than as a silent MISSING row later.
BENCH_RULES = {
    "batch_predict": {
        "metrics": ("predict_scalar_loop_ms", "predict_batch_ms",
                    "speedup_batch_vs_scalar"),
        "config": ("kernel", "threads", "dim", "classes"),
    },
    "binary_vs_lookhd": {
        "metrics": tuple(f"accuracy_{model}_{app}"
                         for model in ("lookhd", "binary")
                         for app in ("SPEECH", "ACTIVITY", "PHYSICAL",
                                     "FACE", "EXTRA")),
        "config": (),
    },
    "quantized_predict": {
        "metrics": ("accuracy_float64", "accuracy_int8",
                    "accuracy_binary", "accuracy_delta_int8",
                    "accuracy_delta_binary",
                    "speedup_int8_vs_float64", "results_identical"),
        "config": ("kernel", "dim", "classes"),
    },
}


def check_file(path: Path) -> list[str]:
    problems = []

    def bad(message: str) -> None:
        problems.append(f"{path}: {message}")

    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable or invalid JSON ({exc})"]
    if not isinstance(doc, dict):
        return [f"{path}: top level must be a JSON object"]

    for key, kind in TOP_LEVEL.items():
        if key not in doc:
            bad(f"missing required key '{key}'")
        elif not isinstance(doc[key], kind):
            bad(f"'{key}' must be {kind.__name__}, "
                f"got {type(doc[key]).__name__}")
    for key in doc:
        if key not in TOP_LEVEL:
            bad(f"unexpected top-level key '{key}'")

    if doc.get("schema") in RETIRED_SCHEMAS:
        bad(f"schema '{doc['schema']}' is retired; regenerate with a "
            f"'{SCHEMA}' emitter (it lacks the quality section)")
    elif doc.get("schema") not in (None, SCHEMA):
        bad(f"schema is '{doc['schema']}', expected '{SCHEMA}'")

    name = doc.get("name")
    if isinstance(name, str) and path.name != f"BENCH_{name}.json":
        bad(f"name '{name}' does not match filename "
            f"(expected BENCH_{name}.json)")

    metrics = doc.get("metrics")
    if isinstance(metrics, dict):
        for key, value in metrics.items():
            if not isinstance(value, (int, float)) or \
                    isinstance(value, bool):
                bad(f"metric '{key}' must be a number, "
                    f"got {type(value).__name__}")

    rules = BENCH_RULES.get(name) if isinstance(name, str) else None
    if rules:
        if isinstance(metrics, dict):
            for key in rules["metrics"]:
                if key not in metrics:
                    bad(f"bench '{name}' must emit metric '{key}' "
                        f"(gated by bench_compare.py)")
        config = doc.get("config")
        if isinstance(config, dict):
            for key in rules["config"]:
                if key not in config:
                    bad(f"bench '{name}' must record config key "
                        f"'{key}'")

    registry = doc.get("registry")
    if isinstance(registry, dict):
        for section in REGISTRY_SECTIONS:
            if not isinstance(registry.get(section), dict):
                bad(f"registry.{section} missing or not an object")
        latency = registry.get("latency")
        if isinstance(latency, dict):
            for hist_name, hist in latency.items():
                if not isinstance(hist, dict):
                    bad(f"registry.latency.{hist_name} must be an "
                        f"object")
                    continue
                for field in LATENCY_FIELDS:
                    if field not in hist:
                        bad(f"registry.latency.{hist_name} missing "
                            f"'{field}'")

    rollup = doc.get("span_rollup")
    if isinstance(rollup, list):
        for i, span in enumerate(rollup):
            if not isinstance(span, dict):
                bad(f"span_rollup[{i}] must be an object")
                continue
            for field, kind in SPAN_FIELDS.items():
                if field not in span:
                    bad(f"span_rollup[{i}] missing '{field}'")
                elif not isinstance(span[field], kind):
                    bad(f"span_rollup[{i}].{field} has wrong type "
                        f"{type(span[field]).__name__}")

    # v2 quality section: margin histograms + confusion counters.
    # Empty sub-objects are fine (OBS=OFF builds emit them empty).
    quality = doc.get("quality")
    if isinstance(quality, dict):
        for section in ("margins", "confusion"):
            if not isinstance(quality.get(section), dict):
                bad(f"quality.{section} missing or not an object")
        margins = quality.get("margins")
        if isinstance(margins, dict):
            for mname, hist in margins.items():
                if not isinstance(hist, dict):
                    bad(f"quality.margins.{mname} must be an object")
                    continue
                for field in MARGIN_FIELDS:
                    if field not in hist:
                        bad(f"quality.margins.{mname} missing "
                            f"'{field}'")
                edges = hist.get("bucket_edges")
                buckets = hist.get("buckets")
                if isinstance(edges, list) and \
                        isinstance(buckets, list) and \
                        len(buckets) != len(edges) + 1:
                    bad(f"quality.margins.{mname}: {len(buckets)} "
                        f"buckets but {len(edges)} edges (want "
                        f"edges + 1)")
        confusion = quality.get("confusion")
        if isinstance(confusion, dict):
            for cname, cm in confusion.items():
                if not isinstance(cm, dict):
                    bad(f"quality.confusion.{cname} must be an object")
                    continue
                for field in CONFUSION_FIELDS:
                    if field not in cm:
                        bad(f"quality.confusion.{cname} missing "
                            f"'{field}'")
                counts = cm.get("counts")
                classes = cm.get("classes")
                if isinstance(counts, list) and \
                        isinstance(classes, int) and \
                        len(counts) != classes:
                    bad(f"quality.confusion.{cname}: {len(counts)} "
                        f"count rows but {classes} classes")

    return problems


def collect(arg: str) -> tuple[list[Path], list[str]]:
    path = Path(arg)
    if path.is_dir():
        files = sorted(path.glob("BENCH_*.json"))
        if not files:
            return [], [f"{path}: no BENCH_*.json files found"]
        return files, []
    if path.is_file():
        return [path], []
    return [], [f"{path}: no such file or directory"]


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 1
    files: list[Path] = []
    problems: list[str] = []
    for arg in argv:
        found, errs = collect(arg)
        files.extend(found)
        problems.extend(errs)
    for path in files:
        problems.extend(check_file(path))

    if problems:
        print(f"validate_bench_json: {len(problems)} violation(s)",
              file=sys.stderr)
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    print(f"validate_bench_json: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
