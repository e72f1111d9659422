#!/usr/bin/env python3
"""Validate the BENCH_*.json reports emitted by the bench harnesses.

Usage: check_bench_json.py <dir> <experiment> [<experiment> ...]

For every named experiment, <dir>/BENCH_<experiment>.json must exist and
contain the contract documented in EXPERIMENTS.md ("Machine-readable
output"):

  * top-level keys: experiment, rows, metrics, spans, timeseries,
    lock_contention
  * experiment matches the file name
  * rows is a non-empty array, every row has a "label" plus at least one
    numeric value column
  * per-experiment required row columns (e.g. e2/e9 must report
    ops_per_sec_during_build) so a harness that silently stops
    reporting a headline metric fails CI rather than drifting
  * timeseries carries interval_ms and at least one sample with t_ms,
    update_ops_per_sec, wal_lag_bytes, side_file_backlog, bp_hit_rate
  * lock_contention carries "enabled" and a "ranks" object; when a rank
    is present it must report waits plus wait/hold histograms with
    count, total_ns, p50_ns, p99_ns, max_ns

Exits non-zero with one line per violation.
"""

import json
import os
import sys

# Headline columns each experiment's rows must carry.  Deliberately a
# subset of what the harnesses emit: these are the columns EXPERIMENTS.md
# tables are built from.
REQUIRED_ROW_KEYS = {
    "e1": ["total_ms", "threads", "rows", "key_bytes_moved",
           "key_bytes_stored", "key_compression_ratio",
           "leaf_entries_per_page"],
    "e2": ["build_ms", "blocked_ms", "ops_per_sec_during_build",
           "update_p99_us"],
    "e3": [],
    "e4": [],
    "e5": [],
    "e6": [],
    "e7": [],
    "e8": [],
    "e9": ["threads", "build_ms", "ops_per_sec_during_build",
           "update_p99_us", "commits", "failpoint_overhead_pct"],
    "e11": ["rows", "redo_threads", "restart_ms", "records_redone",
            "open_ms", "analysis_ms", "redo_ms", "catalog_load_ms",
            "reattach_ms", "undo_ms", "attributed_pct", "speedup_vs_serial"],
    "a1": [],
    "micro": ["ns_per_op", "lookups"],
}

# Labels that must be present in an experiment's rows, with the extra
# columns those specific rows must carry.  Catches a harness that drops a
# whole scenario (e.g. the read-heavy hash on/off comparison) while its
# remaining rows still satisfy REQUIRED_ROW_KEYS.
REQUIRED_SCENARIO_ROWS = {
    "e2": {
        "read_heavy_hash_off": ["read_pct", "read_p50_steady_us",
                                "read_p99_steady_us", "read_p50_build_us",
                                "read_p99_build_us"],
        "read_heavy_hash_on": ["read_pct", "read_p50_steady_us",
                               "read_p99_steady_us", "read_p50_build_us",
                               "read_p99_build_us", "hash_hits",
                               "hash_misses", "hash_fallbacks"],
    },
    "micro": {
        "hash_probe_hit": [],
        "hash_probe_miss": [],
        "tree_descend_hit": [],
        "tree_descend_miss": [],
        "read_by_key_hash_on": [],
        "read_by_key_hash_off": [],
    },
}


def check(path, experiment):
    errors = []
    if not os.path.isfile(path):
        return ["%s: missing (harness did not run or did not write it)"
                % path]
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return ["%s: unparseable JSON: %s" % (path, e)]

    for key in ("experiment", "rows", "metrics", "spans", "timeseries",
                "lock_contention"):
        if key not in doc:
            errors.append("%s: missing top-level key %r" % (path, key))
    if errors:
        return errors

    if doc["experiment"] != experiment:
        errors.append("%s: experiment is %r, expected %r"
                      % (path, doc["experiment"], experiment))
    rows = doc["rows"]
    if not isinstance(rows, list) or not rows:
        errors.append("%s: rows must be a non-empty array" % path)
        return errors
    required = REQUIRED_ROW_KEYS.get(experiment, [])
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or "label" not in row:
            errors.append("%s: rows[%d] has no label" % (path, i))
            continue
        values = {k: v for k, v in row.items() if k != "label"}
        if not any(isinstance(v, (int, float)) for v in values.values()):
            errors.append("%s: rows[%d] (%s) has no numeric columns"
                          % (path, i, row["label"]))
        for key in required:
            if key not in row:
                errors.append("%s: rows[%d] (%s) missing required column %r"
                              % (path, i, row["label"], key))
            elif not isinstance(row[key], (int, float)):
                errors.append("%s: rows[%d] (%s) column %r is not numeric"
                              % (path, i, row["label"], key))
    by_label = {row.get("label"): row for row in rows
                if isinstance(row, dict)}
    for label, extra in REQUIRED_SCENARIO_ROWS.get(experiment, {}).items():
        row = by_label.get(label)
        if row is None:
            errors.append("%s: missing required scenario row %r"
                          % (path, label))
            continue
        for key in extra:
            if not isinstance(row.get(key), (int, float)):
                errors.append(
                    "%s: scenario row %r missing/non-numeric column %r"
                    % (path, label, key))
    if experiment == "e1":
        errors.extend(check_key_stats(path, rows))
    if not isinstance(doc["metrics"], dict):
        errors.append("%s: metrics is not an object" % path)
    errors.extend(check_timeseries(path, doc["timeseries"]))
    errors.extend(check_lock_contention(path, doc["lock_contention"]))
    return errors


def check_key_stats(path, rows):
    """Sanity-checks the normalized-key statistics e1 reports.

    The sort path stores prefix-compressed key bytes, so stored <= moved
    and the ratio must land in (0, 1]; a ratio of 0 or a stored count
    above moved means the RunStore counters (or their plumbing through
    BuildStats) broke.
    """
    errors = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            continue
        moved = row.get("key_bytes_moved")
        stored = row.get("key_bytes_stored")
        ratio = row.get("key_compression_ratio")
        if not all(isinstance(v, (int, float))
                   for v in (moved, stored, ratio)):
            continue  # missing-column errors already reported
        if moved <= 0:
            errors.append("%s: rows[%d] (%s) key_bytes_moved must be > 0"
                          % (path, i, row.get("label")))
        if stored > moved:
            errors.append(
                "%s: rows[%d] (%s) key_bytes_stored %s > key_bytes_moved %s"
                % (path, i, row.get("label"), stored, moved))
        if not 0.0 < ratio <= 1.0:
            errors.append(
                "%s: rows[%d] (%s) key_compression_ratio %s outside (0, 1]"
                % (path, i, row.get("label"), ratio))
    return errors


SAMPLE_KEYS = ("t_ms", "update_ops_per_sec", "wal_lag_bytes",
               "side_file_backlog", "bp_hit_rate")
HIST_KEYS = ("count", "total_ns", "p50_ns", "p99_ns", "max_ns")


def check_timeseries(path, ts):
    if not isinstance(ts, dict):
        return ["%s: timeseries is not an object" % path]
    errors = []
    if not isinstance(ts.get("interval_ms"), (int, float)):
        errors.append("%s: timeseries.interval_ms missing/non-numeric" % path)
    samples = ts.get("samples")
    if not isinstance(samples, list) or not samples:
        # Every harness starts the sampler and forces a final tick, so an
        # empty series means the wiring broke.
        errors.append("%s: timeseries.samples must be non-empty" % path)
        return errors
    for i, s in enumerate(samples):
        if not isinstance(s, dict):
            errors.append("%s: timeseries.samples[%d] not an object"
                          % (path, i))
            continue
        for key in SAMPLE_KEYS:
            if key not in s:
                errors.append("%s: timeseries.samples[%d] missing %r"
                              % (path, i, key))
        if not isinstance(s.get("bp_hit_rate"), list):
            errors.append("%s: timeseries.samples[%d].bp_hit_rate not a list"
                          % (path, i))
    return errors


def check_lock_contention(path, lc):
    if not isinstance(lc, dict):
        return ["%s: lock_contention is not an object" % path]
    errors = []
    if not isinstance(lc.get("enabled"), bool):
        errors.append("%s: lock_contention.enabled missing/non-bool" % path)
    ranks = lc.get("ranks")
    if not isinstance(ranks, dict):
        return errors + ["%s: lock_contention.ranks is not an object" % path]
    for name, r in ranks.items():
        if not isinstance(r, dict):
            errors.append("%s: lock_contention.ranks[%s] not an object"
                          % (path, name))
            continue
        if not isinstance(r.get("waits"), int):
            errors.append("%s: lock_contention.ranks[%s].waits missing"
                          % (path, name))
        for side in ("wait", "hold"):
            h = r.get(side)
            if not isinstance(h, dict):
                errors.append("%s: lock_contention.ranks[%s].%s missing"
                              % (path, name, side))
                continue
            for key in HIST_KEYS:
                if not isinstance(h.get(key), (int, float)):
                    errors.append(
                        "%s: lock_contention.ranks[%s].%s.%s missing"
                        % (path, name, side, key))
    return errors


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bench_dir = argv[1]
    failures = []
    for experiment in argv[2:]:
        path = os.path.join(bench_dir, "BENCH_%s.json" % experiment)
        errs = check(path, experiment)
        if errs:
            failures.extend(errs)
        else:
            print("OK %s" % path)
    for e in failures:
        print("FAIL %s" % e, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
