#!/usr/bin/env python3
"""Noise-aware comparator between two bench snapshots.

Compares a fresh ``tools/bench_snapshot.sh`` run against a committed
baseline (e.g. ``BENCH_pr6.json``) using the registry in
``tools/bench_schema.json``: each RESULT name declares its key fields
(config axes), its compared metrics with a better-direction and a
relative threshold, and optionally absolute ``min``/``max`` bounds
checked on the current snapshot alone.

A metric regresses when the change exceeds the declared relative
threshold *and* clears a 3-sigma noise band built from both snapshots'
repeat stddevs::

    lower-is-better:  cur > base * (1 + threshold*scale) + 3*sqrt(b_sd^2 + c_sd^2)
    higher-is-better: cur < base * (1 - threshold*scale) - 3*sqrt(b_sd^2 + c_sd^2)

Both snapshot formats are accepted:

* flat (pre-PR7): ``{"name": [record, ...]}`` with scalar metrics;
  duplicate rows for one key tuple are aggregated into mean/stddev,
* aggregated: ``{"meta": {...}, "results": {...}}`` where metric fields
  are ``{"mean": m, "stddev": s, "runs": n}``.

Exit status: 0 when the gated set is clean, 1 on gated regressions or
bound violations, 2 on usage/format errors.

A ``WARNING`` line (and an ``nproc_warning`` field in ``--json-out``)
flags a comparison across core counts: the two snapshots' ``meta.nproc``
differ, or the baseline records none. Service throughput and the
multi-thread rows scale with the core count, so such a diff compares
hosts as much as code. The warning does not change the exit status.

Usage:
    bench_diff.py --baseline BENCH_pr6.json --current BENCH_snapshot.json
                  [--schema tools/bench_schema.json]
                  [--gate all|tier1|none] [--gate-scale X] [--json-out F]
    bench_diff.py --selftest --baseline BENCH_pr6.json
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys

DEFAULT_SCHEMA = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "bench_schema.json")


class FormatError(Exception):
    pass


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: {e}") from e


def result_tables(snapshot):
    """Returns the {name: [record, ...]} table of either snapshot format."""
    if not isinstance(snapshot, dict):
        raise FormatError("snapshot root must be a JSON object")
    if "results" in snapshot and isinstance(snapshot["results"], dict):
        return snapshot["results"]
    return {k: v for k, v in snapshot.items() if not k.startswith("_")}


def nproc_warning(base_snapshot, cur_snapshot):
    """Returns the core-count warning for a diff, or None if they match."""
    def nproc(snapshot):
        meta = snapshot.get("meta")
        return meta.get("nproc") if isinstance(meta, dict) else None

    base, cur = nproc(base_snapshot), nproc(cur_snapshot)
    if base is None:
        return (f"baseline records no nproc (current: {cur}); "
                f"cross-host numbers may differ by core count")
    if base != cur:
        return f"nproc differs: baseline {base}, current {cur}"
    return None


def as_stat(value):
    """Normalises a metric field to (mean, stddev, runs)."""
    if isinstance(value, dict):
        return (float(value.get("mean", 0.0)),
                float(value.get("stddev", 0.0)),
                int(value.get("runs", 1)))
    return (float(value), 0.0, 1)


def pooled(stats):
    """Pools repeat stats: overall mean and combined spread.

    The combined stddev folds within-run stddev and between-run spread
    together (sqrt of pooled second moment about the overall mean) so a
    baseline whose duplicate rows disagree reads as noisy, not precise.
    """
    total_runs = sum(s[2] for s in stats)
    if total_runs == 0:
        return (0.0, 0.0, 0)
    mean = sum(s[0] * s[2] for s in stats) / total_runs
    second = sum((s[1] ** 2 + (s[0] - mean) ** 2) * s[2] for s in stats)
    return (mean, math.sqrt(second / total_runs), total_runs)


def key_of(record, key_fields):
    return tuple((k, record.get(k)) for k in key_fields)


def key_str(name, key):
    parts = ", ".join(f"{k}={v}" for k, v in key)
    return f"{name}[{parts}]"


def aggregate(table, schema):
    """Folds a result table into {name: {key: {metric: (mean, sd, runs)}}}.

    Duplicate records for one key tuple (the pre-PR7 duplicate-row bug,
    or genuine repeats) are pooled. Unregistered names are skipped —
    the lint rule bench-result-schema keeps the registry complete.
    """
    out = {}
    skipped = []
    for name, records in table.items():
        spec = schema["results"].get(name)
        if spec is None:
            skipped.append(name)
            continue
        by_key = out.setdefault(name, {})
        for rec in records:
            if not isinstance(rec, dict):
                raise FormatError(f"{name}: record is not an object")
            key = key_of(rec, spec["keys"])
            slot = by_key.setdefault(key, {})
            for metric in spec["metrics"]:
                if metric in rec:
                    slot.setdefault(metric, []).append(as_stat(rec[metric]))
            for extra in spec.get("info", []):
                if extra in rec and not isinstance(rec[extra], dict):
                    slot.setdefault("_info", {})[extra] = rec[extra]
    for by_key in out.values():
        for slot in by_key.values():
            for metric, stats in list(slot.items()):
                if metric != "_info":
                    slot[metric] = pooled(stats)
    return out, skipped


def diff(base_agg, cur_agg, schema, gate, gate_scale):
    """Returns (findings, gated_failures). Each finding is a dict."""
    findings = []
    failures = 0
    names = sorted(set(base_agg) | set(cur_agg))
    for name in names:
        spec = schema["results"][name]
        gated = gate == "all" or (gate == "tier1" and spec.get("tier1"))
        base_keys = base_agg.get(name, {})
        cur_keys = cur_agg.get(name, {})
        for key in sorted(set(base_keys) | set(cur_keys), key=repr):
            in_base, in_cur = key in base_keys, key in cur_keys
            if not in_cur or not in_base:
                findings.append({
                    "kind": "missing" if not in_cur else "new",
                    "name": name, "key": key_str(name, key),
                })
                continue
            for metric, mspec in spec["metrics"].items():
                cur = cur_keys[key].get(metric)
                base = base_keys[key].get(metric)
                if cur is None:
                    continue
                cmean, csd, _ = cur
                # Absolute bounds hold with no baseline at all.
                for bound, op in (("max", lambda c, b: c > b),
                                  ("min", lambda c, b: c < b)):
                    if bound in mspec and op(cmean, mspec[bound]):
                        findings.append({
                            "kind": "bound", "name": name,
                            "key": key_str(name, key), "metric": metric,
                            "bound": bound, "limit": mspec[bound],
                            "cur": cmean, "gated": gated,
                        })
                        failures += gated
                if base is None:
                    continue
                bmean, bsd, _ = base
                noise = 3.0 * math.sqrt(bsd * bsd + csd * csd)
                thr = mspec["threshold"] * gate_scale
                lower_better = mspec["direction"] == "lower"
                if lower_better:
                    regressed = cmean > bmean * (1.0 + thr) + noise
                    improved = cmean < bmean * (1.0 - thr) - noise
                else:
                    regressed = cmean < bmean * (1.0 - thr) - noise
                    improved = cmean > bmean * (1.0 + thr) + noise
                if not (regressed or improved):
                    continue
                rel = (cmean - bmean) / bmean if bmean else math.inf
                findings.append({
                    "kind": "regression" if regressed else "improvement",
                    "name": name, "key": key_str(name, key),
                    "metric": metric, "base": bmean, "cur": cmean,
                    "rel": rel, "noise": noise, "gated": gated,
                })
                failures += regressed and gated
    return findings, failures


def render(findings, failures, gate, gate_scale):
    order = {"bound": 0, "regression": 1, "improvement": 2,
             "missing": 3, "new": 4}
    lines = []
    for f in sorted(findings, key=lambda f: (order[f["kind"]], f["key"])):
        kind = f["kind"]
        gated_tag = " [gated]" if f.get("gated") else ""
        if kind == "bound":
            lines.append(
                f"BOUND{gated_tag} {f['key']} {f['metric']} = {f['cur']:.6g} "
                f"violates {f['bound']} {f['limit']:.6g}")
        elif kind in ("regression", "improvement"):
            arrow = "WORSE" if kind == "regression" else "better"
            lines.append(
                f"{kind.upper()}{gated_tag} {f['key']} {f['metric']}: "
                f"{f['base']:.6g} -> {f['cur']:.6g} "
                f"({f['rel']:+.1%}, {arrow}; 3-sigma noise {f['noise']:.3g})")
        elif kind == "missing":
            lines.append(f"MISSING from current: {f['key']}")
        else:
            lines.append(f"NEW in current: {f['key']}")
    if not lines:
        lines.append("no differences beyond noise thresholds")
    lines.append(
        f"bench_diff: {failures} gated failure(s) "
        f"(gate={gate}, scale={gate_scale:g})")
    return "\n".join(lines)


def compare(base_snapshot, cur_snapshot, schema, gate, gate_scale):
    """Returns (findings, gated_failures, nproc warning or None)."""
    base_agg, base_skip = aggregate(result_tables(base_snapshot), schema)
    cur_agg, cur_skip = aggregate(result_tables(cur_snapshot), schema)
    for name in sorted(set(base_skip) | set(cur_skip)):
        print(f"bench_diff: warning: unregistered result name {name!r} "
              f"skipped (add it to tools/bench_schema.json)", file=sys.stderr)
    findings, failures = diff(base_agg, cur_agg, schema, gate, gate_scale)
    return findings, failures, nproc_warning(base_snapshot, cur_snapshot)


def run_diff(baseline_path, current_path, schema, gate, gate_scale,
             json_out=None):
    findings, failures, warning = compare(
        load_json(baseline_path), load_json(current_path), schema, gate,
        gate_scale)
    if warning:
        print(f"WARNING {warning}")
    print(render(findings, failures, gate, gate_scale))
    if json_out:
        payload = {"gate": gate, "gate_scale": gate_scale,
                   "gated_failures": failures, "findings": findings}
        if warning:
            payload["nproc_warning"] = warning
        with open(json_out, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=1)
            f.write("\n")
    return 1 if failures else 0


def selftest(baseline_path, schema):
    """Proves the comparator's four contractual behaviours:

    1. a snapshot diffed against itself is clean (no false positives),
    2. with the noise band removed, a 10% slowdown injected into every
       hmooc_solve solve_ms row is detected as a gated tier-1 regression
       (the threshold math works),
    3. the same 10% slowdown under a synthetic 10% stddev is NOT flagged
       (the noise band works),
    4. a baseline without meta.nproc draws the core-count warning but no
       gated failure (the warning never changes the verdict).

    Contracts 2/3 run on stddev-overridden copies on purpose: they test
    the comparator's math, not the capture machine. A snapshot taken on
    a loud box records honest stddevs large enough to (correctly) mask a
    10% change — that must not fail the selftest.
    """
    base_snapshot = load_json(baseline_path)
    base_agg, _ = aggregate(result_tables(base_snapshot), schema)

    _, clean_failures = diff(base_agg, copy.deepcopy(base_agg), schema,
                             gate="tier1", gate_scale=1.0)
    if clean_failures:
        print(f"selftest FAIL: identical snapshots produced "
              f"{clean_failures} gated failure(s)")
        return 1

    def with_solve_ms(agg, scale, sd_frac):
        out = copy.deepcopy(agg)
        rows = out.get("hmooc_solve", {})
        for slot in rows.values():
            if "solve_ms" in slot:
                mean, _sd, runs = slot["solve_ms"]
                slot["solve_ms"] = (mean * scale, mean * sd_frac, runs)
        return out

    if not base_agg.get("hmooc_solve"):
        print("selftest FAIL: baseline has no hmooc_solve rows to inflate")
        return 1

    quiet_base = with_solve_ms(base_agg, 1.0, 0.0)
    quiet_slowed = with_solve_ms(base_agg, 1.10, 0.0)
    findings, slow_failures = diff(quiet_base, quiet_slowed, schema,
                                   gate="tier1", gate_scale=1.0)
    detected = [f for f in findings if f["kind"] == "regression"
                and f["name"] == "hmooc_solve" and f["metric"] == "solve_ms"]
    if not detected or not slow_failures:
        print("selftest FAIL: 10% hmooc_solve slowdown was not detected")
        return 1

    noisy_base = with_solve_ms(base_agg, 1.0, 0.10)
    noisy_slowed = with_solve_ms(base_agg, 1.10, 0.10)
    findings, noisy_failures = diff(noisy_base, noisy_slowed, schema,
                                    gate="tier1", gate_scale=1.0)
    in_band = [f for f in findings if f["kind"] == "regression"
               and f["name"] == "hmooc_solve" and f["metric"] == "solve_ms"]
    if in_band or noisy_failures:
        print("selftest FAIL: 10% slowdown inside a 10%-stddev noise band "
              "was flagged as a regression")
        return 1

    no_nproc = {"meta": {}, "results": result_tables(base_snapshot)}
    with_nproc = {"meta": {"nproc": 4}, "results": no_nproc["results"]}
    _, nproc_failures, warning = compare(no_nproc, with_nproc, schema,
                                         gate="tier1", gate_scale=1.0)
    if not warning or nproc_failures:
        print("selftest FAIL: a baseline without nproc must warn and add "
              "no gated failure")
        return 1

    print(f"selftest PASS: clean on identical snapshots; 10% hmooc_solve "
          f"slowdown detected on {len(detected)} row(s); same slowdown "
          f"correctly masked by a 10% noise band; missing baseline nproc "
          f"warns without failing")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--baseline", required=True,
                   help="committed snapshot (e.g. BENCH_pr6.json)")
    p.add_argument("--current", help="fresh snapshot to compare")
    p.add_argument("--schema", default=DEFAULT_SCHEMA)
    p.add_argument("--gate", choices=["all", "tier1", "none"], default="all",
                   help="which regressions fail the run (default: all)")
    p.add_argument("--gate-scale", type=float, default=1.0,
                   help="threshold multiplier for noisy cross-machine CI")
    p.add_argument("--json-out", help="write findings as JSON here")
    p.add_argument("--selftest", action="store_true",
                   help="verify clean-on-identical and detect-on-10%%-slower")
    args = p.parse_args(argv)

    try:
        schema = load_json(args.schema)
        if "results" not in schema:
            raise FormatError(f"{args.schema}: missing 'results'")
        if args.selftest:
            return selftest(args.baseline, schema)
        if not args.current:
            p.error("--current is required unless --selftest")
        return run_diff(args.baseline, args.current, schema, args.gate,
                        args.gate_scale, args.json_out)
    except FormatError as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
