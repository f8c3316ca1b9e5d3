#!/usr/bin/env bash
# Tier-1 gate: release build, lint-clean workspace, full test suite.
# Offline by design — the container vendors every dependency under
# vendor/ and must never reach for the network.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release --offline --workspace

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (deny broken intra-doc links) =="
# A link to a deleted or renamed item would otherwise rot silently.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps --offline

echo "== tests =="
cargo test -q --offline

echo "== benchmark tests (xbench: tiny-config digests, rebuild = driver) =="
# xbench is its own workspace, so the root build never compiles it; this
# step catches a public-API change that would break the benchmark.
cargo test -q --offline --manifest-path xbench/Cargo.toml

echo "== bench smoke (writes BENCH_pipeline.json) =="
# Stash the committed baseline before the bench overwrites it, so the
# fresh numbers can be compared against what the repo last recorded.
baseline=""
if [ -f BENCH_pipeline.json ]; then
    baseline="$(mktemp)"
    cp BENCH_pipeline.json "$baseline"
fi
./target/release/bench_pipeline

echo "== bench output sanity (BENCH_pipeline.json must exist and parse) =="
python3 - BENCH_pipeline.json <<'EOF'
import json, sys
try:
    doc = json.load(open(sys.argv[1]))
except (OSError, ValueError) as e:
    print(f"FATAL: BENCH_pipeline.json missing or unparseable: {e}")
    sys.exit(1)
if not any(r.get("threads") == 1 for r in doc.get("runs", [])):
    print("FATAL: BENCH_pipeline.json has no threads=1 run")
    sys.exit(1)
if "streaming_ckpt_ms" not in doc.get("streaming", {}):
    print("FATAL: BENCH_pipeline.json has no streaming-mode row")
    sys.exit(1)
print("bench output sanity: ok")
EOF

echo "== netflow bench smoke (1e6 records; writes BENCH_netflow.json) =="
# The committed BENCH_netflow.json documents a full 1e8-record run; stash
# it so the smoke run's numbers can gate against it without clobbering it.
nf_baseline=""
if [ -f BENCH_netflow.json ]; then
    nf_baseline="$(mktemp)"
    cp BENCH_netflow.json "$nf_baseline"
fi
XBORDER_NETFLOW_MAX_RECORDS=1000000 ./target/release/bench_netflow

echo "== netflow bench sanity (BENCH_netflow.json must exist and parse) =="
python3 - BENCH_netflow.json <<'EOF'
import json, sys
try:
    doc = json.load(open(sys.argv[1]))
except (OSError, ValueError) as e:
    print(f"FATAL: BENCH_netflow.json missing or unparseable: {e}")
    sys.exit(1)
if doc.get("netflow_records_per_sec", 0) <= 0:
    print("FATAL: BENCH_netflow.json has no positive netflow_records_per_sec")
    sys.exit(1)
if doc.get("oracle", {}).get("speedup_vs_oracle", 0) < 5.0:
    print("FATAL: interval-set join under the 5x oracle floor")
    sys.exit(1)
print("netflow bench sanity: ok")
EOF

if [ -n "$nf_baseline" ]; then
    echo "== netflow regression check (records/sec vs committed baseline) =="
    python3 - "$nf_baseline" BENCH_netflow.json <<'EOF'
import json, sys

def load(path):
    try:
        return json.load(open(path))
    except (OSError, ValueError) as e:
        print(f"FATAL: {path} missing or unparseable: {e}")
        sys.exit(1)

old_doc, new_doc = load(sys.argv[1]), load(sys.argv[2])
# The headline is the 1e6-record threads=1 row in both docs, so the smoke
# run compares like-for-like against the committed full-scale document.
o = old_doc.get("netflow_records_per_sec")
n = new_doc.get("netflow_records_per_sec")
if not o or not n:
    print("netflow check: no comparable netflow_records_per_sec; skipping")
elif n < o * 0.80:
    print(f"WARNING: netflow_records_per_sec regressed >20%: "
          f"{o:,.0f} -> {n:,.0f} ({n / o - 1:+.0%})")
else:
    print(f"netflow check: netflow_records_per_sec {o:,.0f} -> {n:,.0f} "
          f"({n / o - 1:+.0%}), within the 20% budget")
EOF
    # Restore the committed full-scale document; the smoke doc is CI-only.
    cp "$nf_baseline" BENCH_netflow.json
    rm -f "$nf_baseline"
fi

echo "== worldscale bench smoke (1e5 users; writes BENCH_worldscale.json) =="
# The committed BENCH_worldscale.json documents the recorded sweep (up to
# 1e6 users when the box can hold it); stash it so the smoke run's numbers
# can gate against it without clobbering it.
# The binary itself asserts the process high-water ceiling (VmHWM) at each
# scale and fingerprint equality across segment sizes, so a smoke pass is
# also a memory-ceiling + determinism pass.
ws_baseline=""
if [ -f BENCH_worldscale.json ]; then
    ws_baseline="$(mktemp)"
    cp BENCH_worldscale.json "$ws_baseline"
fi
XBORDER_WORLDSCALE_MAX_USERS=100000 ./target/release/bench_worldscale

echo "== worldscale bench sanity (BENCH_worldscale.json must exist and parse) =="
python3 - BENCH_worldscale.json <<'EOF'
import json, sys
try:
    doc = json.load(open(sys.argv[1]))
except (OSError, ValueError) as e:
    print(f"FATAL: BENCH_worldscale.json missing or unparseable: {e}")
    sys.exit(1)
if doc.get("worldscale_users_per_sec", 0) <= 0:
    print("FATAL: BENCH_worldscale.json has no positive worldscale_users_per_sec")
    sys.exit(1)
runs = doc.get("runs", [])
if not runs:
    print("FATAL: BENCH_worldscale.json has no runs")
    sys.exit(1)
# Process high-water ceilings per scale; they may only ever tighten.
MIB = 1024 * 1024
CEILING = {10_000: 768 * MIB, 100_000: 2560 * MIB, 1_000_000: 13 * 1024 * MIB}
for r in runs:
    key = (r.get("users"), r.get("segment_users"))
    hwm, ceiling = r.get("vm_hwm_bytes"), CEILING.get(r.get("users"))
    if not hwm:
        print(f"FATAL: run {key} has no vm_hwm_bytes")
        sys.exit(1)
    if ceiling is None or hwm > ceiling:
        print(f"FATAL: run {key} VmHWM {hwm / MIB:,.0f} MiB is over its ceiling "
              f"({ceiling and ceiling // MIB} MiB)")
        sys.exit(1)
print("worldscale bench sanity: ok")
EOF

if [ -n "$ws_baseline" ]; then
    echo "== worldscale regression check (deterministic fields + users/sec vs committed baseline) =="
    python3 - "$ws_baseline" BENCH_worldscale.json <<'EOF'
import json, sys

def load(path):
    try:
        return json.load(open(path))
    except (OSError, ValueError) as e:
        print(f"FATAL: {path} missing or unparseable: {e}")
        sys.exit(1)

old_doc, new_doc = load(sys.argv[1]), load(sys.argv[2])
def rows(doc):
    return {(r["users"], r["segment_users"]): r for r in doc.get("runs", [])}
old_rows, new_rows = rows(old_doc), rows(new_doc)
# Requests, segments and the output fingerprint are deterministic: at 1e4
# and 1e5 users the smoke run must reproduce the committed doc exactly.
for key in sorted(k for k in old_rows if k[0] in (10_000, 100_000)):
    if key not in new_rows:
        print(f"FATAL: smoke run has no {key} row to check against the committed doc")
        sys.exit(1)
    for field in ("requests", "segments", "fingerprint"):
        o, n = old_rows[key].get(field), new_rows[key].get(field)
        if o is None or o != n:
            print(f"FATAL: {field} at {key} differs from the committed doc: {o} -> {n}")
            sys.exit(1)
print("worldscale check: requests, segments and fingerprints match the committed doc")
# The committed doc may go up to 1e6 users, the smoke run stops at 1e5:
# compare like-for-like on the largest (users, segment) row both share.
common = sorted(set(old_rows) & set(new_rows))
if not common:
    print("worldscale check: no comparable runs; skipping")
else:
    key = common[-1]
    o, n = old_rows[key].get("users_per_sec"), new_rows[key].get("users_per_sec")
    if not o or not n:
        print("worldscale check: no comparable users_per_sec; skipping")
    elif n < o * 0.80:
        print(f"WARNING: users_per_sec at {key} regressed >20%: "
              f"{o:,.0f} -> {n:,.0f} ({n / o - 1:+.0%})")
    else:
        print(f"worldscale check: users_per_sec at {key} {o:,.0f} -> {n:,.0f} "
              f"({n / o - 1:+.0%}), within the 20% budget")
EOF
    # Restore the committed full-scale document; the smoke doc is CI-only.
    cp "$ws_baseline" BENCH_worldscale.json
    rm -f "$ws_baseline"
fi

if [ -n "$baseline" ]; then
    echo "== bench regression check (study/geolocate/total/allocs/streaming vs committed baseline) =="
    # An unparseable baseline or fresh bench doc fails the gate; a >20%
    # wall-clock regression warns (CI boxes are noisy), a >20% allocation
    # jump is deterministic and still warns loudly for triage.
    python3 - "$baseline" BENCH_pipeline.json <<'EOF'
import json, sys

def load(path):
    try:
        return json.load(open(path))
    except (OSError, ValueError) as e:
        print(f"FATAL: {path} missing or unparseable: {e}")
        sys.exit(1)

def seq_run(doc):
    for run in doc.get("runs", []):
        if run.get("threads") == 1:
            return run
    return {}

old_doc, new_doc = load(sys.argv[1]), load(sys.argv[2])
old, new = seq_run(old_doc), seq_run(new_doc)
# study_allocs is deterministic (counting allocator over a fixed workload),
# so a >20% jump there means an allocation crept back into the hot path.
pairs = [(stage, old.get(stage), new.get(stage))
         for stage in ("study_ms", "geolocate_ms", "total_ms", "study_allocs",
                       "netflow_generate_ms", "netflow_match_ms")]
# The streaming row rides the same gate: the chunked driver, the
# checkpointed variant, the incremental classifier and the rolling
# snapshot emission must all stay within the budget.
old_s, new_s = old_doc.get("streaming", {}), new_doc.get("streaming", {})
pairs += [(f"streaming.{key}", old_s.get(key), new_s.get(key))
          for key in ("streaming_ms", "streaming_ckpt_ms",
                      "incremental_classify_ms", "snapshot_ms",
                      "classify_overhead_vs_batch_pct",
                      "checkpoint_overhead_ms")]
# The compiled rule engine's build and match costs are microbenched on a
# synthetic URL-dependent rule set, so they gate like any other stage.
old_e, new_e = old_doc.get("rule_engine", {}), new_doc.get("rule_engine", {})
pairs += [(f"rule_engine.{key}", old_e.get(key), new_e.get(key))
          for key in ("build_ms", "engine_match_ms")]
for stage, o, n in pairs:
    if o is None or n is None or o <= 0:
        print(f"bench check: no comparable {stage} in baseline; skipping")
    elif n > o * 1.20:
        print(f"WARNING: {stage} regressed >20%: {o:,.1f} -> {n:,.1f} "
              f"({n / o - 1:+.0%})")
    else:
        print(f"bench check: {stage} {o:,.1f} -> {n:,.1f} "
              f"({n / o - 1:+.0%}), within the 20% budget")
EOF
    rm -f "$baseline"
fi

echo "== resume smoke (kill at chunk 2 mid-write, resume, fingerprint vs batch) =="
./target/release/resume_smoke

echo "ci.sh: all green"
