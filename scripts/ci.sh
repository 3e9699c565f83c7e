#!/usr/bin/env bash
# The tier-1 gate: everything a PR must pass before merging.
#
#   scripts/ci.sh          # build + tests + clippy + bench regression gate
#
# Runs offline (the workspace vendors its dependency shims in shims/), so
# it works in sandboxes without crates.io access.
#
# The bench gate re-measures the component kernels (smoke sample counts)
# and compares them against the committed BENCH_components.json baseline,
# failing on any kernel slower than PDN_BENCH_GATE_FACTOR x (default 2.0,
# noise-tolerant — see scripts/bench_gate.py). Skip it with
# PDN_BENCH_GATE=0 (e.g. on very loaded machines).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --offline
cargo build --release --offline -p pdn-eval --bin experiments

echo
echo "== cargo test =="
cargo test -q --offline --workspace

echo
echo "== cargo clippy (-D warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo
echo "== ground-truth cache round trip =="
# Run the same tiny eval twice against a scratch cache: the first run must
# simulate and store, the second must be served from the cache (hits > 0)
# without running a single transient solve.
cache_dir="$(mktemp -d -t pdn-cache-smoke-XXXXXX)"
t1="$cache_dir/run1.jsonl"
t2="$cache_dir/run2.jsonl"
trap 'rm -rf "$cache_dir"' EXIT
PDN_CACHE_DIR="$cache_dir/cache" ./target/release/pdn eval \
    --design D1 --vectors 4 --steps 30 --epochs 2 --telemetry "$t1" >/dev/null
PDN_CACHE_DIR="$cache_dir/cache" ./target/release/pdn eval \
    --design D1 --vectors 4 --steps 30 --epochs 2 --telemetry "$t2" >/dev/null
# Per-vector entries: all 4 vectors store on run 1, all 4 hit on run 2.
grep -q '"name":"sim.wnv.cache.stores","value":4' "$t1" \
    || { echo "cache smoke: first run did not store one entry per vector"; exit 1; }
grep -q '"name":"sim.wnv.cache.hits","value":4' "$t2" \
    || { echo "cache smoke: second run did not hit the cache"; exit 1; }
if grep -q '"name":"sim.wnv.vectors"' "$t2"; then
    echo "cache smoke: second run simulated vectors despite a cache hit"
    exit 1
fi
# Every CG column is one solve, alone or in a lockstep batch: run 1 makes
# 4 vectors x (1 DC solve + 30 steps), and the iteration histogram sees
# each of them.
python3 - "$t1" <<'PYEOF'
import json, sys
last = {}
for line in open(sys.argv[1]):
    rec = json.loads(line)
    last[(rec["kind"], rec.get("name"))] = rec
solves = last.get(("counter", "sparse.cg.solves"), {}).get("value")
per_solve = last.get(("histogram", "sparse.cg.iterations_per_solve"), {}).get("count")
want = 4 * 31
assert solves == per_solve == want, (
    f"cache smoke: sparse.cg.solves {solves} and iterations_per_solve count "
    f"{per_solve}, want both {want}")
PYEOF
# One timer: a span is the only record of a region's duration, and the
# sink's only live record. Every span name has exactly one histogram of
# that name, counting its span records; no event record exists, and no
# hand-timed histogram repeats a span.
python3 - "$t1" <<'PYEOF'
import collections, json, sys
spans = collections.Counter()
hists = collections.defaultdict(list)
for line in open(sys.argv[1]):
    rec = json.loads(line)
    assert rec["kind"] != "event", f"one timer: the sink holds an event record: {line}"
    if rec["kind"] == "span":
        spans[rec["name"]] += 1
    elif rec["kind"] == "histogram":
        hists[rec["name"]].append(rec["count"])
assert spans, "one timer: the sink holds no span records"
for name, n in sorted(spans.items()):
    assert hists.get(name) == [n], (
        f"one timer: span {name} has {n} records, its histograms count {hists.get(name)}")
dup = sorted(set(hists) & {"sim.wnv.run_seconds", "train.epoch_seconds",
                           "eval.sim_seconds_per_vector", "eval.predict_seconds_per_vector"})
assert not dup, f"one timer: histograms {dup} repeat span durations"
print(f"one timer: {len(spans)} span names, each with one histogram counting its records")
PYEOF
echo "cache round trip: 4 stores on run 1, 4 hits (no simulation) on run 2"

echo
echo "== direct-solver cache smoke =="
# The supernodal direct solver must carry its own honest cache digest:
# first run with --solver direct misses (different solver settings than the
# CG entries above), second run hits without simulating.
d1="$cache_dir/direct1.jsonl"
d2="$cache_dir/direct2.jsonl"
PDN_CACHE_DIR="$cache_dir/cache" ./target/release/pdn eval \
    --design D1 --vectors 4 --steps 30 --epochs 2 --solver direct \
    --telemetry "$d1" >/dev/null
PDN_CACHE_DIR="$cache_dir/cache" ./target/release/pdn eval \
    --design D1 --vectors 4 --steps 30 --epochs 2 --solver direct \
    --telemetry "$d2" >/dev/null
grep -q '"name":"sim.wnv.cache.stores","value":4' "$d1" \
    || { echo "direct smoke: first run did not store under the direct digest"; exit 1; }
grep -q '"name":"sim.wnv.cache.hits","value":4' "$d2" \
    || { echo "direct smoke: second run did not hit the cache"; exit 1; }
if grep -q '"name":"sim.wnv.vectors"' "$d2"; then
    echo "direct smoke: second run simulated vectors despite a cache hit"
    exit 1
fi
echo "direct solver: distinct digest, store on run 1, hit on run 2"

echo
echo "== thread-count determinism =="
# Every output must be bitwise identical at any PDN_THREADS: train,
# simulate and predict on D1 tiny at widths 1 and 2 (all three run on one
# thread; this guards that they stay independent of the width). Both
# predict legs read the width-1 bundle, so they check inference on its
# own. The factor sweep, which does spawn threads, is compared below.
for t in 1 2; do
    out="$cache_dir/threads$t"
    PDN_THREADS=$t ./target/release/pdn train --design D1 --scale tiny --vectors 4 \
        --steps 30 --epochs 2 --cache-dir none --out "$out/model.pdn" >/dev/null
    PDN_THREADS=$t ./target/release/pdn simulate --design D1 --scale tiny --steps 40 \
        --seed 7 --out "$out/sim" >/dev/null
    PDN_THREADS=$t ./target/release/pdn predict --model "$cache_dir/threads1/model.pdn" \
        --design D1 --scale tiny --seed 7 --out "$out/predict" >/dev/null
done
cmp "$cache_dir/threads1/model.pdn" "$cache_dir/threads2/model.pdn" \
    || { echo "thread determinism: trained bundles differ between widths 1 and 2"; exit 1; }
diff -r "$cache_dir/threads1/sim" "$cache_dir/threads2/sim" \
    || { echo "thread determinism: simulate outputs differ between widths 1 and 2"; exit 1; }
diff -r "$cache_dir/threads1/predict" "$cache_dir/threads2/predict" \
    || { echo "thread determinism: predict outputs differ between widths 1 and 2"; exit 1; }
echo "thread determinism: train, simulate and predict identical at widths 1 and 2"
# Pinned bits: the trained CNN and its prediction must not move from one
# commit to the next. D3 tiny's 8 x 10 tiles exercise the pad and crop code.
pin() {  # pin FILE SHA256
    echo "$2  $1" | sha256sum --check --quiet - >/dev/null 2>&1 \
        || { echo "cnn pin: $1 moved from $2"; sha256sum "$1"; exit 1; }
}
pin "$cache_dir/threads1/model.pdn" \
    73156d41698a3175a282c4864703de38eaf82c7df65fe3701fbdacd621f653d0
pin "$cache_dir/threads1/predict/D1_seed7_predicted.csv" \
    c26f30b7b763eed05ea538cdbf52eeb00e15dbc38bc8d90f7fa145a83f680897
d3="$cache_dir/d3"
PDN_THREADS=1 ./target/release/pdn train --design D3 --scale tiny --vectors 4 \
    --steps 30 --epochs 2 --cache-dir none --out "$d3/model.pdn" >/dev/null
PDN_THREADS=1 ./target/release/pdn predict --model "$d3/model.pdn" \
    --design D3 --scale tiny --seed 7 --out "$d3/predict" >/dev/null
pin "$d3/model.pdn" c0003ccdd23c3e6796a833bd2e2afcf70c46f1adf17289f3293a0d2fbad27188
pin "$d3/predict/D3_seed7_predicted.csv" \
    345142ed3172198b24e83af098fbc3e36d79b7ce85948841731652e2f988871e
# The same D1 run, checkpointed after every epoch: checkpointing must not
# change training, and the checkpoint's bytes are pinned like the bundle's.
ck="$cache_dir/ckpt"
PDN_THREADS=1 ./target/release/pdn train --design D1 --scale tiny --vectors 4 \
    --steps 30 --epochs 2 --cache-dir none --checkpoint "$ck/train.ckpt" \
    --checkpoint-every 1 --out "$ck/model.pdn" >/dev/null
cmp "$cache_dir/threads1/model.pdn" "$ck/model.pdn" \
    || { echo "checkpoint pin: checkpointing changed the trained bundle"; exit 1; }
pin "$ck/train.ckpt" 912c83844bc93dc2efa007c738997fd3a3181daad6ae0f9ca21c577f81df34b6
echo "cnn pin: D1 and D3 tiny bundles, predicted maps and the D1 checkpoint unchanged"
# 40 RHS = three sweep blocks, so widths 2 and 3 split them across threads.
for t in 1 2 3; do
    PDN_THREADS=$t ./target/release/pdn factor --design D1 --scale tiny --rhs 40 \
        | grep '^digest' > "$cache_dir/factor_digest$t" \
        || { echo "thread determinism: pdn factor at width $t printed no digest"; exit 1; }
done
for t in 2 3; do
    cmp "$cache_dir/factor_digest1" "$cache_dir/factor_digest$t" \
        || { echo "thread determinism: factor sweep differs between widths 1 and $t"; exit 1; }
done
echo "thread determinism: factor sweep digest identical at widths 1, 2 and 3"
# Pinned bits: a faster substitution or fill count must not move a digit of
# the swept solutions.
grep -q '^digest  : c01c321e2824d50c ' "$cache_dir/factor_digest1" \
    || { echo "factor pin: digest moved from c01c321e2824d50c"; cat "$cache_dir/factor_digest1"; exit 1; }
echo "factor pin: D1 tiny --rhs 40 digest is c01c321e2824d50c"

echo
echo "== amd ordering smoke =="
# Forced AMD: the factor path must run end to end under the quotient-graph
# ordering and say so.
amd_out="$(./target/release/pdn factor --design D1 --rhs 4 --ordering amd)" \
    || { echo "amd smoke: forced-amd factor failed"; exit 1; }
grep -q 'ordering amd' <<<"$amd_out" \
    || { echo "amd smoke: forced run did not report ordering amd"; echo "$amd_out"; exit 1; }
# Auto selection: the RCM-vs-AMD comparison must run (printed and exported
# via the factor.ordering / factor.predicted_nnz_l.* gauges). On a PDN mesh
# AMD wins, so the gauge must carry its index (3).
amd_t="$cache_dir/amd_factor.jsonl"
auto_out="$(./target/release/pdn factor --design D1 --rhs 4 --telemetry "$amd_t")" \
    || { echo "amd smoke: auto factor failed"; exit 1; }
grep -q 'compare : predicted nnz(L) rcm .* vs amd .* -> amd' <<<"$auto_out" \
    || { echo "amd smoke: auto run did not print the ordering comparison"; echo "$auto_out"; exit 1; }
# Pinned counts: both predicted fills are exact, and the analysis AMD wins
# with is the one it always was.
grep -q 'rcm 13089 vs amd 4854' <<<"$auto_out" \
    || { echo "amd smoke: predicted fills moved from rcm 13089 / amd 4854"; echo "$auto_out"; exit 1; }
grep -q '124 supernodes, nnz(L) 8119' <<<"$auto_out" \
    || { echo "amd smoke: analysis moved from 124 supernodes / nnz(L) 8119"; echo "$auto_out"; exit 1; }
grep -q '"name":"factor.ordering","value":3' "$amd_t" \
    || { echo "amd smoke: factor.ordering gauge missing or not amd"; exit 1; }
grep -q '"name":"factor.predicted_nnz_l.rcm"' "$amd_t" \
    || { echo "amd smoke: rcm predicted-fill gauge missing"; exit 1; }
grep -q '"name":"factor.predicted_nnz_l.amd"' "$amd_t" \
    || { echo "amd smoke: amd predicted-fill gauge missing"; exit 1; }
echo "amd ordering: forced leg ok, auto-compare picked amd and exported both fills"

echo
echo "== closed stdout =="
# A reader that stops early must end pdn quietly: no panic on the failed
# write, and exit status 141 (128 + SIGPIPE). Under `| head -1` pdn may
# still finish first (its lines fit the pipe), so that leg accepts 0 too;
# the second leg closes the pipe before pdn starts. A failed command whose
# stderr is closed must still exit 1, not panic (101) on its error line.
pipe_status=0
first="$(./target/release/pdn factor --design D1 --scale tiny --rhs 40 \
    2>"$cache_dir/pipe.err" | head -1)" || pipe_status=$?
if grep -q panicked "$cache_dir/pipe.err"; then
    echo "closed stdout: pdn factor | head -1 panicked"; cat "$cache_dir/pipe.err"; exit 1
fi
[[ "$first" == design* && ( $pipe_status == 0 || $pipe_status == 141 ) ]] \
    || { echo "closed stdout: got '$first', exit $pipe_status"; cat "$cache_dir/pipe.err"; exit 1; }
python3 - <<'PYEOF'
import os, subprocess
for args in (["info"], ["factor", "--rhs", "40"], ["simulate", "--steps", "20"]):
    read_end, write_end = os.pipe()
    os.close(read_end)
    cmd = ["./target/release/pdn", *args, "--design", "D1", "--scale", "tiny"]
    p = subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE)
    os.close(write_end)
    assert p.returncode == 141 and not p.stderr, (
        f"closed stdout: pdn {args[0]} exited {p.returncode}, stderr {p.stderr.decode()!r}")
for cmd in (["./target/release/pdn", "simulate", "--design", "D1", "--steps", "0"],
            ["./target/release/pdn", "info", "--design", "D9"],
            ["./target/release/experiments", "--quik"]):
    read_end, write_end = os.pipe()
    os.close(read_end)
    p = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=write_end, timeout=60)
    os.close(write_end)
    assert p.returncode == 1, f"closed stderr: {' '.join(cmd[1:])} exited {p.returncode}, want 1"
print("closed stdout: info, factor and simulate exit 141 without a word on stderr;")
print("closed stderr: simulate --steps 0, info --design D9 and experiments --quik exit 1")
PYEOF

echo
echo "== unknown CLI flags =="
# A misspelt or retired flag must fail and name itself instead of running
# with the flag's default.
flag_out="$(./target/release/pdn predict --model "$cache_dir/threads1/model.pdn" \
    --design D1 --precision int8 2>&1)" \
    && { echo "flag check: predict accepted --precision"; exit 1; }
grep -q 'unknown flag --precision' <<<"$flag_out" \
    || { echo "flag check: predict error does not name --precision"; echo "$flag_out"; exit 1; }
flag_out="$(./target/release/pdn simulate --design D1 --sovler direct 2>&1)" \
    && { echo "flag check: simulate accepted --sovler"; exit 1; }
grep -q 'unknown flag --sovler' <<<"$flag_out" \
    || { echo "flag check: simulate error does not name --sovler"; echo "$flag_out"; exit 1; }
# A misspelt --quick must not start the CI-scale suite (which would rewrite
# EXPERIMENTS.md); the timeout stops a binary that ignores the flag.
flag_out="$(timeout 60 ./target/release/experiments --quik --out "$cache_dir/quik" 2>&1)" \
    && { echo "flag check: experiments accepted --quik"; exit 1; }
grep -q 'unknown flag --quik' <<<"$flag_out" \
    || { echo "flag check: experiments error does not name --quik"; echo "$flag_out"; exit 1; }
echo "unknown flags: predict --precision, simulate --sovler and experiments --quik rejected by name"

echo
echo "== bad CLI values =="
# A count that leaves nothing to simulate or test, or a gc bound that
# cannot be honoured, must fail by name: exit 1, the flag on the error
# line, no panic, and no entry evicted from the cache it was pointed at.
bad_value() {  # bad_value FLAG ARGS...
    local flag="$1" status=0
    shift
    ./target/release/pdn "$@" >/dev/null 2>"$cache_dir/bad.err" || status=$?
    if [[ $status != 1 ]] || grep -q panicked "$cache_dir/bad.err" \
        || ! grep -q -e "^error:.*$flag" "$cache_dir/bad.err"; then
        echo "bad value: pdn $* exited $status without naming $flag"
        cat "$cache_dir/bad.err"
        exit 1
    fi
}
bad_value --steps simulate --design D1 --steps 0
bad_value --vectors eval --design D1 --vectors 1 --steps 20 --epochs 1 --cache-dir none
entries=("$cache_dir"/cache/*.wnv)
for bound in "--max-age-days inf" "--max-mb nan"; do
    gc_dir="$cache_dir/gc${bound%% *}"
    mkdir -p "$gc_dir"
    cp "${entries[0]}" "$gc_dir/"
    # shellcheck disable=SC2086 # the bound is a flag and its value
    bad_value "${bound%% *}" cache gc --cache-dir "$gc_dir" $bound
    [[ -f "$gc_dir/$(basename "${entries[0]}")" ]] \
        || { echo "bad value: pdn cache gc $bound evicted the planted entry"; exit 1; }
done
echo "bad values: --steps 0, --vectors 1, gc --max-age-days inf and --max-mb nan refused by name"

echo
echo "== vector time step =="
# The engine steps at the design's time step, so a vector CSV sampled at
# another one (its dt_ps= header) must be refused, not run at 10 ps.
./target/release/pdn export-vector --design D1 --scale tiny --steps 8 \
    --out "$cache_dir/dt10.csv" >/dev/null
{ echo '# pdn-wnv test-vector, dt_ps=2.5'; grep -v '^#' "$cache_dir/dt10.csv"; } \
    > "$cache_dir/dt2p5.csv"
./target/release/pdn simulate --design D1 --scale tiny --vector "$cache_dir/dt10.csv" \
    >/dev/null || { echo "time step: simulate refused a 10 ps vector"; exit 1; }
dt_out="$(./target/release/pdn simulate --design D1 --scale tiny \
    --vector "$cache_dir/dt2p5.csv" 2>&1)" \
    && { echo "time step: simulate accepted a 2.5 ps vector on the 10 ps grid"; exit 1; }
grep -q 'time step is 2.5 ps but the grid steps at 10 ps (set by its `dt_ps=` header' \
    <<<"$dt_out" \
    || { echo "time step: simulate error does not name both steps and dt_ps="; echo "$dt_out"; exit 1; }
echo "time step: simulate refuses a dt_ps=2.5 vector on the 10 ps D1 grid"

echo
echo "== experiments quick =="
# The one regeneration path end to end at Tiny scale: the suite simulates
# each design once (4 designs x 10 vectors), fills every marker pair of its
# own EXPERIMENTS.md copy, and leaves the committed document alone.
cp EXPERIMENTS.md "$cache_dir/EXPERIMENTS.committed.md"
PDN_TELEMETRY="$cache_dir/exp.jsonl" ./target/release/experiments --quick \
    --out "$cache_dir/exp" >/dev/null \
    || { echo "experiments quick: the suite failed"; exit 1; }
cmp EXPERIMENTS.md "$cache_dir/EXPERIMENTS.committed.md" \
    || { echo "experiments quick: --quick rewrote the committed EXPERIMENTS.md"; exit 1; }
python3 - "$cache_dir/exp/EXPERIMENTS.md" "$cache_dir/exp.jsonl" <<'PYEOF'
import json, re, sys
doc = open(sys.argv[1]).read()
want = {"RUN", "TABLE1", "TABLE2", "TABLE3", "FIG4", "FIG5", "FIG6", "ABLATIONS"}
begins = re.findall(r"<!-- ([A-Z0-9]+)_MEASURED -->", doc)
ends = re.findall(r"<!-- /([A-Z0-9]+)_MEASURED -->", doc)
assert sorted(begins) == sorted(ends) == sorted(want), (
    f"experiments quick: marker pairs {sorted(begins)} / {sorted(ends)}, want {sorted(want)}")
for name in want:
    body = doc.split(f"<!-- {name}_MEASURED -->")[1].split(f"<!-- /{name}_MEASURED -->")[0]
    assert body.strip(), f"experiments quick: section {name}_MEASURED is empty"
last = {}
for line in open(sys.argv[2]):
    rec = json.loads(line)
    last[(rec["kind"], rec.get("name"))] = rec
vectors = last.get(("counter", "sim.wnv.vectors"), {}).get("value")
assert vectors == 40, (
    f"experiments quick: sim.wnv.vectors {vectors}, want 40 (4 designs x 10 vectors, once each)")
print(f"experiments quick: {len(want)} sections filled, sim.wnv.vectors = {vectors}")
PYEOF

echo
echo "== serve smoke =="
# Train a tiny bundle, start the daemon on an ephemeral port with an
# access log, exercise /healthz and /predict, validate the Prometheus
# /metrics exposition (every family typed, buckets cumulative/monotone,
# +Inf == _count, no family repeating another's record), the
# ?format=jsonl negotiation, /statusz against the registry, and the
# request-ID round trip into the access log — then SIGTERM it and
# require a clean zero exit.
model="$cache_dir/smoke_model.pdn"
vec="$cache_dir/smoke_vector.csv"
access_log="$cache_dir/access.jsonl"
./target/release/pdn train --design D1 --vectors 4 --steps 30 --epochs 2 \
    --cache-dir "$cache_dir/cache" --out "$model" >/dev/null
./target/release/pdn export-vector --design D1 --steps 30 --seed 5 --out "$vec" >/dev/null
serve_log="$cache_dir/serve.log"
./target/release/pdn serve --model "$model" --design D1 --addr 127.0.0.1:0 \
    --cache-dir none --access-log "$access_log" >"$serve_log" 2>&1 &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
    port="$(sed -n 's#.*listening on http://[0-9.]*:\([0-9]*\).*#\1#p' "$serve_log")"
    [[ -n "$port" ]] && break
    kill -0 "$serve_pid" 2>/dev/null \
        || { echo "serve smoke: daemon died during startup"; cat "$serve_log"; exit 1; }
    sleep 0.1
done
[[ -n "$port" ]] || { echo "serve smoke: never printed a listening line"; cat "$serve_log"; exit 1; }
python3 - "$port" "$vec" "$access_log" <<'PYEOF'
import json, math, sys, time, urllib.request
port, vec, access_log = sys.argv[1], sys.argv[2], sys.argv[3]
base = f"http://127.0.0.1:{port}"
health = json.load(urllib.request.urlopen(base + "/healthz", timeout=30))
assert health["status"] == "ok", health

req = urllib.request.Request(base + "/predict", data=open(vec, "rb").read(), method="POST")
with urllib.request.urlopen(req, timeout=120) as r:
    rid = r.headers["x-pdn-request-id"]
    resp = json.load(r)
assert resp["kind"] == "predict", resp
assert resp["rows"] > 0 and len(resp["map"]) == resp["rows"] * resp["cols"], resp
assert rid and resp["request_id"] == rid, (rid, resp.get("request_id"))

# The handler appends the access-log line after writing the response;
# give it a beat before insisting on it.
entry = None
for _ in range(100):
    for line in open(access_log):
        rec = json.loads(line)
        if rec["id"] == rid:
            entry = rec
            break
    if entry:
        break
    time.sleep(0.05)
assert entry, f"request {rid} never reached the access log"
assert entry["route"] == "predict" and entry["status"] == 200, entry
assert entry["batch_width"] == resp["batch_width"], (entry, resp["batch_width"])
assert entry["total_us"] >= entry["compute_us"] >= 0, entry

# Prometheus exposition: a tiny but strict text-format 0.0.4 check.
with urllib.request.urlopen(base + "/metrics", timeout=30) as r:
    assert r.headers["Content-Type"].startswith("text/plain"), r.headers["Content-Type"]
    prom = r.read().decode()
types, samples = {}, []
for line in prom.splitlines():
    if line.startswith("# TYPE "):
        _, _, name, kind = line.split(" ")
        assert name not in types, f"duplicate TYPE for {name}"
        assert kind in ("counter", "gauge", "histogram"), line
        types[name] = kind
    elif line and not line.startswith("#"):
        name = line.split("{", 1)[0].split(" ", 1)[0]
        samples.append((name, line))
def family(name):
    for suffix in ("_bucket", "_sum", "_count"):
        base_name = name.removesuffix(suffix)
        if base_name in types and types[base_name] == "histogram":
            return base_name
    return name
hist = {}
for name, line in samples:
    fam = family(name)
    assert fam in types, f"untyped sample family {name!r}: {line}"
    if types[fam] == "histogram":
        payload = line.rsplit(" ", 1)
        if name.endswith("_bucket"):
            le = line.split('le="', 1)[1].split('"', 1)[0]
            hist.setdefault(fam, {"buckets": [], "count": None})["buckets"].append(
                (math.inf if le == "+Inf" else float(le), float(payload[1])))
        elif name.endswith("_count"):
            hist.setdefault(fam, {"buckets": [], "count": None})["count"] = float(payload[1])
assert types.get("serve_requests_total") == "counter", sorted(types)
assert types.get("serve_route_predict") == "histogram", sorted(types)
assert types.get("serve_predict_batch_width") == "histogram", sorted(types)
# One record per fact: no rolling-window gauges, and no counter that
# repeats a histogram's count.
repeats = [n for n in types if n.startswith("serve_window_")
           or (n.startswith("serve_route_") and n.endswith("_requests_total"))
           or n in ("serve_predict_requests_total", "serve_predict_batches_total")]
assert not repeats, f"families that repeat another record: {repeats}"
for fam, h in hist.items():
    les = [le for le, _ in h["buckets"]]
    counts = [v for _, v in h["buckets"]]
    assert les == sorted(les) and les[-1] == math.inf, f"{fam}: bad le order {les}"
    assert all(a <= b for a, b in zip(counts, counts[1:])), f"{fam}: non-cumulative {counts}"
    assert h["count"] is not None and counts[-1] == h["count"], f"{fam}: +Inf != _count"

# Content negotiation: the raw JSONL registry snapshot stays reachable.
jsonl = urllib.request.urlopen(base + "/metrics?format=jsonl", timeout=30).read().decode()
for line in jsonl.splitlines():
    json.loads(line)
assert '"serve.predict.batch_width"' in jsonl, jsonl[:2000]

# /statusz reads the registry: the predict route's count is the
# serve_route_predict histogram's, and its rates run since start.
predicts = hist["serve_route_predict"]["count"]
statusz = json.load(urllib.request.urlopen(base + "/statusz", timeout=30))
assert statusz["status"] == "ok" and "window_s" not in statusz, statusz
route = statusz["routes"]["predict"]
assert route["count"] == predicts >= 1 and route["p99_s"] > 0, (route, predicts)
assert route["errors"] == 0 and route["qps"] > 0, route

print(f"serve smoke: predicted a {resp['rows']}x{resp['cols']} map (request {rid}, "
      f"batch width {resp['batch_width']}), {len(hist)} histogram families valid")
PYEOF
kill -TERM "$serve_pid"
wait "$serve_pid" \
    || { echo "serve smoke: daemon exited non-zero after SIGTERM"; cat "$serve_log"; exit 1; }
grep -q "shutdown complete" "$serve_log" \
    || { echo "serve smoke: missing clean-shutdown message"; cat "$serve_log"; exit 1; }
echo "serve smoke: healthz + predict + metrics + clean SIGTERM shutdown"

if [[ "${PDN_BENCH_GATE:-1}" != "0" && -f BENCH_components.json ]]; then
    echo
    echo "== bench regression gate (PDN_BENCH_GATE=0 to skip) =="
    gate_json="$(mktemp -t pdn-bench-gate-XXXXXX.json)"
    trap 'rm -rf "$cache_dir" "$gate_json"' EXIT
    PDN_BENCH_JSON="$gate_json" PDN_BENCH_QUICK=1 \
        cargo bench --offline -p pdn-bench --bench components >/dev/null
    python3 scripts/bench_gate.py BENCH_components.json "$gate_json"
fi

echo
echo "ci.sh: all green"
