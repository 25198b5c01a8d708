#!/usr/bin/env bash
# smoke_http.sh — end-to-end smoke test of `engine serve`: start a
# server on a free port over a fresh index directory, ingest the CLI
# testdata over HTTP, assert a search hit plus healthy /healthz and
# /stats, delete a record, then SIGKILL the process and verify that
# `engine search` reopens the directory to exactly the acked state.
# Later phases cover the cluster. CI runs this after the unit tests;
# `make smoke` mirrors it locally.
set -euo pipefail

cd "$(dirname "$0")/.."

tmp="$(mktemp -d -t engine-smoke.XXXXXX)"
serve_pid=""
extra_pids=()
cleanup() {
    if [[ -n "$serve_pid" ]]; then
        kill -9 "$serve_pid" 2>/dev/null || true
    fi
    for pid in "${extra_pids[@]:-}"; do
        [[ -n "$pid" ]] && kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

# wait_addr OUTFILE — poll a serve process's stdout for the serving
# line and print the bound address, empty on timeout.
wait_addr() {
    local addr
    for _ in $(seq 1 100); do
        addr="$(grep -oE 'addr=[^[:space:]]+' "$1" 2>/dev/null | head -1 | cut -d= -f2 || true)"
        if [[ -n "$addr" ]]; then
            echo "$addr"
            return 0
        fi
        sleep 0.1
    done
    echo ""
}

go build -o "$tmp/engine" ./cmd/engine

# A regular file is not an index: the error must point at the importer.
echo '{"meta":{"format":4},"sketches":[]}' >"$tmp/legacy.json"
if "$tmp/engine" serve -addr 127.0.0.1:0 -d "$tmp/legacy.json" >/dev/null 2>"$tmp/legacy.err"; then
    echo "smoke: serve -d on a regular file exited 0" >&2
    exit 1
fi
grep -q 'engine import' "$tmp/legacy.err" || { echo "smoke: serve -d on a regular file does not mention engine import" >&2; cat "$tmp/legacy.err" >&2; exit 1; }

# ---------------------------------------------------------------------
# Phase 1: single node, serving and durability. A default `serve -d DIR`
# creates the directory, takes acknowledged adds and a delete, and is
# SIGKILLed — no drain, no shutdown snapshot, and the periodic one is an
# hour away; reopening the directory must replay the WAL to exactly the
# acked state.
index="$tmp/index"
"$tmp/engine" serve -addr 127.0.0.1:0 -d "$index" -snapshot-every 1h \
    >"$tmp/serve.out" 2>"$tmp/serve.err" &
serve_pid=$!

addr="$(wait_addr "$tmp/serve.out")"
if [[ -z "$addr" ]]; then
    echo "smoke: server never reported its address" >&2
    cat "$tmp/serve.err" >&2
    exit 1
fi
base="http://$addr"

fail() {
    echo "smoke: $1" >&2
    cat "$tmp/serve.err" >&2
    exit 1
}

curl -fsS "$base/healthz" | grep -q '"status":"ok"' || fail "healthz not ok"

# Ingest the CLI testdata. The files are single-line plain text with no
# JSON metacharacters, so embedding them in a JSON string is safe.
payload() { tr -d '\n' <"$1"; }
body="$(printf '{"records": [{"name": "alpha.txt", "data": "%s"}, {"name": "beta.txt", "data": "%s"}, {"name": "gamma.txt", "data": "%s"}]}' \
    "$(payload cmd/engine/testdata/alpha.txt)" \
    "$(payload cmd/engine/testdata/beta.txt)" \
    "$(payload cmd/engine/testdata/gamma.txt)")"
curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" "$base/v1/records" \
    | grep -q '"added":3' || fail "ingest did not add 3 records"

# A near-duplicate of alpha.txt must come back as the top hit.
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"name": "q", "data": "the quick brown fox jumps over the lazy dog and keeps running through the quiet forest until dusk", "k": 2}' \
    "$base/v1/search" | grep -q '"ref":"alpha.txt"' || fail "search did not hit alpha.txt"

curl -fsS "$base/v1/records/beta.txt" | grep -q '"name":"beta.txt"' || fail "record lookup failed"
# A listing page carries each record's full 128-slot signature and no
# width: signatures are always full-width.
page="$(curl -fsS "$base/v1/records?limit=1")"
[[ "$page" != *'"bits"'* ]] || fail "listing page carries a bits key: $page"
sig="${page#*\"signature\":[}"
slots="$(tr ',' '\n' <<<"${sig%%]*}" | wc -l)"
[[ "$slots" -eq 128 ]] || fail "listing signature has $slots slots, want 128"
stats="$(curl -fsS "$base/stats")"
grep -q '"records_added":3' <<<"$stats" || fail "stats did not count the ingest"
# The three records sit on stripes 13, 1 and 12, and the index has one
# log: the ingest's commit paid one fsync, not one per stripe.
grep -q '"fsyncs":1[,}]' <<<"$stats" || fail "the 3-record ingest did not pay exactly one WAL fsync: $stats"

# Delete one record and verify the error envelope on a second try.
curl -fsS -X DELETE "$base/v1/records/gamma.txt" \
    | grep -q '"deleted":"gamma.txt"' || fail "delete did not ack"
code="$(curl -s -o "$tmp/del2.json" -w '%{http_code}' -X DELETE "$base/v1/records/gamma.txt")"
[[ "$code" == "404" ]] || fail "second delete returned $code, want 404"
grep -q '"code":"not_found"' "$tmp/del2.json" || fail "404 body is not the error envelope"

# One more acked add after the delete, then sample /metrics.
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"records": [{"name": "delta.txt", "data": "an entirely different payload that only exists in the write-ahead log"}]}' \
    "$base/v1/records" | grep -q '"added":1' || fail "post-delete ingest failed"
# Capture /metrics before grepping: `curl | grep -q` races under
# pipefail (grep exits at first match, curl dies on EPIPE mid-body).
metrics="$(curl -fsS "$base/metrics")"
grep -q '^sketchengine_wal_appends_total' <<<"$metrics" || fail "/metrics has no WAL counters"
grep -q 'sketchengine_deletes_total 1' <<<"$metrics" || fail "/metrics did not count the delete"

# Follow next_cursor one record a page: the walk must yield every live
# record exactly once and never the deleted one, in whatever order the
# shards hold them.
listed=""
cursor=""
for _ in $(seq 1 10); do
    page="$(curl -fsS "$base/v1/records?limit=1${cursor:+&cursor=$cursor}")"
    listed+="$(grep -oE '"name":"[^"]*"' <<<"$page" | cut -d'"' -f4 || true) "
    cursor="$(grep -oE '"next_cursor":"[^"]*"' <<<"$page" | cut -d'"' -f4 || true)"
    [[ -n "$cursor" ]] || break
done
walked="$(tr ' ' '\n' <<<"$listed" | grep -v '^$' | sort | tr '\n' ' ')"
[[ -z "$cursor" && "$walked" == "alpha.txt beta.txt delta.txt " ]] ||
    fail "listing walk yielded '$walked' (cursor '$cursor'), want alpha.txt, beta.txt and delta.txt once each"

# The crash: SIGKILL, so nothing gets to flush except what the WAL
# already holds from the per-request acks.
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
wal_files="$(ls "$index/wal")"
[[ "$wal_files" == "shard-0000.wal" ]] || fail "wal/ holds '$wal_files', want only shard-0000.wal"

# The query files keep their trailing newline (the HTTP ingest stripped
# it), so each still matches its own record at rank 1. They are copied
# under other names: search skips a record with the query's own name and
# signature, and the query column would match a grep for the name.
# top_ref QUERY prints the rank-1 hit's ref, empty when nothing scored.
top_ref() {
    cp "cmd/engine/testdata/$1" "$tmp/q-$1"
    "$tmp/engine" search -d "$index" -top 1 "$tmp/q-$1" | awk 'NR == 2 && $4 > 0 { print $2 }'
}
[[ "$(top_ref alpha.txt)" == "alpha.txt" ]] || fail "acked record alpha.txt lost in the crash"
[[ "$(top_ref beta.txt)" == "beta.txt" ]] || fail "acked record beta.txt lost in the crash"
[[ -z "$(top_ref gamma.txt)" ]] || fail "deleted record gamma.txt resurrected by WAL replay"
# Every write was acked after the only snapshot (the empty one serve
# commits at startup): all of it lives only in the WAL, so finding
# delta.txt proves the replay path end to end.
echo "an entirely different payload that only exists in the write-ahead log" >"$tmp/delta-query.txt"
out="$("$tmp/engine" search -d "$index" -top 1 "$tmp/delta-query.txt")"
grep -q 'delta.txt' <<<"$out" || fail "WAL-only record delta.txt lost in the crash"

# A retuned restart: serve on the recovered index with another banding
# opens it under that banding in the one posting-table build every open
# pays (the WAL tail included), and every acked record still ranks first
# for its own text.
"$tmp/engine" serve -addr 127.0.0.1:0 -d "$index" -snapshot-every 1h -bands 16 -rows 8 \
    >"$tmp/serve.out" 2>"$tmp/serve.err" &
serve_pid=$!
addr="$(wait_addr "$tmp/serve.out")"
[[ -n "$addr" ]] || fail "the retuned server never reported its address"
base="http://$addr"
grep -q 'rebucketed to bands=16 rows=8' "$tmp/serve.err" || fail "no retune line on the retuned server's stderr"
stats="$(curl -fsS "$base/stats")"
grep -q '"bands":16,' <<<"$stats" || fail "retuned /stats does not show engine.bands 16: $stats"
grep -q '"lsh_seals":1,' <<<"$stats" || fail "the retuned open did not build the posting table exactly once: $stats"
# http_top_ref FILE prints the ref of the rank-1 hit for FILE's text.
http_top_ref() {
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "$(printf '{"name": "q-%s", "data": "%s", "k": 1}' "$1" "$(payload "$2")")" \
        "$base/v1/search" | { grep -oE '"rank":1,"ref":"[^"]*"' || true; } | cut -d'"' -f6
}
[[ "$(http_top_ref alpha.txt cmd/engine/testdata/alpha.txt)" == "alpha.txt" ]] || fail "retuned: alpha.txt not at rank 1"
[[ "$(http_top_ref beta.txt cmd/engine/testdata/beta.txt)" == "beta.txt" ]] || fail "retuned: beta.txt not at rank 1"
[[ "$(http_top_ref gamma.txt cmd/engine/testdata/gamma.txt)" != "gamma.txt" ]] || fail "retuned: deleted gamma.txt came back"
[[ "$(http_top_ref delta.txt "$tmp/delta-query.txt")" == "delta.txt" ]] || fail "retuned: WAL-only delta.txt not at rank 1"
# One write, then a clean shutdown: its snapshot writes the new banding.
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"records": [{"name": "epsilon.txt", "data": "one more record so that the shutdown writes a snapshot"}]}' \
    "$base/v1/records" | grep -q '"added":1' || fail "ingest on the retuned server failed"
kill "$serve_pid"
wait "$serve_pid" || fail "the retuned server did not shut down cleanly"
serve_pid=""
grep -q '"bands":16,"rows_per_band":8' "$index/MANIFEST.json" || fail "the shutdown snapshot did not write the new banding"

# ---------------------------------------------------------------------
# Phase 2: cluster. Three single-node backends behind one coordinator
# at replication=2: ingest and search through the coordinator, join a
# fourth backend and drain it again, then SIGKILL a backend and assert
# the planted hit still comes back full — every record kept a live
# replica, so nothing may degrade to partial.
backend_addrs=()
for i in 1 2 3 4; do
    "$tmp/engine" serve -addr 127.0.0.1:0 -d "$tmp/backend$i" -snapshot-every 0 \
        >"$tmp/backend$i.out" 2>"$tmp/backend$i.err" &
    extra_pids+=($!)
done
for i in 1 2 3 4; do
    addr="$(wait_addr "$tmp/backend$i.out")"
    if [[ -z "$addr" ]]; then
        echo "smoke: backend $i never reported its address" >&2
        cat "$tmp/backend$i.err" >&2
        exit 1
    fi
    backend_addrs+=("$addr")
done

joiner="${backend_addrs[3]}"
"$tmp/engine" serve -coordinator \
    -backends "$(IFS=,; echo "${backend_addrs[*]:0:3}")" -replication 2 \
    -addr 127.0.0.1:0 -health-every 250ms \
    >"$tmp/coord.out" 2>"$tmp/coord.err" &
serve_pid=$!

addr="$(wait_addr "$tmp/coord.out")"
if [[ -z "$addr" ]]; then
    echo "smoke: coordinator never reported its address" >&2
    cat "$tmp/coord.err" >&2
    exit 1
fi
base="http://$addr"
fail2() {
    echo "smoke: $1" >&2
    cat "$tmp/coord.err" >&2
    exit 1
}

grep -q 'coordinator=true' "$tmp/coord.out" || fail2 "serving line does not announce coordinator mode"
curl -fsS "$base/healthz" | grep -q '"status":"ok"' || fail2 "coordinator healthz not ok"

curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" "$base/v1/records" \
    | grep -q '"added":3' || fail2 "coordinator ingest did not add 3 records"
# The query name needs escaping both ways on the coordinator->backend hop;
# the answer must echo it as encoding/json spells it.
hostile="$(curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"name": "<q&\"é\">", "data": "the quick brown fox jumps over the lazy dog and keeps running through the quiet forest until dusk", "k": 2}' \
    "$base/v1/search")" || fail2 "coordinator search errored"
grep -q '"ref":"alpha.txt"' <<<"$hostile" || fail2 "coordinator search did not hit alpha.txt"
grep -qF '"query":"\u003cq\u0026\"é\"\u003e"' <<<"$hostile" || fail2 "coordinator search did not echo the query name as encoding/json spells it: $hostile"
curl -fsS "$base/v1/records/beta.txt" | grep -q '"name":"beta.txt"' || fail2 "coordinator record lookup failed"

# Membership: the fourth backend joins the ring and drains out again,
# and the planted hit survives both moves.
ring_size() { grep -oE '"backends":\[[^]]*\]' <<<"$1" | grep -o '"[^"]*:[0-9]*"' | wc -l; }
planted_hit() {
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d '{"name": "q", "data": "the quick brown fox jumps over the lazy dog and keeps running through the quiet forest until dusk", "k": 2}' \
        "$base/v1/search" | grep -q '"ref":"alpha.txt"'
}
moved="$(curl -fsS -X POST -H 'Content-Type: application/json' -d "{\"backend\": \"$joiner\"}" \
    "$base/v1/admin/join")" || fail2 "join errored"
grep -q '"action":"join"' <<<"$moved" || fail2 "join answered $moved"
[[ "$(ring_size "$moved")" == 4 ]] || fail2 "join did not commit 4 backends: $moved"
planted_hit || fail2 "planted hit lost after the join"
moved="$(curl -fsS -X POST -H 'Content-Type: application/json' -d "{\"backend\": \"$joiner\"}" \
    "$base/v1/admin/drain")" || fail2 "drain errored"
grep -q '"action":"drain"' <<<"$moved" || fail2 "drain answered $moved"
[[ "$(ring_size "$moved")" == 3 ]] || fail2 "drain did not commit 3 backends: $moved"
planted_hit || fail2 "planted hit lost after the drain"
curl -fsS "$base/stats" | grep -qE '"rebalance":\{[^}]*"joins":1,"drains":1' \
    || fail2 "coordinator stats do not show one join and one drain"

# The kill: one backend dies mid-service. With replication=2 every
# record still has a live replica, so the same search must return the
# planted hit with no "partial" degradation flag.
kill -9 "${extra_pids[0]}"
wait "${extra_pids[0]}" 2>/dev/null || true
post_kill="$(curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"name": "q", "data": "the quick brown fox jumps over the lazy dog and keeps running through the quiet forest until dusk", "k": 2}' \
    "$base/v1/search")" || fail2 "search errored after a backend SIGKILL"
grep -q '"ref":"alpha.txt"' <<<"$post_kill" || fail2 "planted hit lost after a backend SIGKILL"
if grep -q '"partial":true' <<<"$post_kill"; then
    fail2 "one dead backend of three must not degrade the search to partial"
fi
stats="$(curl -fsS "$base/stats")"
grep -q '"retries":' <<<"$stats" || fail2 "coordinator stats missing retry counter"
metrics="$(curl -fsS "$base/metrics")"
grep -q '^sketchengine_cluster_requests_total' <<<"$metrics" || fail2 "coordinator /metrics missing cluster counters"

# ---------------------------------------------------------------------
# Phase 3: self-healing replication. Three fresh backends behind a
# coordinator at replication=3 with durable hints. SIGKILL one backend,
# ingest through the degraded window (quorum 2/3 holds, the miss is
# hinted), restart the backend on its old port, and wait for the hint
# drainer to replay. The acked record must then be readable from the
# recovered backend DIRECTLY — no coordinator, no manual repair.
kill -9 "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
for pid in "${extra_pids[@]:-}"; do
    [[ -n "$pid" ]] && kill -9 "$pid" 2>/dev/null || true
done
extra_pids=()

heal_addrs=()
for i in 1 2 3; do
    "$tmp/engine" serve -addr 127.0.0.1:0 -d "$tmp/heal$i" -snapshot-every 1s \
        >"$tmp/heal$i.out" 2>"$tmp/heal$i.err" &
    extra_pids+=($!)
done
for i in 1 2 3; do
    addr="$(wait_addr "$tmp/heal$i.out")"
    if [[ -z "$addr" ]]; then
        echo "smoke: heal backend $i never reported its address" >&2
        cat "$tmp/heal$i.err" >&2
        exit 1
    fi
    heal_addrs+=("$addr")
done

"$tmp/engine" serve -coordinator \
    -backends "$(IFS=,; echo "${heal_addrs[*]}")" -replication 3 \
    -hints-dir "$tmp/hints" -health-every 100ms \
    -addr 127.0.0.1:0 \
    >"$tmp/coord2.out" 2>"$tmp/coord2.err" &
serve_pid=$!

addr="$(wait_addr "$tmp/coord2.out")"
if [[ -z "$addr" ]]; then
    echo "smoke: self-heal coordinator never reported its address" >&2
    cat "$tmp/coord2.err" >&2
    exit 1
fi
base="http://$addr"
fail3() {
    echo "smoke: $1" >&2
    cat "$tmp/coord2.err" >&2
    exit 1
}

curl -fsS "$base/healthz" | grep -q '"status":"ok"' || fail3 "self-heal cluster healthz not ok"

# The outage: backend 1 dies, hard.
victim_pid="${extra_pids[0]}"
victim_addr="${heal_addrs[0]}"
kill -9 "$victim_pid"
wait "$victim_pid" 2>/dev/null || true

# Ingest through the degraded window: 2/3 replicas ack (the quorum), the
# third miss becomes a durable hint.
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"records": [{"name": "omega.txt", "data": "a record acked while one of its three replicas was dead"}]}' \
    "$base/v1/records" | grep -q '"added":1' || fail3 "ingest through the outage did not ack"
curl -fsS "$base/stats" | grep -q '"queued":1' || fail3 "the missed write was not hinted"
ls "$tmp/hints"/*.hint >/dev/null 2>&1 || fail3 "no durable hint file on disk"

# Recovery: same port, same index directory, no operator involvement beyond
# the restart itself.
"$tmp/engine" serve -addr "$victim_addr" -d "$tmp/heal1" -snapshot-every 1s \
    >"$tmp/heal1b.out" 2>"$tmp/heal1b.err" &
extra_pids+=($!)
[[ -n "$(wait_addr "$tmp/heal1b.out")" ]] || fail3 "victim backend did not come back on $victim_addr"

# The hint drainer notices the backend is back and replays. Poll the
# coordinator until the hint queue is empty.
drained=""
for _ in $(seq 1 100); do
    if curl -fsS "$base/stats" | grep -q '"pending":0'; then
        drained=1
        break
    fi
    sleep 0.2
done
[[ -n "$drained" ]] || fail3 "hint queue never drained after the backend recovered"

# The proof: the record acked during the outage, read from the recovered
# replica itself.
curl -fsS "http://$victim_addr/v1/records/omega.txt" \
    | grep -q '"name":"omega.txt"' || fail3 "recovered backend cannot serve the write it missed"

# ---------------------------------------------------------------------
# Phase 4: resilience under injected faults. Replace the coordinator
# with one that has -fault-spec armed: every outgoing backend call rolls
# for an injected 5xx or added latency. Traffic through that coordinator
# must still converge — ingest acks (retried by the client on quorum
# failure, which is the documented contract), searches return the
# planted hit with no partial flag, and the armed faults are advertised
# in /stats and /metrics. Also proves the deadline path: an already-
# expired X-Sketch-Deadline gets an explicit 504, never a truncation.
kill -9 "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

"$tmp/engine" serve -coordinator \
    -backends "$(IFS=,; echo "${heal_addrs[*]}")" -replication 3 \
    -health-every 100ms -addr 127.0.0.1:0 \
    -fault-spec 'backend.rt:delay=5ms@0.3;backend.rt:error=0.1' -fault-seed 42 \
    >"$tmp/coord3.out" 2>"$tmp/coord3.err" &
serve_pid=$!

addr="$(wait_addr "$tmp/coord3.out")"
if [[ -z "$addr" ]]; then
    echo "smoke: chaos coordinator never reported its address" >&2
    cat "$tmp/coord3.err" >&2
    exit 1
fi
base="http://$addr"
fail4() {
    echo "smoke: $1" >&2
    cat "$tmp/coord3.err" >&2
    exit 1
}

grep -q 'FAULT INJECTION ARMED' "$tmp/coord3.err" || fail4 "armed fault spec was not announced on stderr"

# Ingest through the faults. A roll of injected errors can fail quorum
# for a record (502 quorum_failed) — acked records are never rolled
# back, so the client-side retry loop below is the documented recovery.
ingested=""
for _ in $(seq 1 10); do
    code="$(curl -s -o "$tmp/chaos-ingest.json" -w '%{http_code}' \
        -X POST -H 'Content-Type: application/json' -d "$body" "$base/v1/records")"
    if [[ "$code" == "200" ]] && grep -q '"added":3' "$tmp/chaos-ingest.json"; then
        ingested=1
        break
    fi
    grep -q '"code":"quorum_failed"\|"code":"backend_down"' "$tmp/chaos-ingest.json" \
        || fail4 "chaos ingest failed with an unexpected body: $(cat "$tmp/chaos-ingest.json")"
    sleep 0.2
done
[[ -n "$ingested" ]] || fail4 "ingest never reached quorum through the injected faults"

# Searches through the fault window: with replication=3 every live
# backend holds every record, so a response may only be partial if ALL
# backends fail — injected errors must be absorbed by the retry wave.
for i in $(seq 1 10); do
    out="$(curl -fsS -X POST -H 'Content-Type: application/json' \
        -d '{"name": "q", "data": "the quick brown fox jumps over the lazy dog and keeps running through the quiet forest until dusk", "k": 2}' \
        "$base/v1/search")" || fail4 "chaos search $i errored outright"
    grep -q '"ref":"alpha.txt"' <<<"$out" || fail4 "chaos search $i lost the planted hit"
    if grep -q '"partial":true' <<<"$out"; then
        fail4 "chaos search $i degraded to partial despite replication=3"
    fi
done

# An expired deadline is an explicit 504, straight from a backend.
code="$(curl -s -o "$tmp/deadline.json" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' -H 'X-Sketch-Deadline: 1' \
    -d '{"name": "q", "data": "whatever", "k": 1}' "http://${heal_addrs[1]}/v1/search")"
[[ "$code" == "504" ]] || fail4 "expired deadline returned $code, want 504"
grep -q '"code":"deadline_exceeded"' "$tmp/deadline.json" || fail4 "504 body is not the deadline envelope"

# The armed spec and its injection counts are observable.
stats="$(curl -fsS "$base/stats")"
grep -q '"faults":{' <<<"$stats" || fail4 "/stats does not advertise the armed fault spec"
grep -q '"retry_budget":{' <<<"$stats" || fail4 "/stats missing the retry budget block"
metrics="$(curl -fsS "$base/metrics")"
grep -q '^sketchengine_fault_spec_armed 1' <<<"$metrics" || fail4 "/metrics missing the armed-spec gauge"
grep -q '^sketchengine_fault_injections_total' <<<"$metrics" || fail4 "/metrics missing injection counters after traffic"
grep -q '^sketchengine_cluster_backend_breaker_state' <<<"$metrics" || fail4 "/metrics missing breaker state series"

echo "smoke: ok"
