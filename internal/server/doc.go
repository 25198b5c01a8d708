// Package server exposes a core.Engine over HTTP JSON as a long-lived
// serving layer: batched ingest, replication and deletes straight into
// the engine (whose index-wide WAL commit is what groups fsyncs), top-K
// search with per-request overrides, record lookup, health and
// stats endpoints, periodic and shutdown snapshots, a configurable
// concurrency limit, and graceful connection draining.
//
// Lifecycle: New -> Listen -> Serve(ctx). Canceling ctx drains in-flight
// requests (bounded by DrainTimeout), shuts the write gate, and writes a
// final snapshot. Handler is exported for in-process tests
// that skip the listener; such callers must Close the server
// themselves.
//
// The HTTP plumbing — request IDs, limiter, counting middleware, error
// envelope, latency histograms, the capped request body read once and
// each body's Check, the logger, Listen/Serve/drain — is the Shell type,
// configured by a ShellConfig, which the cluster coordinator holds too.
// Its one *slog.Logger adds the request_id of the context a line is
// logged with; a 5xx, a limiter refusal and a failed snapshot always
// log, a 2xx request never does. wire.go is the one JSON codec of the search hop,
// both directions: DecodeJSON parses plain search and ingest bodies and
// the search answers the coordinator reads in one pass, any other by
// encoding/json from the same bytes; AppendJSON, behind WriteJSON and
// the coordinator's request bodies, writes search requests and answers
// in one pass, byte for byte what json.Encoder writes (a string with
// bytes that need escaping, or with <, > or &, by json.Marshal; a float
// in encoding/json's format; a NaN or infinity left to the stdlib), and
// any other value by json.Encoder. Observability has one definition: stats() builds the
// StatsResponse, /stats encodes it and /metrics is WriteProm walking the
// same value's prom tags, so a counter is wired in exactly one place.
//
// # Invariants
//
//   - Acknowledged writes survive shutdown: a 200 on ingest, replicate
//     or delete means the mutation reaches the next snapshot. Shutdown
//     orders handler drain, then the write gate (a straggler gets 503
//     shutting_down), then the final snapshot, so nothing acknowledged
//     can be lost to a clean SIGTERM and nothing is acknowledged after
//     the snapshot.
//   - Acknowledged writes survive a crash: New commits a directory
//     index's first manifest before the listener opens, which attaches
//     the write-ahead logs every later ack is fsynced to. An in-memory
//     index is served without snapshots or durability.
//   - Snapshots go to the served index's own directory and are atomic
//     at their commit point, the manifest rename in SaveDir. A crash
//     mid-save leaves the previous snapshot intact. Snapshots only
//     append segment files; sealed segments are never rewritten, so
//     periodic snapshot cost tracks the ingest delta.
//   - Snapshots are generation-gated: an unchanged index is never
//     rewritten by the periodic timer.
//   - /stats is cheap and lock-light; its engine block includes the
//     tier sub-object (resident vs mapped bytes, prefilter survival)
//     exactly when the served index is a directory.
package server
