// Package cluster scales the engine's HTTP API across processes: a
// coordinator speaks the same /v1 protocol as internal/server but owns
// no index, routing every request to a fleet of ordinary single-node
// backends. It is the same kind of HTTP process as a backend — it holds
// a server.Shell for its middleware, request decoding and lifecycle,
// and renders /stats and /metrics from one stats() value through
// server.WriteProm — so this package is only the routing.
//
// Placement is a rendezvous-hash ring (Ring): each record name maps to
// a replication-factor-sized set of backends, so capacity grows by
// adding backends and availability by raising replication. Writes fan
// each coalesced batch to all replicas of each record and acknowledge
// only on a write quorum (majority of replicas); records that miss
// quorum are reported individually in the error envelope, never
// silently dropped. Searches scatter to a covering set: an acked record
// is on at least quorum backends, so any backends-(quorum-1) of the
// fleet hold a copy of everything, and that many are asked, the
// left-out ones rotating per search. The per-backend bounded top-K
// heaps are merged with core.MergeTopK — the same total order the
// in-process per-shard merge uses, so a coordinator's answer is
// byte-identical to a single node holding the same corpus — and
// replicated hits are deduped by name keeping the best score.
//
// Liveness is one circuit breaker per backend, fed by every call's
// outcome — requests and the breaker's own /healthz probe loop alike —
// with consecutive-failure hysteresis so one dropped call never flaps
// the ring, the probes backing off exponentially (with jitter) on
// backends that stay down. A search whose first wave comes up short
// asks the backends it left out and retries the failed ones once before
// degrading: a response is flagged "partial": true only when fewer than
// the covering number answered, i.e. when completeness can no longer be
// guaranteed.
//
// The fleet is self-healing. Replicas that miss a quorum-acked write
// get a hinted handoff: the miss is queued (durably, with -hints-dir)
// and replayed automatically once the backend's breaker closes
// again. Reads that expose replica disagreement — a GET that 404s on
// one replica and hits on another, a search hit missing from a replica
// that provably had room for it (seen when the rotation asks both
// replicas, so within one round of the fleet) — feed an anti-entropy
// read-repair queue, and POST /v1/admin/repair (or -repair-every)
// sweeps the whole corpus back to full replication, removing strays
// once their replica set is verifiably complete. Membership is
// elastic: POST /v1/admin/join and /v1/admin/drain stream affected
// records to their new replicas before committing the ring swap, so
// the replication invariant — every record on exactly Replication live
// replicas of the committed ring — holds before, during, and after the
// change.
package cluster
