package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"slices"

	"sketchengine/internal/server"
)

// Elastic membership: POST /v1/admin/join adds a backend to the ring,
// POST /v1/admin/drain removes one — both without ever violating the
// replication invariant (every record on exactly Replication replicas
// of the *committed* ring). The protocol:
//
//  1. Compute the target ring. Writes arriving during the migration go
//     to the union of old-ring and target-ring replica sets, with the
//     quorum still counted on the old (authoritative) set — so no
//     record written mid-migration can miss its new home.
//  2. Stream: enumerate every old-ring backend's corpus and copy each
//     record whose target replica set gained members to those members
//     (pre-sketched, via /v1/admin/replicate). Any failure aborts the
//     whole operation with the old ring intact; the stream is
//     idempotent, so a retry resumes the work for free.
//  3. Commit the ring swap under the membership lock. Only now does
//     placement change.
//  4. Best-effort delete the copies the swap stranded outside their
//     replica sets (rendezvous hashing moves each affected record off
//     exactly one old replica). Leftover strays are harmless to reads
//     (search dedups) and the sweep removes them. A drain strands
//     copies only on the drained backend, which leaves the fleet at
//     commit, so it has none to delete: removal never remaps records
//     that were not on it.
//
// Join and drain are one code path (moveRing); they differ only in
// the target's member list, the joiner's admission probe and the
// counter a commit bumps.
const (
	// CodeRebalanceBusy (409): another join/drain is streaming.
	CodeRebalanceBusy = "rebalance_busy"
	// CodeRebalanceFailed (502): the streaming phase could not complete;
	// the ring is unchanged and the request can be retried.
	CodeRebalanceFailed = "rebalance_failed"

	// rebalanceBatch is how many record copies are shipped per
	// replicate call during a stream.
	rebalanceBatch = 128
)

// JoinRequest is the body of POST /v1/admin/join.
type JoinRequest struct {
	Backend string `json:"backend"`
}

// DrainRequest is the body of POST /v1/admin/drain.
type DrainRequest struct {
	Backend string `json:"backend"`
}

// Check is the rule server.Shell.Decode applies to a join body.
func (q *JoinRequest) Check(int) (int, string) { return checkBackend("join", q.Backend) }

// Check is the rule server.Shell.Decode applies to a drain body.
func (q *DrainRequest) Check(int) (int, string) { return checkBackend("drain", q.Backend) }

func checkBackend(op, addr string) (int, string) {
	if addr == "" {
		return http.StatusBadRequest, op + ": backend address is required"
	}
	return 0, ""
}

// RebalanceResponse reports a committed join or drain.
type RebalanceResponse struct {
	Action      string   `json:"action"` // "join" or "drain"
	Backend     string   `json:"backend"`
	Backends    []string `json:"backends"` // committed ring membership
	Replication int      `json:"replication"`
	// Examined is the records the stream enumerated; Moved is how many
	// had a changed replica set; Copied is the copies written.
	Examined int `json:"examined"`
	Moved    int `json:"moved"`
	Copied   int `json:"copied"`
	// Cleaned counts stale copies deleted after a join's commit.
	Cleaned int `json:"cleaned,omitempty"`
	// Skipped lists backends that could not be enumerated (tolerated up
	// to replication-1 of them: every record still has a reachable
	// replica to stream from).
	Skipped []string `json:"skipped,omitempty"`
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if c.shell.Decode(w, r, &req) {
		c.moveRing(w, r, "join", req.Backend)
	}
}

func (c *Coordinator) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req DrainRequest
	if c.shell.Decode(w, r, &req) {
		c.moveRing(w, r, "drain", req.Backend)
	}
}

// moveRing is join and drain alike: one move from the committed ring to
// the same members plus (join) or minus (drain) addr. A joiner must
// first pass an admission probe.
func (c *Coordinator) moveRing(w http.ResponseWriter, r *http.Request, action, addr string) {
	if !c.rebalanceMu.TryLock() {
		server.WriteError(w, http.StatusConflict, CodeRebalanceBusy, action+": another membership change is in progress")
		return
	}
	defer c.rebalanceMu.Unlock()

	old, _ := c.rings()
	join := action == "join"
	members := slices.DeleteFunc(slices.Clone(old.Backends()), func(a string) bool { return a == addr })
	if member := len(members) < len(old.Backends()); join == member {
		where := map[bool]string{true: "already", false: "not"}[member]
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest,
			fmt.Sprintf("%s: backend %s is %s in the ring", action, addr, where))
		return
	}
	if join {
		members = append(members, addr)
	}
	target, err := NewRing(members, c.cfg.Replication)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest,
			fmt.Sprintf("%s: %d backends cannot hold replication %d", action, len(members), c.cfg.Replication))
		return
	}
	fleet := c.backendList()
	if join {
		nb := newBackend(addr)
		pctx, cancel := context.WithTimeout(r.Context(), c.cfg.FanoutTimeout)
		err = c.client.do(pctx, nb, "GET", "/healthz", nil, nil)
		cancel()
		if err != nil {
			server.WriteError(w, http.StatusBadGateway, CodeBackendDown,
				fmt.Sprintf("join: backend %s failed its admission probe: %v", addr, err))
			return
		}
		fleet = append(slices.Clone(fleet), nb)
	}

	// Publish the target: from here, writes use union placement and the
	// fleet (health, search fan-out) holds the backends of both rings.
	c.setMembers(old, target, fleet)
	c.metrics.rebalanceActive.Store(true)
	defer c.metrics.rebalanceActive.Store(false)

	st, err := c.streamRebalance(r.Context(), old, target)
	if err != nil {
		// Roll back to the old ring; a joiner leaves the fleet. Copies
		// already streamed are strays the sweep (or a retry) handles.
		c.setMembers(old, nil, fleet)
		c.metrics.rebalanceFailures.Add(1)
		server.WriteError(w, http.StatusBadGateway, CodeRebalanceFailed, fmt.Sprintf("%s %s: %v", action, addr, err))
		return
	}

	// Commit: a drained backend leaves the fleet with its copies —
	// rendezvous removal means the survivors already hold exactly the
	// target placement.
	c.setMembers(target, nil, fleet)
	if join {
		c.metrics.joins.Add(1)
	} else {
		c.metrics.drains.Add(1)
	}
	c.metrics.rebalanceMoved.Add(int64(st.moved))
	c.metrics.rebalanceCopied.Add(int64(st.copied))

	// Post-commit cleanup: each record a join moved left one copy behind
	// on the replica the joiner displaced. Best-effort — a failure
	// leaves a harmless stray for the sweep. A drain's strays are all on
	// the drained backend, which has left the fleet, so it cleans none.
	cleaned := 0
	for name, addrs := range st.cleanup {
		for _, stray := range addrs {
			b := c.lookup(stray)
			if b == nil {
				continue
			}
			cctx, cancel := context.WithTimeout(r.Context(), c.cfg.FanoutTimeout)
			err := c.client.do(cctx, b, "DELETE", "/v1/records/"+url.PathEscape(name), nil, nil)
			cancel()
			if err == nil || isNotFound(err) {
				cleaned++
			}
		}
	}
	c.logf("%s %s committed: %d/%d records moved, %d copies streamed, %d stale copies cleaned",
		action, addr, st.moved, st.examined, st.copied, cleaned)
	server.WriteJSON(w, http.StatusOK, RebalanceResponse{
		Action:      action,
		Backend:     addr,
		Backends:    target.Backends(),
		Replication: c.cfg.Replication,
		Examined:    st.examined,
		Moved:       st.moved,
		Copied:      st.copied,
		Cleaned:     cleaned,
		Skipped:     st.skipped,
	})
}

// setMembers is the one writer of the membership view: ring becomes the
// authoritative ring, next the migration target (nil outside a
// join/drain), and the fleet those backends of fleet, in fleet's order,
// that either ring names. A backend that leaves the fleet will never be
// replayed to, so its hints are dropped (counted).
func (c *Coordinator) setMembers(ring, next *Ring, fleet []*backend) {
	backends := make([]*backend, 0, len(fleet))
	byAddr := make(map[string]*backend, len(fleet))
	for _, b := range fleet {
		if slices.Contains(ring.Backends(), b.addr) || next != nil && slices.Contains(next.Backends(), b.addr) {
			backends = append(backends, b)
			byAddr[b.addr] = b
		}
	}
	c.mu.Lock()
	left := c.backends
	// Fresh slice and map: snapshots handed out under RLock keep
	// iterating the old ones.
	c.ring, c.next, c.backends, c.byAddr = ring, next, backends, byAddr
	c.mu.Unlock()
	for _, b := range left {
		if byAddr[b.addr] == nil {
			c.hints.dropBackend(b.addr)
		}
	}
}

// rebalanceStats is what one streaming pass accomplished.
type rebalanceStats struct {
	examined int
	moved    int
	copied   int
	skipped  []string
	// cleanup maps moved record names to the old-ring replicas their
	// move stranded, for the post-commit delete.
	cleanup map[string][]string
}

// streamRebalance copies every record whose replica set differs
// between old and target to its new replicas. Enumeration failures are
// tolerated up to replication-1 backends — each record has replication
// copies on the old ring, so that many unreachable backends still
// leave every record enumerable somewhere. Copy failures are fatal:
// a record that cannot reach its new home would break the invariant
// the commit is about to assert.
func (c *Coordinator) streamRebalance(ctx context.Context, old, target *Ring) (*rebalanceStats, error) {
	st := &rebalanceStats{cleanup: make(map[string][]string)}
	seen := make(map[string]struct{})
	pending := make(map[string][]server.ReplicaRecord) // destination -> buffered copies

	flush := func(addr string) error {
		recs := pending[addr]
		if len(recs) == 0 {
			return nil
		}
		b := c.lookup(addr)
		if b == nil {
			return fmt.Errorf("destination %s left the fleet mid-stream", addr)
		}
		cctx, cancel := context.WithTimeout(ctx, c.cfg.FanoutTimeout)
		err := c.client.do(cctx, b, "POST", "/v1/admin/replicate", &server.ReplicateRequest{Records: recs}, nil)
		cancel()
		if err != nil {
			return fmt.Errorf("streaming %d records to %s: %w", len(recs), addr, err)
		}
		st.copied += len(recs)
		pending[addr] = pending[addr][:0]
		return nil
	}

	for _, src := range old.Backends() {
		b := c.lookup(src)
		if b == nil {
			continue
		}
		var flushErr error
		err := c.enumerateBackend(ctx, b, func(rec server.ReplicaRecord) {
			if flushErr != nil {
				return
			}
			if _, dup := seen[rec.Name]; dup {
				return
			}
			seen[rec.Name] = struct{}{}
			st.examined++
			oldSet := old.Replicas(rec.Name)
			newSet := target.Replicas(rec.Name)
			movedHere := false
			for _, dst := range newSet {
				if !slices.Contains(oldSet, dst) {
					movedHere = true
					pending[dst] = append(pending[dst], rec)
					if len(pending[dst]) >= rebalanceBatch {
						flushErr = flush(dst)
					}
				}
			}
			if !movedHere {
				return
			}
			st.moved++
			for _, stray := range oldSet {
				if !slices.Contains(newSet, stray) {
					st.cleanup[rec.Name] = append(st.cleanup[rec.Name], stray)
				}
			}
		})
		if flushErr != nil {
			return st, flushErr
		}
		if err != nil {
			st.skipped = append(st.skipped, src)
			if len(st.skipped) >= old.Replication() {
				return st, fmt.Errorf("%d backends failed enumeration (replication %d — records may be invisible to the stream): last: %s: %v",
					len(st.skipped), old.Replication(), src, err)
			}
			c.logf("rebalance: enumeration of %s failed (%v); its records stream from their other replicas", src, err)
			continue
		}
	}
	for addr := range pending {
		if err := flush(addr); err != nil {
			return st, err
		}
	}
	return st, nil
}
