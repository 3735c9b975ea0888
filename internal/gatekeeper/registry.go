package gatekeeper

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"padico/internal/orb"
	"padico/internal/telemetry"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// Registry is one replica of the grid-wide service registry: each
// gatekeeper publishes its process's services to its zone's replica, and
// any process resolves a service to a hosting node by name — the lookup
// path that turns VLink's by-name connection into real cross-process
// discovery instead of static wiring.
//
// The registry is soft state in the MDS tradition: a publish carries a
// lease TTL and the entries silently fall out of Lookup when the lease
// expires un-renewed, so a crashed process — one that never got to
// withdraw — disappears from discovery on its own.
//
// The directory is hash-partitioned: entry names FNV-map into S shards
// (ShardOf), each owned by its own replica group, and one replica hosts
// whichever shards its groups assign it. An unsharded deployment is the
// S=1 special case — every record lives in shard 0 and nothing on the
// wire or in the maps differs from the pre-sharding registry.
//
// Each hosted shard keeps three views of its records in step (shardState):
// the records by publishing node, a (kind, name) index that chains the
// entries under a name in answer order, and a min-heap of lease deadlines.
// A named lookup — the one every by-name dial makes — is an index probe
// whose cost is the size of the answer, not of the directory; only a query
// that leaves kind or name open (reg-list, Attach, kind-only) walks the
// shard. Readers never write: an expired record is skipped under the
// shard's read lock, and the next write-locked operation on that shard pops
// it off the heap before doing its own work. There is no sweeper goroutine,
// so Sim and Wall behave identically.
//
// Locking: every shard has its own RWMutex over its data; Registry.mu
// guards only what is about the replica — peers, sessions, interval timers,
// flags. The set of hosted shards is published copy-on-write (hostedShards),
// so serving a request finds its shards without any Registry lock, and
// Registry.mu is never held while a shard lock is taken. Shard locks are
// taken one at a time: a lookup on one shard runs beside a publish or an
// anti-entropy merge on another, and a batch spanning shards is atomic per
// shard, not across them.
//
// Replicas reconcile per shard through periodic anti-entropy (StartSync /
// StartShardSync). The first exchange with a peer — and every exchange
// with a peer too old to answer digests — is a full push-pull snapshot
// merge, last-writer-wins on the record's version stamp. Once a peer has
// synced, rounds go incremental: the initiator sends a version digest
// (publishing node → freshest stamp), the responder answers with only the
// records it holds fresher plus the list it wants back, and the initiator
// pushes those — divergent records cross the wire, converged ones do not.
// A restarted replica starts from an empty peer table and therefore falls
// back to the full snapshot exchange automatically.
type Registry struct {
	rt  vtime.Runtime
	tr  orb.Transport
	lst orb.Acceptor
	tel atomic.Pointer[telemetry.Registry]

	lookups atomic.Int64                 // lookup/list operations served
	shards  atomic.Pointer[hostedShards] // replaced whole, under mu, when hosting changes

	mu        sync.Mutex
	nshards   int                    // grid-wide shard count (1 = unsharded)
	conns     map[orbStream]struct{} // open pooled sessions, torn down on Close
	intervals map[vtime.Waiter]vtime.Timer
	sessions  int64 // client sessions ever accepted
	looping   bool  // the anti-entropy loop actor is running
	closed    bool
}

// hostedShards is the set of shards a replica hosts. It is never changed
// once published: HostShards and StartShardSync, which run while a replica
// is being configured, publish a new one, so that whoever serves a request
// finds its shards without taking a lock or copying a list.
type hostedShards struct {
	byID map[int]*shardState
	all  []*shardState // sorted by id; shared, read-only
}

// peerState tracks anti-entropy with one peer replica of one shard group.
type peerState struct {
	st       orbStream  // pooled sync session; nil until dialed
	syncs    int64      // successful exchanges
	fails    int64      // failed attempts
	last     vtime.Time // instant of the last successful exchange
	synced   bool       // at least one exchange succeeded (full sync done)
	noDigest bool       // peer refused reg-digest (old daemon): full rounds only
}

// DefaultSyncInterval is the anti-entropy period deployments run replicas
// at: cross-zone visibility of a publish is bounded by one interval.
const DefaultSyncInterval = time.Second

// TombstoneTTL is how long a replica remembers a withdraw, so anti-entropy
// from a peer that has not yet seen it cannot resurrect the entries. It
// must outlast a sync interval; reusing the default lease TTL keeps the
// directory's staleness bounds uniform.
const TombstoneTTL = DefaultLeaseTTL

// StartRegistry binds the registry service on the transport and starts
// answering publish/withdraw/lookup/sync queries. The fresh replica hosts
// shard 0 of a single-shard directory until ServeShard/SetShards say
// otherwise.
func StartRegistry(rt vtime.Runtime, tr orb.Transport) (*Registry, error) {
	lst, err := tr.Listen(RegistryService)
	if err != nil {
		return nil, fmt.Errorf("gatekeeper: binding %s: %w", RegistryService, err)
	}
	r := &Registry{rt: rt, tr: tr, lst: lst, nshards: 1,
		conns: make(map[orbStream]struct{}), intervals: make(map[vtime.Waiter]vtime.Timer)}
	r.host(map[int]*shardState{0: newShardState(0)})
	rt.Go("registry:accept:"+tr.NodeName(), func() {
		for {
			st, err := lst.Accept()
			if err != nil {
				return
			}
			r.mu.Lock()
			if r.closed {
				r.mu.Unlock()
				st.Close()
				continue
			}
			r.sessions++
			r.conns[st] = struct{}{}
			r.mu.Unlock()
			rt.Go("registry:conn", func() { r.serve(st) })
		}
	})
	return r, nil
}

// UseTelemetry points the replica at a telemetry registry: served
// operations, sync rounds (latency, entries merged, tombstones) and session
// bytes start being recorded. Nil (the default) records nothing.
func (r *Registry) UseTelemetry(tel *telemetry.Registry) { r.tel.Store(tel) }

func (r *Registry) telemetry() *telemetry.Registry { return r.tel.Load() }

// SetShards declares the grid-wide shard count this replica is part of, so
// lookups without an explicit shard can be routed by name server-side and
// status reports know whether to break down per shard.
func (r *Registry) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	r.nshards = n
	r.mu.Unlock()
}

// HostShards declares exactly which shards this replica hosts, replacing
// the fresh registry's default shard-0 hosting. Shard states already held
// for retained ids survive; dropped shards lose their records — call this
// while configuring the replica, before it serves traffic or syncs.
func (r *Registry) HostShards(ids ...int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	next := make(map[int]*shardState, len(ids))
	for _, id := range ids {
		if sh := r.shard(id); sh != nil {
			next[id] = sh
		} else {
			next[id] = newShardState(id)
		}
	}
	r.host(next)
}

// host publishes a new set of hosted shards. Apart from the constructor,
// callers hold r.mu, so two changes cannot lose one another.
func (r *Registry) host(byID map[int]*shardState) {
	h := &hostedShards{byID: byID, all: make([]*shardState, 0, len(byID))}
	for _, sh := range byID {
		h.all = append(h.all, sh)
	}
	sort.Slice(h.all, func(i, j int) bool { return h.all[i].id < h.all[j].id })
	r.shards.Store(h)
}

// ShardIDs returns the shards this replica hosts, sorted.
func (r *Registry) ShardIDs() []int {
	all := r.hosted()
	ids := make([]int, len(all))
	for i, sh := range all {
		ids[i] = sh.id
	}
	return ids
}

// shard returns one hosted shard, nil when this replica does not host it.
func (r *Registry) shard(id int) *shardState { return r.shards.Load().byID[id] }

// hosted returns every hosted shard, sorted by id. The slice is shared:
// read it, do not change it.
func (r *Registry) hosted() []*shardState { return r.shards.Load().all }

// StartSync turns this registry into a replica of a single-shard
// deployment: shard 0's group is the given peer list, reconciled every
// interval. The pre-sharding entry point, kept as the S=1 path.
func (r *Registry) StartSync(peers []string, every time.Duration) {
	r.StartShardSync(0, peers, every)
}

// StartShardSync registers this replica as a member of one shard's group
// and starts (or joins) the anti-entropy loop: a single dedicated actor
// reconciles every hosted shard with its group's peers each interval.
// Unreachable or not-yet-started peers are retried next round. The loop
// stops when the registry closes.
func (r *Registry) StartShardSync(shard int, peers []string, every time.Duration) {
	if every <= 0 {
		every = DefaultSyncInterval
	}
	self := r.tr.NodeName()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	sh := r.shard(shard)
	if sh == nil {
		sh = newShardState(shard)
		next := map[int]*shardState{shard: sh}
		for _, held := range r.hosted() {
			next[held.id] = held
		}
		r.host(next)
	}
	for _, p := range peers {
		if p == self || p == "" {
			continue
		}
		if _, dup := sh.peers[p]; dup {
			continue
		}
		sh.peers[p] = &peerState{}
	}
	// One loop serves every hosted shard; starting it with no peers at all
	// would park an actor for nothing.
	start := !r.looping
	if start {
		n := 0
		for _, s := range r.hosted() {
			n += len(s.peers)
		}
		start = n > 0
	}
	if start {
		r.looping = true
	}
	r.mu.Unlock()
	if !start {
		return
	}
	r.rt.Go("registry:sync:"+self, func() {
		for {
			r.mu.Lock()
			closed := r.closed
			r.mu.Unlock()
			if closed {
				return
			}
			for _, t := range r.syncTargets() {
				r.syncWith(t.shard, t.peer)
			}
			if !r.waitInterval(every) {
				return
			}
		}
	})
}

// syncTarget is one (shard, peer) reconciliation the loop owes per round.
type syncTarget struct {
	shard int
	peer  string
}

// syncTargets lists every hosted shard's peers in deterministic order.
func (r *Registry) syncTargets() []syncTarget {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []syncTarget
	for _, sh := range r.hosted() {
		peers := make([]string, 0, len(sh.peers))
		for p := range sh.peers {
			peers = append(peers, p)
		}
		sort.Strings(peers)
		for _, p := range peers {
			out = append(out, syncTarget{shard: sh.id, peer: p})
		}
	}
	return out
}

// waitInterval parks the sync loop for one anti-entropy period and reports
// whether it should keep running. Close interrupts the wait immediately:
// under the wall clock an uninterruptible sleep would keep the loop's
// goroutine alive up to a full interval after the replica died — a real
// leak for long-lived daemons — and under Sim it would drag the virtual
// clock one needless interval past shutdown.
func (r *Registry) waitInterval(d time.Duration) bool {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	w := r.rt.NewWaiter("registry: sync interval " + r.tr.NodeName())
	t := r.rt.AfterFunc(d, w.Fire)
	r.intervals[w] = t
	r.mu.Unlock()
	_ = w.Wait()
	r.mu.Lock()
	delete(r.intervals, w)
	closed := r.closed
	r.mu.Unlock()
	t.Stop()
	return !closed
}

// SyncNow runs one synchronous anti-entropy round with every peer of every
// hosted shard — the clean-shutdown path for a replica host: a withdraw
// landing on the local replica moments before it closes must still reach
// the survivors, and the periodic loop (which only live replicas initiate)
// would never carry it.
func (r *Registry) SyncNow() {
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return
	}
	for _, t := range r.syncTargets() {
		r.syncWith(t.shard, t.peer)
	}
}

// syncExchange runs one framed request/response on a sync session under the
// control deadline.
func syncExchange(st orbStream, req *Request) (*Response, error) {
	defer ArmControlDeadline(st)()
	if err := WriteRequest(st, req); err != nil {
		return nil, err
	}
	return ReadResponse(st)
}

// syncWith runs one anti-entropy exchange for one shard with a peer on a
// pooled session, re-dialing once when the session broke since the last
// round. The first successful exchange with a peer is a full push-pull
// snapshot; after that, rounds open with a version digest and ship only
// divergent records. A peer that refuses digests (an old daemon) is
// remembered and gets full rounds forever. Failures only bump the peer's
// counter: the next round retries.
func (r *Registry) syncWith(shard int, peer string) {
	r.mu.Lock()
	sh := r.shard(shard)
	if sh == nil || r.closed {
		r.mu.Unlock()
		return
	}
	ps := sh.peers[peer]
	if ps == nil {
		r.mu.Unlock()
		return
	}
	st := ps.st
	full := !ps.synced || ps.noDigest
	r.mu.Unlock()

	tel := r.telemetry()
	if reach, ok := r.tr.(orb.Reachability); ok && !reach.CanReach(peer) {
		tel.Counter("reg.sync_failures").Inc()
		r.noteSync(shard, peer, nil, false)
		return
	}
	start := tel.Now()
	self := r.tr.NodeName()
	// One anti-entropy round is one trace: every frame of it (the opening
	// sync or digest AND the push that may follow) carries the same ID, so
	// batched rounds are visible to `events`/tracing like any other op. A
	// sampled root span additionally records the round's causal shape.
	sp := tel.StartSpan("reg.sync")
	sp.Annotate("peer", peer)
	sp.Annotate("shard", strconv.Itoa(shard))
	sp.Annotate("full", strconv.FormatBool(full))
	roundTrace, roundSpan := sp.Context().Trace, sp.Context().Span
	if roundTrace == "" {
		roundTrace = tel.NextTraceID()
	}
	defer sp.End()
	stamp := func(q *Request) *Request {
		q.TraceID, q.Span = roundTrace, roundSpan
		return q
	}
	fullReq := func() *Request {
		return stamp(&Request{Op: OpRegSync, From: self, Shard: shard, Sync: r.snapshotShard(shard)})
	}
	var req *Request
	if full {
		req = fullReq()
	} else {
		req = stamp(&Request{Op: OpRegDigest, From: self, Shard: shard, Digest: r.digestShard(shard)})
	}
	for attempt := 0; attempt < 2; attempt++ {
		if st == nil {
			var err error
			st, err = r.tr.Dial(peer, RegistryService)
			if err != nil {
				tel.Counter("reg.sync_failures").Inc()
				r.noteSync(shard, peer, nil, false)
				return
			}
		}
		resp, err := syncExchange(st, req)
		if err == nil && !resp.OK && !full {
			// The peer answered but refused the digest — an old daemon that
			// predates incremental sync. Remember it and replay this round
			// as a full push-pull on the same healthy session.
			r.mu.Lock()
			ps.noDigest = true
			r.mu.Unlock()
			full = true
			req = fullReq()
			resp, err = syncExchange(st, req)
		}
		if err == nil && resp.OK {
			r.mergeShard(shard, resp.Sync)
			if full {
				tel.Counter("reg.shard.full_rounds").Inc()
			} else {
				tel.Counter("reg.shard.records_recv").Add(int64(len(resp.Sync)))
				if len(resp.Want) > 0 {
					// The responder holds older copies of these records:
					// push ours back on the same session to finish the
					// round's reconciliation.
					push := r.snapshotNodes(shard, resp.Want)
					presp, perr := syncExchange(st, stamp(&Request{
						Op: OpRegPush, From: self, Shard: shard, Sync: push}))
					if perr != nil || !presp.OK {
						_ = st.Close()
						st = nil
						tel.Counter("reg.sync_failures").Inc()
						r.noteSync(shard, peer, nil, false)
						return
					}
					tel.Counter("reg.shard.records_sent").Add(int64(len(push)))
				}
				tel.Counter("reg.shard.digest_rounds").Inc()
				tel.Histogram("reg.shard.digest_round").Observe(tel.Since(start))
			}
			tel.Counter("reg.sync_rounds").Inc()
			tel.Histogram("reg.sync_round").Observe(tel.Since(start))
			r.noteSync(shard, peer, st, true)
			return
		}
		_ = st.Close()
		st = nil
	}
	tel.Counter("reg.sync_failures").Inc()
	r.noteSync(shard, peer, nil, false)
}

// noteSync records the outcome of one exchange and re-pools the session.
// The replaced session is closed outside the lock: closing a SAN-mapped
// stream sends a FIN, which blocks in virtual time, and r.mu must never be
// held across a park (an actor stuck on the mutex would freeze the clock).
func (r *Registry) noteSync(shard int, peer string, st orbStream, ok bool) {
	r.mu.Lock()
	var old orbStream
	sh := r.shard(shard)
	if sh != nil {
		if ps := sh.peers[peer]; ps != nil {
			if ps.st != nil && ps.st != st {
				old = ps.st
			}
			ps.st = st
			if r.closed {
				// Close ran under an in-flight exchange: don't re-pool a
				// session nothing will ever tear down again.
				ps.st = nil
				if st != nil {
					old = st
				}
			}
			if ok {
				ps.syncs++
				ps.last = r.rt.Now()
				ps.synced = true
			} else {
				ps.fails++
			}
		}
	}
	r.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
}

// syncRecordOf encodes one record for the wire: leases as remaining TTL
// (re-anchored on the receiver's clock), versions as stamps. Reports false
// for an expired record — never shipped.
func syncRecordOf(rec *record, now vtime.Time) (SyncRecord, bool) {
	if !rec.live(now) {
		return SyncRecord{}, false
	}
	return SyncRecord{
		Node:        rec.node,
		Entries:     rec.entries(),
		TTLMillis:   ttlMillis(rec.expires, now),
		StampMicros: rec.stampMicros(),
		Deleted:     rec.deleted,
	}, true
}

// snapshot captures shard 0 for a sync exchange — the S=1 compatibility
// accessor behind the original full push-pull protocol.
func (r *Registry) snapshot() []SyncRecord { return r.snapshotShard(0) }

// snapshotShard captures every unexpired record of one shard.
func (r *Registry) snapshotShard(shard int) []SyncRecord {
	now := r.rt.Now()
	sh := r.shard(shard)
	if sh == nil {
		return nil
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]SyncRecord, 0, len(sh.records))
	for _, rec := range sh.records {
		if sr, live := syncRecordOf(rec, now); live {
			out = append(out, sr)
		}
	}
	return out
}

// snapshotNodes captures the named records of one shard — the push half of
// a digest round, shipping exactly what the responder asked for.
func (r *Registry) snapshotNodes(shard int, nodes []string) []SyncRecord {
	now := r.rt.Now()
	sh := r.shard(shard)
	if sh == nil {
		return nil
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]SyncRecord, 0, len(nodes))
	for _, node := range nodes {
		rec := sh.records[node]
		if rec == nil {
			continue
		}
		if sr, live := syncRecordOf(rec, now); live {
			out = append(out, sr)
		}
	}
	return out
}

// digestShard captures one shard's version vector: publishing node →
// freshest stamp, expired records left out. Stamps alone carry the whole
// comparison — a tombstone is just a record whose latest stamp marks it
// deleted, so digests resurrect nothing.
func (r *Registry) digestShard(shard int) map[string]int64 {
	now := r.rt.Now()
	sh := r.shard(shard)
	if sh == nil {
		return nil
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make(map[string]int64, len(sh.records))
	for node, rec := range sh.records {
		if rec.live(now) {
			out[node] = rec.stampMicros()
		}
	}
	return out
}

// diffDigest answers a peer's digest for one shard: the records this
// replica holds fresher (shipped back), and the publishing nodes the peer
// holds fresher (wanted back).
func (r *Registry) diffDigest(shard int, digest map[string]int64) (fresher []SyncRecord, want []string) {
	now := r.rt.Now()
	sh := r.shard(shard)
	if sh == nil {
		return nil, nil
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for node, rec := range sh.records {
		if peerStamp, ok := digest[node]; !ok || rec.stampMicros() > peerStamp {
			if sr, live := syncRecordOf(rec, now); live {
				fresher = append(fresher, sr)
			}
		}
	}
	for node, peerStamp := range digest {
		if rec := sh.records[node]; rec == nil || !rec.live(now) || rec.stampMicros() < peerStamp {
			want = append(want, node)
		}
	}
	sort.Slice(fresher, func(i, j int) bool { return fresher[i].Node < fresher[j].Node })
	sort.Strings(want)
	return fresher, want
}

// merge folds a peer's snapshot into shard 0 — the S=1 compatibility
// accessor.
func (r *Registry) merge(recs []SyncRecord) { r.mergeShard(0, recs) }

// mergeShard folds a peer's records into one shard: freshest stamp wins
// per publishing node, already-expired records are dropped, and ties keep
// the local copy (deterministic under simultaneous renewals).
func (r *Registry) mergeShard(shard int, recs []SyncRecord) {
	al, hasAL := r.tr.(orb.AddrLearner)
	var accepted []SyncRecord
	var merged, tombstones int64
	now := r.rt.Now()
	sh := r.shard(shard)
	if sh == nil {
		return
	}
	sh.lock(now)
	for _, in := range recs {
		if in.Node == "" {
			continue
		}
		if in.Deleted && in.TTLMillis <= 0 {
			continue // an unleased tombstone would never be reaped
		}
		if in.TTLMillis < 0 {
			continue // already expired; zero means permanent, not expired
		}
		stamp := vtime.Time(in.StampMicros * int64(time.Microsecond))
		if loc := sh.records[in.Node]; loc != nil && stamp <= loc.stamp {
			continue // loc is live (lock reaped the rest), so its stamp counts
		}
		v := version{stamp: stamp, expires: leaseOf(in.TTLMillis, now), deleted: in.Deleted}
		if in.Deleted {
			sh.put(in.Node, nil, v)
		} else {
			sh.put(in.Node, in.Entries, v)
		}
		merged++
		if in.Deleted {
			tombstones++
		}
		if hasAL {
			accepted = append(accepted, in)
		}
	}
	sh.mu.Unlock()
	tel := r.telemetry()
	tel.Counter("reg.sync_merged").Add(merged)
	tel.Counter("reg.sync_tombstones").Add(tombstones)
	// On a wall transport, sync records teach the address book — a replica
	// seeded with no peer endpoints starts syncing outbound as soon as the
	// first inbound exchange names its peers' daemons. Only records that
	// WON the merge teach: a stale losing record must not clobber the
	// freshly learned endpoint of a daemon that just moved.
	if hasAL {
		for _, in := range accepted {
			for _, e := range in.Entries {
				if e.Addr != "" {
					al.LearnAddr(e.Node, e.Addr)
				}
			}
		}
	}
}

// Status reports this replica's replication state: live record and entry
// counts plus per-peer sync lag, aggregated across hosted shards, with a
// per-shard breakdown when the directory is actually sharded.
func (r *Registry) Status() RegStatus {
	now := r.rt.Now()
	st := RegStatus{Node: r.tr.NodeName()}
	// The replication bookkeeping first, under r.mu; the live records after,
	// one shard's read lock at a time — the two are never held together.
	r.mu.Lock()
	shards := r.hosted()
	sharded := r.nshards > 1 || len(shards) > 1 || (len(shards) == 1 && shards[0].id != 0)
	perShard := make([]ShardStatus, len(shards))
	type peerAgg struct {
		syncs, fails int64
		lag          int64
		synced       bool
	}
	aggPeers := map[string]*peerAgg{}
	for i, sh := range shards {
		ss := &perShard[i]
		ss.Shard = sh.id
		peers := make([]string, 0, len(sh.peers))
		for p := range sh.peers {
			peers = append(peers, p)
		}
		sort.Strings(peers)
		for _, p := range peers {
			ps := sh.peers[p]
			lag := int64(-1)
			if ps.synced {
				lag = int64(now.Sub(ps.last) / time.Millisecond)
			}
			ss.Peers = append(ss.Peers, PeerSyncStatus{
				Node: p, Syncs: ps.syncs, Fails: ps.fails, LagMillis: lag,
			})
			agg := aggPeers[p]
			if agg == nil {
				agg = &peerAgg{lag: -1}
				aggPeers[p] = agg
			}
			agg.syncs += ps.syncs
			agg.fails += ps.fails
			if ps.synced && (!agg.synced || lag < agg.lag) {
				agg.synced = true
				agg.lag = lag
			}
		}
	}
	r.mu.Unlock()
	aggNames := make([]string, 0, len(aggPeers))
	for p := range aggPeers {
		aggNames = append(aggNames, p)
	}
	sort.Strings(aggNames)
	for _, p := range aggNames {
		agg := aggPeers[p]
		st.Peers = append(st.Peers, PeerSyncStatus{
			Node: p, Syncs: agg.syncs, Fails: agg.fails, LagMillis: agg.lag,
		})
	}
	seenNodes := map[string]bool{}
	for i, sh := range shards {
		ss := &perShard[i]
		sh.mu.RLock()
		for node, rec := range sh.records {
			if rec.deleted || !rec.live(now) {
				continue
			}
			ss.Nodes++
			ss.Entries += len(rec.slots)
			if !seenNodes[node] {
				seenNodes[node] = true
				st.Nodes++
			}
			st.Entries += len(rec.slots)
		}
		sh.mu.RUnlock()
	}
	if sharded {
		st.Shards = perShard
	}
	return st
}

// Close stops the registry: the listener goes away, every pooled client
// session is torn down (clients fail over to a surviving replica), and the
// anti-entropy loop winds down.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	conns := make([]orbStream, 0, len(r.conns))
	for st := range r.conns {
		conns = append(conns, st)
	}
	for _, sh := range r.hosted() {
		for _, ps := range sh.peers {
			if ps.st != nil {
				conns = append(conns, ps.st)
				ps.st = nil
			}
		}
	}
	waits := make([]vtime.Waiter, 0, len(r.intervals))
	for w, t := range r.intervals {
		t.Stop()
		waits = append(waits, w)
	}
	r.mu.Unlock()
	// Wake sync loops parked on their interval so they exit now, not one
	// interval from now.
	for _, w := range waits {
		w.Fire()
	}
	// Stream closes may block in virtual time (SAN FIN): never under r.mu.
	_ = r.lst.Close()
	for _, st := range conns {
		_ = st.Close()
	}
}

// Sessions reports how many client sessions the registry has accepted —
// with pooled clients this stays at one per client process, however many
// operations flow.
func (r *Registry) Sessions() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sessions
}

// LookupsServed reports how many lookup/list operations the registry has
// answered; the client-side resolution cache keeps this far below the
// number of by-name dials.
func (r *Registry) LookupsServed() int64 { return r.lookups.Load() }

func (r *Registry) serve(st orbStream) {
	tel := r.telemetry()
	// Count protocol bytes without re-keying r.conns: the raw stream stays
	// the session's identity for Close.
	counted := telemetry.CountStream(st,
		tel.Counter("reg.bytes_in"), tel.Counter("reg.bytes_out"))
	defer func() {
		r.mu.Lock()
		delete(r.conns, st)
		r.mu.Unlock()
		st.Close()
	}()
	for {
		req, err := ReadRequest(counted)
		if err != nil {
			return
		}
		tel.Trace(req.TraceID, "reg.recv", "op="+req.Op)
		// Traced requests get a replica-side child span — which shard group
		// leg a flight hit, and how long the replica worked on it.
		sp := tel.StartSpanCtx(telemetry.SpanContext{Trace: req.TraceID, Span: req.Span}, "reg."+req.Op)
		sp.Annotate("shard", strconv.Itoa(req.Shard))
		resp := r.handle(req)
		sp.End()
		resp.TraceID = req.TraceID
		if err := WriteResponse(counted, resp); err != nil {
			return
		}
	}
}

// reqShard resolves the shard address of a write or sync request: it must
// name exactly one shard, hosted here. A client whose shard map says
// otherwise is talking to the wrong group and must hear so — and ShardAll,
// which only a lookup may fan out on, is no shard at all.
func (r *Registry) reqShard(shard int) (*shardState, *Response) {
	if sh := r.shard(shard); sh != nil {
		return sh, nil
	}
	return nil, &Response{Error: fmt.Sprintf(
		"replica %s does not host shard %d", r.tr.NodeName(), shard)}
}

// reqShards resolves a lookup's shard address: ShardAll means every hosted
// shard, anything else exactly one (see reqShard) — never silently empty
// results from a shard this replica does not have.
func (r *Registry) reqShards(shard int) ([]*shardState, *Response) {
	if shard == ShardAll {
		return r.hosted(), nil
	}
	sh, errResp := r.reqShard(shard)
	if errResp != nil {
		return nil, errResp
	}
	return []*shardState{sh}, nil
}

// leaseOf turns a request's TTL into a record's deadline.
func leaseOf(ttlMillis int64, now vtime.Time) vtime.Time {
	if ttlMillis <= 0 {
		return never
	}
	return now.Add(time.Duration(ttlMillis) * time.Millisecond)
}

func (r *Registry) handle(req *Request) *Response {
	r.telemetry().Counter("reg.ops." + req.Op).Inc()
	switch req.Op {
	case OpPing:
		return &Response{OK: true}
	case OpRegPublish:
		node := req.Node
		if node == "" && len(req.Entries) > 0 {
			node = req.Entries[0].Node
		}
		if node == "" {
			return &Response{Error: "publish without node"}
		}
		sh, errResp := r.reqShard(req.Shard)
		if errResp != nil {
			return errResp
		}
		now := r.rt.Now()
		v := version{stamp: now, expires: leaseOf(req.TTLMillis, now)}
		sh.lock(now)
		sh.put(node, req.Entries, v)
		sh.mu.Unlock()
		return &Response{OK: true}
	case OpRegAnnounceBatch:
		if req.Node == "" {
			return &Response{Error: "publish without node"}
		}
		// Every slice's shard must be hosted before any is written; the
		// writes themselves are atomic per shard.
		shards := make([]*shardState, len(req.Batch))
		for i, sp := range req.Batch {
			sh, errResp := r.reqShard(sp.Shard)
			if errResp != nil {
				return errResp
			}
			shards[i] = sh
		}
		now := r.rt.Now()
		v := version{stamp: now, expires: leaseOf(req.TTLMillis, now)}
		for i, sp := range req.Batch {
			sh := shards[i]
			sh.lock(now)
			sh.put(req.Node, sp.Entries, v)
			sh.mu.Unlock()
		}
		return &Response{OK: true}
	case OpRegRenewBatch:
		// Extend a publisher's leases in place — entries stay as announced,
		// only the deadline (and the version stamp, so the renewal
		// propagates to peers) moves. A shard with no live leased record
		// for the node is reported Missing: the publisher's full announce
		// re-establishes it.
		if req.Node == "" {
			return &Response{Error: "renew without node"}
		}
		if req.TTLMillis <= 0 {
			return &Response{Error: "renew without ttl"}
		}
		now := r.rt.Now()
		expires := leaseOf(req.TTLMillis, now)
		targets := req.Shards
		sums := req.Sums
		if len(sums) != len(targets) {
			sums = nil // unaligned or absent: no content check (old client)
		}
		if len(targets) == 0 {
			targets = r.ShardIDs()
		}
		var missing []int
		for i, id := range targets {
			sh := r.shard(id)
			if sh == nil {
				missing = append(missing, id)
				continue
			}
			sh.lock(now)
			rec := sh.records[req.Node]
			// A record whose sum is not the publisher's is not what it
			// leased — it diverged before this replica entered the rotation
			// (failover onto a peer the last announce never reached).
			// Extending the deadline would pin the stale content alive; make
			// the publisher re-announce instead.
			if rec == nil || rec.deleted || !rec.leased() || (sums != nil && rec.sum != sums[i]) {
				missing = append(missing, id)
			} else {
				sh.renew(rec, expires, now)
			}
			sh.mu.Unlock()
		}
		sort.Ints(missing)
		return &Response{OK: true, Missing: missing}
	case OpRegWithdraw:
		// A withdraw leaves a tombstone, not a bare delete: anti-entropy
		// from a replica that has not seen the withdraw yet must not
		// resurrect the entries. The tombstone itself is soft state and
		// falls out after TombstoneTTL. Every hosted shard is tombstoned —
		// the withdrawing node's entries may be spread across all of them.
		now := r.rt.Now()
		tomb := version{stamp: now, expires: now.Add(TombstoneTTL), deleted: true}
		for _, sh := range r.hosted() {
			sh.lock(now)
			sh.put(req.Node, nil, tomb)
			sh.mu.Unlock()
		}
		return &Response{OK: true}
	case OpRegLookup:
		shards, errResp := r.reqShards(req.Shard)
		if errResp != nil {
			return errResp
		}
		r.lookups.Add(1)
		return &Response{OK: true, Entries: r.lookupIn(shards, req.Kind, req.Name)}
	case OpRegList:
		r.lookups.Add(1)
		return &Response{OK: true, Entries: r.lookupIn(r.hosted(), "", "")}
	case OpRegSync:
		if _, errResp := r.reqShard(req.Shard); errResp != nil {
			return errResp
		}
		r.mergeShard(req.Shard, req.Sync)
		return &Response{OK: true, Sync: r.snapshotShard(req.Shard)}
	case OpRegDigest:
		if _, errResp := r.reqShard(req.Shard); errResp != nil {
			return errResp
		}
		fresher, want := r.diffDigest(req.Shard, req.Digest)
		r.telemetry().Counter("reg.shard.records_sent").Add(int64(len(fresher)))
		return &Response{OK: true, Sync: fresher, Want: want}
	case OpRegPush:
		if _, errResp := r.reqShard(req.Shard); errResp != nil {
			return errResp
		}
		r.mergeShard(req.Shard, req.Sync)
		r.telemetry().Counter("reg.shard.records_recv").Add(int64(len(req.Sync)))
		return &Response{OK: true}
	case OpRegStatus:
		st := r.Status()
		return &Response{OK: true, Status: &st}
	default:
		return &Response{Error: fmt.Sprintf("unknown registry operation %q", req.Op)}
	}
}

// Lookup returns the published, unexpired entries matching the filters
// across every hosted shard; empty kind or name matches everything.
// Results are ordered by node, kind, name, and carry the lease time
// remaining.
func (r *Registry) Lookup(kind, name string) []Entry {
	return r.lookupIn(r.hosted(), kind, name)
}

// lookupIn answers from the given shards, each under its own read lock. A
// named lookup of one shard comes out of the index already in order; an
// answer merged across shards, or walked, is sorted here.
func (r *Registry) lookupIn(shards []*shardState, kind, name string) []Entry {
	now := r.rt.Now()
	var out []Entry
	for _, sh := range shards {
		out = sh.lookup(out, kind, name, now)
	}
	if named := kind != "" && name != ""; !named || len(shards) > 1 {
		sortEntries(out)
	}
	return out
}

// sortEntries orders lookup results by node, kind, name — the registry's
// canonical, deterministic answer order, shared by replicas and by clients
// merging cross-shard results.
func sortEntries(out []Entry) {
	if len(out) < 2 {
		return
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
}

// RegistryClient talks to the grid-wide registry from one process. Each
// replica group gets a single pooled session to one of its replicas: the
// framed stream is dialed once, reused for every operation, re-dialed
// transparently when it breaks, and failed over to the next reachable
// replica of the group when its host dies or partitions away (per-shard
// sticky failover). Operations route by shard — ShardOf on the entry name
// — so a by-name lookup costs one round-trip to one group however many
// shards the directory runs, and a renewal burst costs one batched frame
// per group. Resolve results are additionally cached for a short TTL, so
// the hot by-name dial path usually skips the registry round-trip
// entirely. An unsharded client (NewRegistryClient) is the S=1 special
// case: one group, one session, wire frames identical to the pre-sharding
// protocol.
type RegistryClient struct {
	rt vtime.Runtime
	tr orb.Transport

	groups   [][]string    // distinct replica groups, each a preference order
	shardGrp []int         // shard → index into groups; len is the shard count
	sess     []*regSession // one pooled session per distinct group

	tel atomic.Pointer[telemetry.Registry]

	// renewOff flips when a replica refuses reg-renew-batch (old daemon):
	// renewals fall back to full announces permanently, today's behavior.
	renewOff atomic.Bool

	mu       sync.Mutex
	cacheTTL time.Duration
	cache    map[cacheKey]cachedEntry
	// sums fingerprints (EntriesSum) the per-shard entry sets of the last
	// PublishTTL through this client, indexed by shard; nil until the first
	// publish. Renewals send them so a replica holding a diverged copy —
	// one the announce never reached before failover — refuses the
	// deadline bump and forces a re-announce.
	sums []uint32
}

// regSession is one replica group's pooled session state.
type regSession struct {
	replicas []string
	// sem serializes exchanges on the pooled stream. It is a virtual-time
	// semaphore, not a mutex: an exchange blocks in network I/O, and under
	// Sim a plain mutex held across a parked actor would stall the clock.
	sem *vtime.Semaphore
	cur int       // replica the pooled session points at (sticky)
	st  orbStream // pooled session to replicas[cur]; nil until the first exchange
}

type cacheKey struct{ kind, name string }

// cachedEntry holds the ordered dialable candidates of one resolution.
type cachedEntry struct {
	list    []Entry
	expires vtime.Time
}

// DefaultResolveCacheTTL bounds how long a cached resolution may serve
// dials before the registry is consulted again.
const DefaultResolveCacheTTL = time.Second

// NewRegistryClient returns a pooled client dialing the registry replicas
// hosted on the given nodes through the given transport, scheduling on rt.
// The list is a preference order: operations stick to the first replica
// that answers (deployments put the caller's zone-local replica first) and
// fail over down the list when it dies or partitions away. This is the
// unsharded (S=1) client; NewShardedRegistryClient routes a partitioned
// directory.
func NewRegistryClient(rt vtime.Runtime, tr orb.Transport, replicas ...string) *RegistryClient {
	return NewShardedRegistryClient(rt, tr, [][]string{replicas})
}

// NewShardedRegistryClient returns a pooled client for a hash-partitioned
// registry: groups[s] lists, in preference order, the replicas owning
// shard s. Groups shared by several shards (the common case when zones
// outnumber shards or vice versa) share one pooled session, so failover
// stickiness is per group, not per shard.
func NewShardedRegistryClient(rt vtime.Runtime, tr orb.Transport, groups [][]string) *RegistryClient {
	if len(groups) == 0 {
		groups = [][]string{nil}
	}
	c := &RegistryClient{
		rt:       rt,
		tr:       tr,
		shardGrp: make([]int, len(groups)),
		cacheTTL: DefaultResolveCacheTTL,
		cache:    make(map[cacheKey]cachedEntry),
	}
	seen := map[string]int{}
	for s, g := range groups {
		sig := strings.Join(g, "\x00")
		gi, ok := seen[sig]
		if !ok {
			gi = len(c.groups)
			seen[sig] = gi
			c.groups = append(c.groups, append([]string(nil), g...))
			c.sess = append(c.sess, &regSession{
				replicas: append([]string(nil), g...),
				sem: vtime.NewSemaphore(rt,
					fmt.Sprintf("gatekeeper: registry session %s#%d", tr.NodeName(), gi), 1),
			})
		}
		c.shardGrp[s] = gi
	}
	return c
}

// UseTelemetry points the client at a telemetry registry: resolution-cache
// hits/misses and replica failovers start being counted. Nil (the default)
// records nothing.
func (c *RegistryClient) UseTelemetry(tel *telemetry.Registry) { c.tel.Store(tel) }

func (c *RegistryClient) telemetry() *telemetry.Registry { return c.tel.Load() }

// ShardCount returns the number of shards this client routes across (1 for
// an unsharded client).
func (c *RegistryClient) ShardCount() int { return len(c.shardGrp) }

// Groups returns the shard → replica-group map this client routes with, in
// each group's preference order.
func (c *RegistryClient) Groups() [][]string {
	out := make([][]string, len(c.shardGrp))
	for s, gi := range c.shardGrp {
		out[s] = append([]string(nil), c.groups[gi]...)
	}
	return out
}

// Replicas returns every configured replica in preference order, distinct
// groups concatenated (first-seen order, duplicates dropped).
func (c *RegistryClient) Replicas() []string {
	var out []string
	seen := map[string]bool{}
	for _, g := range c.groups {
		for _, n := range g {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// RegistryNode returns the replica shard 0's pooled session currently
// prefers.
func (c *RegistryClient) RegistryNode() string {
	s := c.sess[c.shardGrp[0]]
	if len(s.replicas) == 0 {
		return ""
	}
	if err := s.sem.Acquire(); err != nil {
		return ""
	}
	defer s.sem.Release()
	return s.replicas[s.cur]
}

// SetCacheTTL adjusts the resolution-cache lifetime; zero or negative
// disables caching. Existing cached resolutions are dropped.
func (c *RegistryClient) SetCacheTTL(d time.Duration) {
	c.mu.Lock()
	c.cacheTTL = d
	c.cache = make(map[cacheKey]cachedEntry)
	c.mu.Unlock()
}

// Close tears the pooled sessions down. A later operation re-dials.
func (c *RegistryClient) Close() {
	for _, s := range c.sess {
		if err := s.sem.Acquire(); err != nil {
			continue
		}
		if s.st != nil {
			_ = s.st.Close()
			s.st = nil
		}
		s.sem.Release()
	}
}

// sessionFor returns the pooled session owning a shard.
func (c *RegistryClient) sessionFor(shard int) *regSession {
	if shard < 0 || shard >= len(c.shardGrp) {
		shard = 0
	}
	return c.sess[c.shardGrp[shard]]
}

// shardFieldFor returns the Shard value a request addressed to the given
// shard should carry: the shard id when the directory is partitioned, and
// zero — omitted on the wire — for the S=1 client, whose frames must stay
// byte-identical to the pre-sharding protocol.
func (c *RegistryClient) shardFieldFor(shard int) int {
	if len(c.shardGrp) <= 1 {
		return 0
	}
	return shard
}

// do performs one request/response exchange on one shard's session: on the
// pooled session when it is healthy, re-dialing once when it broke since
// the last exchange, and failing over down the group's replica list when
// the current replica's host is dead or unreachable. A replica that
// answers — even with an application error — ends the scan: refusals are
// answers, not failures.
func (c *RegistryClient) do(ctx telemetry.SpanContext, shard int, req *Request) (*Response, error) {
	resps, err := c.doGroup(ctx, c.sessionFor(shard), []*Request{req})
	if err != nil {
		return nil, err
	}
	return resps[0], resps[0].Err()
}

// doGroup performs a batch of exchanges as one pipelined flight on a
// group's pooled session (see do for session and failover semantics — the
// batch fails over and retries as a unit within its group, which is safe
// for the registry's idempotent, last-writer-wins operations).
//
// doGroup is the single chokepoint of client registry traffic, so tracing
// lives here: every request without an ID gets the flight's shared trace ID
// (batched announce/renew/lookup frames used to leave untraced), and a
// caller span in ctx hangs a per-flight child span annotated with the
// replica that answered and any failover the flight took.
func (c *RegistryClient) doGroup(ctx telemetry.SpanContext, s *regSession, reqs []*Request) ([]*Response, error) {
	tel := c.telemetry()
	sp := tel.StartSpanCtx(ctx, "regc.flight")
	defer sp.End()
	trace, span := ctx.Trace, ""
	if sc := sp.Context(); sc.Valid() {
		trace, span = sc.Trace, sc.Span
	}
	if trace == "" {
		trace = tel.NextTraceID()
	}
	for _, q := range reqs {
		if q.TraceID == "" {
			q.TraceID, q.Span = trace, span
		}
	}
	sp.Annotate("ops", strconv.Itoa(len(reqs)))
	if err := s.sem.Acquire(); err != nil {
		return nil, err
	}
	defer s.sem.Release()
	if len(s.replicas) == 0 {
		return nil, fmt.Errorf("gatekeeper: no registry replicas configured on %s", c.tr.NodeName())
	}
	reach, hasReach := c.tr.(orb.Reachability)
	var errs []error
	tryOrder := make([]int, 0, len(s.replicas))
	tryOrder = append(tryOrder, s.cur)
	for i := range s.replicas {
		if i != s.cur {
			tryOrder = append(tryOrder, i)
		}
	}
	for pos, i := range tryOrder {
		node := s.replicas[i]
		// Check reachability before dialing: an unknown or partitioned
		// replica host must be skipped here, not fall into the transport's
		// resolver fallback — this client may BE that resolver, and
		// resolving through itself would re-enter the session semaphore it
		// is holding.
		if hasReach && !reach.CanReach(node) {
			errs = append(errs, fmt.Errorf("replica %s unreachable from %s", node, c.tr.NodeName()))
			continue
		}
		resps, err := c.exchangeAll(s, i, reqs)
		if err == nil {
			sp.Annotate("replica", node)
			if pos > 0 {
				// The sticky replica was unusable and a later one answered.
				c.telemetry().Counter("regc.failovers").Inc()
				sp.Annotate("failovers", strconv.Itoa(pos))
			}
			return resps, nil
		}
		errs = append(errs, fmt.Errorf("replica %s: %w", node, err))
	}
	return nil, fmt.Errorf("gatekeeper: no usable registry replica from %s: %w",
		c.tr.NodeName(), errors.Join(errs...))
}

// exchangeAll runs a batch of request/responses on a group's replica i —
// all writes, then all reads, so the batch costs one round-trip —
// re-dialing once if the pooled session broke since the last exchange
// (registry restarted, stream torn down). On success the session stays
// pinned to i.
func (c *RegistryClient) exchangeAll(s *regSession, i int, reqs []*Request) ([]*Response, error) {
	if i != s.cur && s.st != nil {
		_ = s.st.Close()
		s.st = nil
	}
	s.cur = i
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if s.st == nil {
			st, err := c.tr.Dial(s.replicas[i], RegistryService)
			if err != nil {
				return nil, err
			}
			s.st = st
		}
		disarm := ArmControlDeadline(s.st)
		resps, err := Pipeline(s.st, reqs)
		if err == nil {
			disarm()
			return resps, nil
		}
		lastErr = err
		// Broken session: drop it and retry once on a fresh dial. The whole
		// batch replays — at-least-once, like the single-exchange retry
		// before it, and safe against the registry's idempotent ops.
		_ = s.st.Close()
		s.st = nil
	}
	return nil, lastErr
}

// exchangeWith is a one-shot exchange pinned to a specific replica,
// outside the pooled sessions — the operator path behind per-replica
// status and lookup, where failover would defeat the point. Like doGroup,
// it stamps un-traced requests and hangs a child span off a caller span.
func (c *RegistryClient) exchangeWith(ctx telemetry.SpanContext, node string, req *Request) (*Response, error) {
	tel := c.telemetry()
	sp := tel.StartSpanCtx(ctx, "regc.replica")
	sp.Annotate("replica", node)
	defer sp.End()
	if req.TraceID == "" {
		if sc := sp.Context(); sc.Valid() {
			req.TraceID, req.Span = sc.Trace, sc.Span
		} else if id := tel.NextTraceID(); id != "" {
			req.TraceID = id
		}
	}
	if reach, ok := c.tr.(orb.Reachability); ok && !reach.CanReach(node) {
		return nil, fmt.Errorf("gatekeeper: replica %s unreachable from %s", node, c.tr.NodeName())
	}
	st, err := c.tr.Dial(node, RegistryService)
	if err != nil {
		return nil, fmt.Errorf("gatekeeper: dialing replica %s: %w", node, err)
	}
	defer st.Close()
	defer ArmControlDeadline(st)()
	if err := WriteRequest(st, req); err != nil {
		return nil, fmt.Errorf("gatekeeper: to replica %s: %w", node, err)
	}
	resp, err := ReadResponse(st)
	if err != nil {
		return nil, fmt.Errorf("gatekeeper: from replica %s: %w", node, err)
	}
	return resp, resp.Err()
}

// StatusOf fetches one replica's replication status (live entry counts,
// per-peer and per-shard sync lag). It never fails over: the named replica
// answers or the error says why.
func (c *RegistryClient) StatusOf(node string) (*RegStatus, error) {
	resp, err := c.exchangeWith(telemetry.SpanContext{}, node, &Request{Op: OpRegStatus})
	if err != nil {
		return nil, err
	}
	if resp.Status == nil {
		return nil, fmt.Errorf("gatekeeper: replica %s returned no status", node)
	}
	return resp.Status, nil
}

// LookupAt queries one specific replica's view, without failover — the
// operator path for comparing replicas' replication state. Against a
// sharded replica it searches every shard the replica hosts.
func (c *RegistryClient) LookupAt(node, kind, name string) ([]Entry, error) {
	return c.LookupAtCtx(telemetry.SpanContext{}, node, kind, name)
}

// LookupAtCtx is LookupAt under a caller's span — each per-replica probe of
// a traced operation shows up as its own leg.
func (c *RegistryClient) LookupAtCtx(ctx telemetry.SpanContext, node, kind, name string) ([]Entry, error) {
	req := &Request{Op: OpRegLookup, Kind: kind, Name: name}
	if len(c.shardGrp) > 1 {
		req.Shard = ShardAll
	}
	resp, err := c.exchangeWith(ctx, node, req)
	if err != nil {
		return nil, err
	}
	c.learnAddrs(resp.Entries)
	return resp.Entries, nil
}

// learnAddrs feeds endpoint advertisements carried by registry entries into
// the transport's address book, when it keeps one (wall transports). This
// is how an attached controller — or any daemon — becomes able to dial
// nodes it has never been configured with: the registry itself is the
// address distribution channel.
func (c *RegistryClient) learnAddrs(entries []Entry) {
	al, ok := c.tr.(orb.AddrLearner)
	if !ok {
		return
	}
	for _, e := range entries {
		if e.Addr != "" {
			al.LearnAddr(e.Node, e.Addr)
		}
	}
}

// Publish replaces the registry's entries for node with the given set,
// without a lease (the entries stay until withdrawn).
func (c *RegistryClient) Publish(node string, entries []Entry) error {
	return c.PublishTTL(node, entries, 0)
}

// PublishTTL replaces the registry's entries for node under a soft-state
// lease: they expire ttl after the registry accepts them unless
// re-published. Non-positive ttl means no lease. On a sharded directory
// the entries split by name hash and every replica group receives its
// shards' slices in one announce-batch frame — including empty slices,
// which clear entries that churned out of a shard. The publish lands on
// each group's preferred replica and reaches the rest within one sync
// interval.
func (c *RegistryClient) PublishTTL(node string, entries []Entry, ttl time.Duration) error {
	return c.PublishTTLCtx(telemetry.SpanContext{}, node, entries, ttl)
}

// PublishTTLCtx is PublishTTL under a caller's span: each replica group's
// announce-batch flight becomes a child leg of the caller's trace.
func (c *RegistryClient) PublishTTLCtx(ctx telemetry.SpanContext, node string, entries []Entry, ttl time.Duration) error {
	defer c.invalidate()
	var ttlMillis int64
	if ttl > 0 {
		ttlMillis = int64(ttl / time.Millisecond)
		if ttlMillis <= 0 {
			ttlMillis = 1 // sub-millisecond leases still lease
		}
	}
	if len(c.shardGrp) <= 1 {
		// Unsharded: the original single publish, frame-identical to the
		// pre-sharding client.
		c.storeSums([][]Entry{entries})
		_, err := c.do(ctx, 0, &Request{Op: OpRegPublish, Node: node, Entries: entries, TTLMillis: ttlMillis})
		return err
	}
	byShard := make([][]Entry, len(c.shardGrp))
	for _, e := range entries {
		s := ShardOf(e.Name, len(c.shardGrp))
		byShard[s] = append(byShard[s], e)
	}
	c.storeSums(byShard)
	var errs []error
	for gi, s := range c.sess {
		var batch []ShardPublish
		for shard, g := range c.shardGrp {
			if g == gi {
				batch = append(batch, ShardPublish{Shard: shard, Entries: byShard[shard]})
			}
		}
		req := &Request{Op: OpRegAnnounceBatch, Node: node, TTLMillis: ttlMillis, Batch: batch}
		resps, err := c.doGroup(ctx, s, []*Request{req})
		if err == nil {
			err = resps[0].Err()
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) == 0 {
		c.telemetry().Counter("regc.announce_batches").Inc()
	}
	return errors.Join(errs...)
}

// PublishShardTTL replaces one shard's slice of node's entries with a
// plain per-shard publish — the frame a batch-unaware client must send
// once per shard to replace its full entry set. It exists for operator
// tooling that patches a single shard, and as the unbatched baseline of
// the registry-load benchmark; PublishTTL lands the same update in one
// announce-batch frame per replica group.
func (c *RegistryClient) PublishShardTTL(node string, shard int, entries []Entry, ttl time.Duration) error {
	defer c.invalidate()
	var ttlMillis int64
	if ttl > 0 {
		ttlMillis = int64(ttl / time.Millisecond)
		if ttlMillis <= 0 {
			ttlMillis = 1
		}
	}
	_, err := c.do(telemetry.SpanContext{}, shard, &Request{Op: OpRegPublish, Node: node,
		Shard: c.shardFieldFor(shard), Entries: entries, TTLMillis: ttlMillis})
	if err == nil {
		// Keep the renewal fingerprint of the patched shard honest, so a
		// later RenewLease asserts against what this publish installed.
		c.mu.Lock()
		if shard >= 0 && shard < len(c.sums) {
			c.sums[shard] = EntriesSum(entries)
		}
		c.mu.Unlock()
	}
	return err
}

// storeSums remembers the per-shard entry-set fingerprints of an announce,
// for later renewals to assert against.
func (c *RegistryClient) storeSums(byShard [][]Entry) {
	sums := make([]uint32, len(byShard))
	for s, entries := range byShard {
		sums[s] = EntriesSum(entries)
	}
	c.mu.Lock()
	c.sums = sums
	c.mu.Unlock()
}

// errRenewUnsupported marks a registry too old for reg-renew-batch; the
// caller falls back to full announces, and the client remembers so later
// renewals skip the doomed round-trip.
var errRenewUnsupported = errors.New("gatekeeper: registry does not support lease renewal")

// RenewLease extends node's published leases to ttl from now without
// resending the entries — one batched frame per replica group instead of a
// full announce. It fails (and the caller must fall back to Announce) when
// any group reports the lease missing there — the record expired or was
// never established — or when a replica predates the operation.
func (c *RegistryClient) RenewLease(node string, ttl time.Duration) error {
	return c.RenewLeaseCtx(telemetry.SpanContext{}, node, ttl)
}

// RenewLeaseCtx is RenewLease under a caller's span — traced renewals show
// their per-group renew-batch flights.
func (c *RegistryClient) RenewLeaseCtx(ctx telemetry.SpanContext, node string, ttl time.Duration) error {
	if ttl <= 0 {
		return fmt.Errorf("gatekeeper: non-positive lease TTL %v", ttl)
	}
	if c.renewOff.Load() {
		return errRenewUnsupported
	}
	ttlMillis := int64(ttl / time.Millisecond)
	if ttlMillis <= 0 {
		ttlMillis = 1
	}
	c.mu.Lock()
	sums := c.sums
	c.mu.Unlock()
	var missing []int
	for gi, s := range c.sess {
		var shards []int
		var shardSums []uint32
		for shard, g := range c.shardGrp {
			if g == gi {
				shards = append(shards, shard)
				if sums != nil {
					shardSums = append(shardSums, sums[shard])
				}
			}
		}
		req := &Request{Op: OpRegRenewBatch, Node: node, TTLMillis: ttlMillis,
			Shards: shards, Sums: shardSums}
		resps, err := c.doGroup(ctx, s, []*Request{req})
		if err != nil {
			return err
		}
		if err := resps[0].Err(); err != nil {
			if strings.Contains(resps[0].Error, "unknown registry operation") {
				c.renewOff.Store(true)
				return errRenewUnsupported
			}
			return err
		}
		missing = append(missing, resps[0].Missing...)
	}
	if len(missing) > 0 {
		return fmt.Errorf("gatekeeper: lease for %s missing in shards %v", node, missing)
	}
	c.telemetry().Counter("regc.renew_batches").Inc()
	return nil
}

// Withdraw drops every entry published by node, in every shard. The
// tombstones left behind propagate within each shard's replica group
// within one sync interval.
func (c *RegistryClient) Withdraw(node string) error {
	defer c.invalidate()
	var errs []error
	for _, s := range c.sess {
		resps, err := c.doGroup(telemetry.SpanContext{}, s, []*Request{{Op: OpRegWithdraw, Node: node}})
		if err == nil {
			err = resps[0].Err()
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// invalidate drops the resolution cache after a mutation through this
// client, so its own writes are immediately visible to its reads.
func (c *RegistryClient) invalidate() {
	c.mu.Lock()
	c.cache = make(map[cacheKey]cachedEntry)
	c.mu.Unlock()
}

// Lookup queries the registry; empty kind or name matches everything. A
// named lookup routes to the owning shard's group — one round-trip
// regardless of shard count; an unnamed one fans out to every group (its
// owned shards pipelined on one flight) and merges. Lookups always hit the
// registry — only Resolve results are cached.
func (c *RegistryClient) Lookup(kind, name string) ([]Entry, error) {
	return c.LookupCtx(telemetry.SpanContext{}, kind, name)
}

// LookupCtx is Lookup under a caller's span — the shard-routed (or fanned)
// flights become child legs of the caller's trace.
func (c *RegistryClient) LookupCtx(ctx telemetry.SpanContext, kind, name string) ([]Entry, error) {
	if name != "" || len(c.shardGrp) <= 1 {
		shard := ShardOf(name, len(c.shardGrp))
		resp, err := c.do(ctx, shard, &Request{
			Op: OpRegLookup, Kind: kind, Name: name, Shard: c.shardFieldFor(shard)})
		if err != nil {
			return nil, err
		}
		c.learnAddrs(resp.Entries)
		return resp.Entries, nil
	}
	var out []Entry
	for gi, s := range c.sess {
		var reqs []*Request
		for shard, g := range c.shardGrp {
			if g == gi {
				reqs = append(reqs, &Request{Op: OpRegLookup, Kind: kind, Name: name, Shard: shard})
			}
		}
		resps, err := c.doGroup(ctx, s, reqs)
		if err != nil {
			return nil, err
		}
		for _, resp := range resps {
			if err := resp.Err(); err != nil {
				return nil, err
			}
			c.learnAddrs(resp.Entries)
			out = append(out, resp.Entries...)
		}
	}
	// Shards partition by name, so the concatenation has no duplicates —
	// it just needs the registry's canonical order restored.
	sortEntries(out)
	return out, nil
}

// LookupQuery names one lookup in a LookupBatch.
type LookupQuery struct {
	Kind string
	Name string
}

// LookupBatch answers several lookups with one pipelined flight per
// involved replica group: each query routes to its name's shard (unnamed
// queries fan out to every shard) and the per-group batches ride single
// round-trips. Failover is per group — one dead replica fails over inside
// its group without touching the other groups' flights. Results are
// positional — out[i] answers queries[i].
func (c *RegistryClient) LookupBatch(queries []LookupQuery) ([][]Entry, error) {
	return c.LookupBatchCtx(telemetry.SpanContext{}, queries)
}

// LookupBatchCtx is LookupBatch under a caller's span.
func (c *RegistryClient) LookupBatchCtx(ctx telemetry.SpanContext, queries []LookupQuery) ([][]Entry, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	perReqs := make([][]*Request, len(c.sess))
	perQIdx := make([][]int, len(c.sess))
	for qi, q := range queries {
		if q.Name != "" || len(c.shardGrp) <= 1 {
			shard := ShardOf(q.Name, len(c.shardGrp))
			gi := c.shardGrp[shard]
			perReqs[gi] = append(perReqs[gi], &Request{
				Op: OpRegLookup, Kind: q.Kind, Name: q.Name, Shard: c.shardFieldFor(shard)})
			perQIdx[gi] = append(perQIdx[gi], qi)
			continue
		}
		for shard, gi := range c.shardGrp {
			perReqs[gi] = append(perReqs[gi], &Request{
				Op: OpRegLookup, Kind: q.Kind, Name: q.Name, Shard: shard})
			perQIdx[gi] = append(perQIdx[gi], qi)
		}
	}
	out := make([][]Entry, len(queries))
	for gi, s := range c.sess {
		if len(perReqs[gi]) == 0 {
			continue
		}
		resps, err := c.doGroup(ctx, s, perReqs[gi])
		if err != nil {
			return nil, err
		}
		for k, resp := range resps {
			qi := perQIdx[gi][k]
			if err := resp.Err(); err != nil {
				return nil, fmt.Errorf("lookup %s/%s: %w", queries[qi].Kind, queries[qi].Name, err)
			}
			c.learnAddrs(resp.Entries)
			out[qi] = append(out[qi], resp.Entries...)
		}
	}
	if len(c.shardGrp) > 1 {
		// Cross-shard merges concatenated disjoint slices; restore the
		// registry's canonical node/kind/name order per query.
		for qi := range out {
			sortEntries(out[qi])
		}
	}
	return out, nil
}

// Resolve returns the best dialable entry for a published service name:
// among the matches it prefers, deterministically, an entry whose node the
// caller's transport can reach (shares a fabric with), falling back to the
// first dialable entry in the registry's node/kind/name order. The
// candidate list is cached for the client's cache TTL.
func (c *RegistryClient) Resolve(kind, name string) (Entry, error) {
	return c.ResolveCtx(telemetry.SpanContext{}, kind, name)
}

// ResolveCtx is Resolve under a caller's span — a traced by-name resolve
// shows whether it was served from cache or crossed the wire, and to which
// replica.
func (c *RegistryClient) ResolveCtx(ctx telemetry.SpanContext, kind, name string) (Entry, error) {
	list, err := c.candidates(ctx, kind, name)
	if err != nil {
		return Entry{}, err
	}
	return list[0], nil
}

// candidates returns the dialable entries for (kind, name) in preference
// order — reachable nodes first, registry order within each class — from
// the cache when fresh.
func (c *RegistryClient) candidates(ctx telemetry.SpanContext, kind, name string) ([]Entry, error) {
	if list, ok := c.cachedList(kind, name); ok {
		c.telemetry().Counter("regc.cache_hits").Inc()
		return list, nil
	}
	c.telemetry().Counter("regc.cache_misses").Inc()
	entries, err := c.LookupCtx(ctx, kind, name)
	if err != nil {
		return nil, err
	}
	list := c.orderDialable(entries)
	if len(list) == 0 {
		return nil, fmt.Errorf("gatekeeper: no dialable %s service %q in registry", kind, name)
	}
	c.storeList(kind, name, list)
	return list, nil
}

// orderDialable filters lookup results down to dialable entries and orders
// them for failover: reachable nodes first, registry order within each
// class. Unreachable candidates stay in the list, after every reachable
// one — the fallback is deterministic and the dial surfaces the topology
// error.
func (c *RegistryClient) orderDialable(entries []Entry) []Entry {
	reach, hasReach := c.tr.(orb.Reachability)
	var preferred, fallback []Entry
	for _, e := range entries {
		if e.Service == "" {
			continue
		}
		if !hasReach || reach.CanReach(e.Node) {
			preferred = append(preferred, e)
		} else {
			fallback = append(fallback, e)
		}
	}
	return append(preferred, fallback...)
}

func (c *RegistryClient) cachedList(kind, name string) ([]Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ce, ok := c.cache[cacheKey{kind, name}]
	if !ok || c.rt.Now() >= ce.expires {
		return nil, false
	}
	return ce.list, true
}

func (c *RegistryClient) storeList(kind, name string, list []Entry) {
	c.mu.Lock()
	if c.cacheTTL > 0 {
		c.cache[cacheKey{kind, name}] = cachedEntry{list: list, expires: c.rt.Now().Add(c.cacheTTL)}
	}
	c.mu.Unlock()
}

// ResolveVLink implements vlink.Resolver, making the registry client the
// production resolver behind Linker.DialService and the DialName fallback.
// Because do() fails over inside each group, by-name dialing keeps working
// across a replica crash without the linker noticing — and because named
// lookups route by shard, the resolver path stays one round-trip however
// far the directory is partitioned.
func (c *RegistryClient) ResolveVLink(kind, name string) ([]vlink.Resolved, error) {
	return c.ResolveVLinkCtx(telemetry.SpanContext{}, kind, name)
}

// ResolveVLinkCtx implements vlink.SpanResolver: a traced by-name dial
// threads its span through the resolution flight.
func (c *RegistryClient) ResolveVLinkCtx(ctx telemetry.SpanContext, kind, name string) ([]vlink.Resolved, error) {
	list, err := c.candidates(ctx, kind, name)
	if err != nil {
		return nil, err
	}
	return toResolved(list), nil
}

// ResolveVLinkBatch implements vlink.BatchResolver: names already in the
// resolution cache are served from it, and all the misses go out as one
// LookupBatch — a single pipelined flight per replica group however far the
// directory is sharded, instead of one round trip per name. Resolved misses
// are stored back into the cache, so a batch doubles as a warm-up for
// subsequent one-name dials of the same services.
func (c *RegistryClient) ResolveVLinkBatch(kind string, names []string) ([][]vlink.Resolved, error) {
	out := make([][]vlink.Resolved, len(names))
	var queries []LookupQuery
	var missIdx []int
	for i, name := range names {
		if list, ok := c.cachedList(kind, name); ok {
			c.telemetry().Counter("regc.cache_hits").Inc()
			out[i] = toResolved(list)
			continue
		}
		c.telemetry().Counter("regc.cache_misses").Inc()
		queries = append(queries, LookupQuery{Kind: kind, Name: name})
		missIdx = append(missIdx, i)
	}
	if len(queries) == 0 {
		return out, nil
	}
	results, err := c.LookupBatch(queries)
	if err != nil {
		return nil, err
	}
	for qi, i := range missIdx {
		list := c.orderDialable(results[qi])
		if len(list) == 0 {
			continue // per-contract: a miss is an empty slot, not an error
		}
		c.storeList(kind, names[i], list)
		out[i] = toResolved(list)
	}
	return out, nil
}

func toResolved(list []Entry) []vlink.Resolved {
	out := make([]vlink.Resolved, len(list))
	for i, e := range list {
		out[i] = vlink.Resolved{Node: e.Node, Service: e.Service}
	}
	return out
}

var _ vlink.Resolver = (*RegistryClient)(nil)
var _ vlink.BatchResolver = (*RegistryClient)(nil)
var _ vlink.SpanResolver = (*RegistryClient)(nil)

// DialService is VLink connection by registry name — a thin shim over
// Linker.DialServiceVia for callers holding a client they have not
// installed as the linker's resolver.
func DialService(ln *vlink.Linker, rc *RegistryClient, kind, name string) (vlink.Stream, error) {
	return ln.DialServiceVia(rc, kind, name)
}

// DialServiceOn resolves through the registry and dials over an arbitrary
// transport — the wall-clock twin of Linker.DialService, used where no
// simulated linker exists (e.g. real TCP deployments).
func DialServiceOn(tr orb.Transport, rc *RegistryClient, kind, name string) (vlink.Stream, error) {
	return DialServiceOnCtx(telemetry.SpanContext{}, tr, rc, kind, name)
}

// DialServiceOnCtx is DialServiceOn under a caller's span: the resolve
// flight joins the caller's trace.
func DialServiceOnCtx(ctx telemetry.SpanContext, tr orb.Transport, rc *RegistryClient, kind, name string) (vlink.Stream, error) {
	e, err := rc.ResolveCtx(ctx, kind, name)
	if err != nil {
		return nil, err
	}
	return tr.Dial(e.Node, e.Service)
}
