package gatekeeper

import (
	"container/heap"
	"math"
	"sync"
	"time"

	"padico/internal/vtime"
)

// shardState is one hosted shard: its slice of the directory plus the
// peers of its replica group.
//
// mu guards records, index and leases — the three views of the shard's
// data, which only put, renew and drop change, together. peers belongs to
// Registry.mu like the rest of the replication bookkeeping; the two locks
// are never nested (see Registry).
type shardState struct {
	id int

	mu      sync.RWMutex
	records map[string]*record          // publishing node → its versioned record
	index   map[string]map[string]*slot // kind → name → the entries under it, chained in answer order
	leases  leaseHeap                   // every leased record, soonest deadline first

	peers map[string]*peerState // replica peers under anti-entropy
}

// record is one publishing node's state: its leased entry set, or a
// withdraw tombstone that keeps older sync copies from resurrecting it.
type record struct {
	version
	node    string
	slots   []slot // the entries, each threaded into the index where it lies
	sum     uint32 // EntriesSum of the entries, what renewals are checked against
	heapIdx int    // position in the shard's lease heap while leased
}

// version is what a write decides about a record besides its entries.
type version struct {
	stamp   vtime.Time // when a replica accepted the publish/withdraw
	expires vtime.Time // lease/tombstone deadline; never ⇒ permanent (publish without TTL)
	deleted bool       // withdraw tombstone (always leased, never with entries)
}

// never is the deadline of a record that holds no lease.
const never = vtime.Time(math.MaxInt64)

// slot is one published entry, stored once: the record owns it, and the
// index reaches it directly — the entries under one (kind, name) are chained
// through next, ordered by the entry's Node, then publishing node, then
// position in the record. Under one name that is the registry's answer
// order, so a named lookup copies the chain out and sorts nothing. Each slot
// repeats its record's deadline, which put and renew keep current, so what a
// lookup touches is the name map and the entry, and nothing behind them: no
// posting list, no record.
type slot struct {
	Entry
	expires vtime.Time
	rec     *record
	next    *slot
}

func newShardState(id int) *shardState {
	return &shardState{
		id:      id,
		records: make(map[string]*record),
		index:   make(map[string]map[string]*slot),
		peers:   make(map[string]*peerState),
	}
}

// live reports whether the record is still in force at now. An expired one
// — a publisher that died without withdrawing, or a withdraw remembered
// long enough — is invisible to every reader from that instant; the next
// write to the shard reaps it.
func (rec *record) live(now vtime.Time) bool { return now < rec.expires }

func (rec *record) leased() bool { return rec.expires != never }

// ttlMillis is the lease time left at now before a deadline not yet
// reached, as the wire carries it: 0 for a permanent record, never less
// than 1 for a leased one.
func ttlMillis(expires, now vtime.Time) int64 {
	if expires == never {
		return 0
	}
	return max(int64(expires.Sub(now)/time.Millisecond), 1)
}

func (rec *record) stampMicros() int64 { return int64(rec.stamp.Duration() / time.Microsecond) }

// entries copies the record's entries out.
func (rec *record) entries() []Entry {
	out := make([]Entry, len(rec.slots))
	for i := range rec.slots {
		out[i] = rec.slots[i].Entry
	}
	return out
}

// put makes (entries, v) the node's record, in place of whatever it had. It
// is the one place a record enters the shard, so records, index and lease
// heap cannot drift apart. The entries are copied.
func (sh *shardState) put(node string, entries []Entry, v version) {
	sh.drop(node)
	rec := &record{node: node, slots: make([]slot, len(entries)), sum: EntriesSum(entries), version: v}
	for i, e := range entries {
		rec.slots[i] = slot{Entry: e, expires: v.expires, rec: rec}
		sh.link(&rec.slots[i])
	}
	sh.records[node] = rec
	if rec.leased() {
		heap.Push(&sh.leases, rec)
	}
}

// renew extends a record's lease in place: entries stay as announced, only
// the deadline (and the version stamp, so the renewal propagates) moves.
func (sh *shardState) renew(rec *record, expires, stamp vtime.Time) {
	rec.expires, rec.stamp = expires, stamp
	for i := range rec.slots {
		rec.slots[i].expires = expires
	}
	heap.Fix(&sh.leases, rec.heapIdx)
}

// drop forgets the node's record — the one place a record leaves the shard.
func (sh *shardState) drop(node string) {
	rec := sh.records[node]
	if rec == nil {
		return
	}
	for i := range rec.slots {
		sh.unlink(&rec.slots[i])
	}
	if rec.leased() {
		heap.Remove(&sh.leases, rec.heapIdx)
	}
	delete(sh.records, node)
}

// lock takes the shard's write lock and reaps every record whose lease or
// tombstone has run out by now: a writer finds only live records, and the
// cost of forgetting — one heap pop per expired record — is paid by the
// operations that make the directory grow, never by a reader. No background
// sweeper: Sim and Wall behave identically.
func (sh *shardState) lock(now vtime.Time) {
	sh.mu.Lock()
	for len(sh.leases) > 0 && now >= sh.leases[0].expires {
		sh.drop(sh.leases[0].node)
	}
}

// link threads a slot into the chain under its (kind, name), after every
// entry that sorts before it or ties with it; put links a record's slots
// in position order, so ties within one record keep that order.
//
// The index is two maps deep, kind then name, rather than one map keyed by
// the pair: kinds are a handful, so the outer probe is always warm, and the
// inner map is a plain string map, whose hashing and growth cost half what
// a struct key's do — bulk load is where that shows.
func (sh *shardState) link(s *slot) {
	byName := sh.index[s.Kind]
	if byName == nil {
		byName = make(map[string]*slot)
		sh.index[s.Kind] = byName
	}
	head := byName[s.Name]
	if head == nil || s.before(head) {
		s.next = head
		byName[s.Name] = s
		return
	}
	at := head
	for at.next != nil && !s.before(at.next) {
		at = at.next
	}
	s.next, at.next = at.next, s
}

func (s *slot) before(t *slot) bool {
	if s.Node != t.Node {
		return s.Node < t.Node
	}
	return s.rec.node < t.rec.node
}

// unlink takes a slot out of its chain.
func (sh *shardState) unlink(s *slot) {
	byName := sh.index[s.Kind]
	switch head := byName[s.Name]; {
	case head != s:
		at := head
		for at.next != s {
			at = at.next
		}
		at.next = s.next
	case s.next != nil:
		byName[s.Name] = s.next
	default:
		if delete(byName, s.Name); len(byName) == 0 {
			delete(sh.index, s.Kind)
		}
	}
	s.next = nil
}

// lookup appends the shard's live entries matching the filters, each
// carrying its lease time remaining. Both filters given is an index probe
// whose cost is the answer's size, and the answer comes out in order; an
// empty filter matches everything and walks the shard, in no order.
func (sh *shardState) lookup(out []Entry, kind, name string, now vtime.Time) []Entry {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if kind != "" && name != "" {
		for s := sh.index[kind][name]; s != nil; s = s.next {
			if now < s.expires {
				out = append(out, s.Entry)
				out[len(out)-1].TTLMillis = ttlMillis(s.expires, now)
			}
		}
		return out
	}
	for _, rec := range sh.records {
		if !rec.live(now) {
			continue
		}
		ttl := ttlMillis(rec.expires, now)
		for i := range rec.slots {
			if e := &rec.slots[i].Entry; (kind == "" || e.Kind == kind) && (name == "" || e.Name == name) {
				out = append(out, *e)
				out[len(out)-1].TTLMillis = ttl
			}
		}
	}
	return out
}

// leaseHeap is a min-heap (container/heap) of the leased records by
// deadline. Each record knows its own position, so a renewal re-seats one
// element and the heap never holds a stale deadline: its size is exactly
// the number of leased records.
type leaseHeap []*record

func (h leaseHeap) Len() int           { return len(h) }
func (h leaseHeap) Less(i, j int) bool { return h[i].expires < h[j].expires }
func (h leaseHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx, h[j].heapIdx = i, j
}

func (h *leaseHeap) Push(x any) {
	rec := x.(*record)
	rec.heapIdx = len(*h)
	*h = append(*h, rec)
}

func (h *leaseHeap) Pop() any {
	last := len(*h) - 1
	rec := (*h)[last]
	(*h)[last] = nil
	*h = (*h)[:last]
	return rec
}
