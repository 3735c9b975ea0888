package gatekeeper

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"padico/internal/orb"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// noNet is the transport of a replica that is driven through handle and the
// in-package accessors only: it names the node and connects to nothing.
type noNet string

func (n noNet) NodeName() string                     { return string(n) }
func (noNet) Listen(string) (orb.Acceptor, error)    { return nil, errors.New("noNet: no listener") }
func (noNet) Dial(_, _ string) (vlink.Stream, error) { return nil, errors.New("noNet: no dial") }

// newLocalRegistry returns a replica with no listener and no sync loop,
// hosting the given shards of a directory of nshards.
func newLocalRegistry(rt vtime.Runtime, nshards int, host ...int) *Registry {
	r := &Registry{rt: rt, tr: noNet("local"), nshards: nshards}
	r.host(nil)
	r.HostShards(host...)
	return r
}

// TestShardAddressing: a write or sync frame must name exactly one shard
// this replica hosts. ShardAll (-1) is a lookup's fan-out and nothing else:
// on reg-publish it used to pass the hosting check and then dereference a
// shard that is not in the map — a panic in the serve goroutine, from one
// frame off the wire — and on the sync ops it silently meant "the lowest
// shard hosted" (or indexed an empty list on a replica hosting none).
func TestShardAddressing(t *testing.T) {
	const refused = "does not host shard"
	entries := []Entry{{Node: "x", Kind: "vlink", Name: "svc", Service: "svc"}}
	sync := []SyncRecord{{Node: "x", Entries: entries, TTLMillis: 1000, StampMicros: 5}}
	// want per shard address: "" is OK, "missing" is OK with the shard
	// reported Missing, anything else is the error's text.
	ops := []struct {
		op                        string
		req                       func(shard int) *Request
		shardAll, unhosted, hosts string
	}{
		{"reg-publish", func(s int) *Request {
			return &Request{Op: OpRegPublish, Node: "x", Shard: s, Entries: entries}
		}, refused, refused, ""},
		{"reg-announce-batch", func(s int) *Request {
			return &Request{Op: OpRegAnnounceBatch, Node: "x", TTLMillis: 1000,
				Batch: []ShardPublish{{Shard: 1, Entries: entries}, {Shard: s, Entries: entries}}}
		}, refused, refused, ""},
		{"reg-renew-batch", func(s int) *Request {
			return &Request{Op: OpRegRenewBatch, Node: "x", TTLMillis: 1000, Shards: []int{s}}
		}, "missing", "missing", ""},
		{"reg-withdraw", func(s int) *Request {
			return &Request{Op: OpRegWithdraw, Node: "y", Shard: s}
		}, "", "", ""},
		{"reg-lookup", func(s int) *Request {
			return &Request{Op: OpRegLookup, Kind: "vlink", Name: "svc", Shard: s}
		}, "", refused, ""},
		{"reg-list", func(s int) *Request { return &Request{Op: OpRegList, Shard: s} }, "", "", ""},
		{"reg-sync", func(s int) *Request {
			return &Request{Op: OpRegSync, From: "peer", Shard: s, Sync: sync}
		}, refused, refused, ""},
		{"reg-digest", func(s int) *Request {
			return &Request{Op: OpRegDigest, From: "peer", Shard: s, Digest: map[string]int64{"x": 1}}
		}, refused, refused, ""},
		{"reg-push", func(s int) *Request {
			return &Request{Op: OpRegPush, From: "peer", Shard: s, Sync: sync}
		}, refused, refused, ""},
		{"reg-status", func(s int) *Request { return &Request{Op: OpRegStatus, Shard: s} }, "", "", ""},
	}
	for _, op := range ops {
		for _, c := range []struct {
			name  string
			shard int
			want  string
		}{{"ShardAll", ShardAll, op.shardAll}, {"unhosted", 0, op.unhosted}, {"hosted", 2, op.hosts}} {
			t.Run(op.op+"/"+c.name, func(t *testing.T) {
				r := newLocalRegistry(vtime.NewWall(), 4, 1, 2)
				if resp := r.handle(&Request{Op: OpRegAnnounceBatch, Node: "x", TTLMillis: 1000,
					Batch: []ShardPublish{{Shard: 2, Entries: entries}}}); !resp.OK {
					t.Fatal(resp.Error)
				}
				resp := r.handle(op.req(c.shard))
				switch c.want {
				case "":
					if !resp.OK || len(resp.Missing) != 0 {
						t.Fatalf("want OK, got %+v", resp)
					}
				case "missing":
					if !resp.OK || !reflect.DeepEqual(resp.Missing, []int{c.shard}) {
						t.Fatalf("want shard %d reported missing, got %+v", c.shard, resp)
					}
				default:
					if resp.OK || !strings.Contains(resp.Error, c.want) {
						t.Fatalf("want error %q, got %+v", c.want, resp)
					}
				}
				// A refused frame wrote nothing, on the shard it named or any other.
				if c.want == refused {
					if got := r.Lookup("", ""); len(got) != 1 {
						t.Fatalf("refused frame changed the directory: %v", got)
					}
				}
			})
		}
	}
	// A replica hosting no shard at all refuses every ShardAll sync frame
	// too, instead of indexing into an empty list.
	empty := newLocalRegistry(vtime.NewWall(), 4)
	for _, op := range []string{OpRegPublish, OpRegSync, OpRegDigest, OpRegPush} {
		resp := empty.handle(&Request{Op: op, Node: "x", From: "peer", Shard: ShardAll})
		if resp.OK || !strings.Contains(resp.Error, refused) {
			t.Fatalf("%s on a replica hosting nothing: %+v", op, resp)
		}
	}
}

// nameKey is what a named lookup asks for.
type nameKey struct{ kind, name string }

// modelShard is the registry's semantics with nothing to keep in step: one
// map of records by value, expiry looked at wherever a record is read,
// every lookup a full scan and a sort. The index has to answer exactly as
// this does.
type modelShard map[string]modelRec

type modelRec struct {
	entries         []Entry
	expires, stamp  vtime.Time
	leased, deleted bool
}

func (m modelShard) live(node string, now vtime.Time) (modelRec, bool) {
	rec, ok := m[node]
	if ok && rec.leased && now >= rec.expires {
		delete(m, node)
		ok = false
	}
	return rec, ok
}

func modelTTL(rec modelRec, now vtime.Time) int64 {
	if !rec.leased {
		return 0
	}
	return max(int64(rec.expires.Sub(now)/time.Millisecond), 1)
}

func modelLease(rec *modelRec, ttlMillis int64, now vtime.Time) {
	if rec.leased = ttlMillis > 0; rec.leased {
		rec.expires = now.Add(time.Duration(ttlMillis) * time.Millisecond)
	}
}

// lookup scans the shard. The answer is ordered by Node, Kind, Name and
// then — the registry's order leaves ties open, the index settles them —
// by publishing node and position in its record.
func (m modelShard) lookup(kind, name string, now vtime.Time) []Entry {
	type hit struct {
		e   Entry
		pub string
		pos int
	}
	var hits []hit
	for node := range m {
		rec, ok := m.live(node, now)
		if !ok || rec.deleted {
			continue
		}
		for i, e := range rec.entries {
			if (kind == "" || e.Kind == kind) && (name == "" || e.Name == name) {
				e.TTLMillis = modelTTL(rec, now)
				hits = append(hits, hit{e, node, i})
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		a, b := hits[i], hits[j]
		switch {
		case a.e.Node != b.e.Node:
			return a.e.Node < b.e.Node
		case a.e.Kind != b.e.Kind:
			return a.e.Kind < b.e.Kind
		case a.e.Name != b.e.Name:
			return a.e.Name < b.e.Name
		case a.pub != b.pub:
			return a.pub < b.pub
		}
		return a.pos < b.pos
	})
	out := make([]Entry, len(hits))
	for i, h := range hits {
		out[i] = h.e
	}
	return out
}

// merge is the anti-entropy rule: freshest stamp wins, ties keep the local
// copy, an expired local copy loses to anything.
func (m modelShard) merge(in SyncRecord, now vtime.Time) {
	if in.Node == "" || (in.Deleted && in.TTLMillis <= 0) || in.TTLMillis < 0 {
		return
	}
	stamp := vtime.Time(in.StampMicros * int64(time.Microsecond))
	if loc, ok := m.live(in.Node, now); ok && stamp <= loc.stamp {
		return
	}
	rec := modelRec{stamp: stamp, deleted: in.Deleted}
	if !in.Deleted {
		rec.entries = append([]Entry(nil), in.Entries...)
	}
	modelLease(&rec, in.TTLMillis, now)
	m[in.Node] = rec
}

func (m modelShard) digest(now vtime.Time) map[string]int64 {
	out := map[string]int64{}
	for node := range m {
		if rec, ok := m.live(node, now); ok {
			out[node] = int64(rec.stamp.Duration() / time.Microsecond)
		}
	}
	return out
}

// sameAnswer compares two answers entry for entry, in order.
func sameAnswer(a, b []Entry) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// sameEntries compares two answers as sets: a walked or cross-shard answer
// is sorted by Node, Kind, Name only, and the model's tie order is not owed.
func sameEntries(a, b []Entry) bool {
	canon := func(in []Entry) []string {
		out := make([]string, len(in))
		for i, e := range in {
			out[i] = fmt.Sprintf("%+v", e)
		}
		sort.Strings(out)
		return out
	}
	return sort.SliceIsSorted(a, func(i, j int) bool {
		x, y := a[i], a[j]
		if x.Node != y.Node {
			return x.Node < y.Node
		}
		if x.Kind != y.Kind {
			return x.Kind < y.Kind
		}
		return x.Name < y.Name
	}) && reflect.DeepEqual(canon(a), canon(b))
}

// checkShardInvariants: records, index and lease heap describe the same
// thing. Every leased record is in the heap exactly once, at the position
// it believes, under the heap order; every entry is on exactly one chain,
// the one under its own key, and every chain is in answer order.
func checkShardInvariants(t *testing.T, sh *shardState) {
	t.Helper()
	leased, entries := 0, 0
	for node, rec := range sh.records {
		if rec.node != node {
			t.Fatalf("record %q filed under %q", rec.node, node)
		}
		entries += len(rec.slots)
		if rec.deleted && len(rec.slots) != 0 {
			t.Fatalf("tombstone of %s carries entries", node)
		}
		for i := range rec.slots {
			if rec.slots[i].expires != rec.expires {
				t.Fatalf("entry %d of %s carries deadline %v, its record %v", i, node, rec.slots[i].expires, rec.expires)
			}
		}
		if !rec.leased() {
			continue
		}
		leased++
		if rec.heapIdx < 0 || rec.heapIdx >= len(sh.leases) || sh.leases[rec.heapIdx] != rec {
			t.Fatalf("leased record %s is not in the heap where it thinks (%d)", node, rec.heapIdx)
		}
	}
	if len(sh.leases) != leased {
		t.Fatalf("lease heap holds %d, the shard %d leased records", len(sh.leases), leased)
	}
	for i := 1; i < len(sh.leases); i++ {
		if sh.leases[(i-1)/2].expires > sh.leases[i].expires {
			t.Fatalf("lease heap out of order at %d", i)
		}
	}
	// position is where in its record a chained slot lies, -1 if the shard
	// no longer holds that record.
	position := func(s *slot) int {
		if sh.records[s.rec.node] == s.rec {
			for i := range s.rec.slots {
				if &s.rec.slots[i] == s {
					return i
				}
			}
		}
		return -1
	}
	chained := 0
	for kind, byName := range sh.index {
		if len(byName) == 0 {
			t.Fatalf("empty name map left under kind %q", kind)
		}
		for name, head := range byName {
			key := nameKey{kind, name}
			if head == nil {
				t.Fatalf("empty chain left under %v", key)
			}
			for prev, s := (*slot)(nil), head; s != nil; prev, s = s, s.next {
				chained++
				if position(s) < 0 {
					t.Fatalf("chain under %v reaches a record the shard dropped", key)
				}
				if s.Kind != kind || s.Name != name {
					t.Fatalf("chain under %v holds %s/%s", key, s.Kind, s.Name)
				}
				if prev != nil && (s.before(prev) || (!prev.before(s) && position(prev) >= position(s))) {
					t.Fatalf("chain under %v out of order at %s#%d", key, s.rec.node, position(s))
				}
			}
		}
	}
	if chained != entries {
		t.Fatalf("index chains %d slots for %d entries", chained, entries)
	}
}

// TestIndexMatchesModel drives seeded random sequences of every operation
// that writes a shard — announce-batch, re-announce of the same names,
// renew-batch with right, wrong and no sums, legacy publish, withdraw,
// merges arriving as mergeShard, reg-push and reg-sync with stamps either
// side of the local ones — with virtual time advancing in between, so
// leases and tombstones run out under them. After every step, for every
// name ever published and every shard, the indexed answer must be the
// model's scan: same entries, same order, same TTLMillis — which also
// means no withdrawn node is served and no expired one — and the walked
// and digest views must agree with it too.
func TestIndexMatchesModel(t *testing.T) {
	const shards = 3
	pubs := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	kinds := []string{"vlink", "module"}
	ttls := []int64{0, 30, 100, 250, 1000}
	sleeps := []time.Duration{time.Millisecond, 20 * time.Millisecond, 60 * time.Millisecond,
		150 * time.Millisecond, 400 * time.Millisecond, TombstoneTTL / 2}
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			sim := vtime.NewSim()
			sim.Run(func() {
				r := newLocalRegistry(sim, shards, 0, 1, 2)
				model := [shards]modelShard{{}, {}, {}}
				names := map[nameKey]bool{{"vlink", "never-published"}: true}
				last := map[string][]ShardPublish{} // each publisher's last announce
				serial := 0
				pick := func(list []string) string { return list[rng.Intn(len(list))] }
				randEntries := func(pub string, n int) []Entry {
					out := make([]Entry, n)
					for i := range out {
						serial++
						out[i] = Entry{Node: pub, Kind: pick(kinds), Name: fmt.Sprintf("svc%d", rng.Intn(10)),
							Service: fmt.Sprintf("%s#%d", pub, serial)}
						if rng.Intn(5) == 0 {
							out[i].Node = "alias" // published on another node's behalf
						}
						names[nameKey{out[i].Kind, out[i].Name}] = true
					}
					return out
				}
				must := func(resp *Response) *Response {
					if !resp.OK {
						t.Fatalf("registry refused: %s", resp.Error)
					}
					return resp
				}
				for step := 0; step < 400; step++ {
					now := sim.Now()
					var wrote []int // shards this step wrote
					what := ""
					switch op := rng.Intn(10); {
					case op < 3: // announce, new names or the last ones again
						pub := pick(pubs)
						batch := last[pub]
						if what = "re-announce"; batch == nil || rng.Intn(3) > 0 {
							what = "announce"
							by := map[int][]Entry{}
							for _, e := range randEntries(pub, rng.Intn(6)) {
								by[ShardOf(e.Name, shards)] = append(by[ShardOf(e.Name, shards)], e)
							}
							batch = nil
							for s := 0; s < shards; s++ {
								if len(by[s]) > 0 || rng.Intn(2) == 0 {
									batch = append(batch, ShardPublish{Shard: s, Entries: by[s]})
								}
							}
						} else {
							for _, sp := range batch {
								for i := range sp.Entries {
									sp.Entries[i].Addr = fmt.Sprintf("addr%d", step) // same names, new content
								}
							}
						}
						last[pub] = batch
						ttl := ttls[rng.Intn(len(ttls))]
						must(r.handle(&Request{Op: OpRegAnnounceBatch, Node: pub, TTLMillis: ttl, Batch: batch}))
						for _, sp := range batch {
							rec := modelRec{entries: append([]Entry(nil), sp.Entries...), stamp: now}
							modelLease(&rec, ttl, now)
							model[sp.Shard][pub] = rec
							wrote = append(wrote, sp.Shard)
						}
					case op < 5: // renew
						what = "renew"
						pub, ttl := pick(pubs), ttls[1+rng.Intn(len(ttls)-1)]
						req := &Request{Op: OpRegRenewBatch, Node: pub, TTLMillis: ttl}
						for s := 0; s < shards; s++ {
							if rng.Intn(3) > 0 {
								req.Shards = append(req.Shards, s)
							}
						}
						targets := req.Shards
						if len(targets) == 0 {
							targets = []int{0, 1, 2}
						}
						sumMode := rng.Intn(3) // right sums, one wrong, none
						if sumMode < 2 && len(req.Shards) > 0 {
							for _, s := range req.Shards {
								req.Sums = append(req.Sums, EntriesSum(model[s][pub].entries))
							}
							if sumMode == 1 {
								req.Sums[0]++
							}
						}
						var missing []int
						for i, s := range targets {
							rec, ok := model[s].live(pub, now)
							if !ok || rec.deleted || !rec.leased ||
								(req.Sums != nil && EntriesSum(rec.entries) != req.Sums[i]) {
								missing = append(missing, s)
								continue
							}
							rec.stamp = now
							modelLease(&rec, ttl, now)
							model[s][pub] = rec
						}
						if got := must(r.handle(req)).Missing; !reflect.DeepEqual(got, missing) {
							t.Fatalf("step %d renew %+v: missing %v, model says %v", step, req, got, missing)
						}
						wrote = targets
					case op < 6: // withdraw
						what = "withdraw"
						pub := pick(pubs)
						must(r.handle(&Request{Op: OpRegWithdraw, Node: pub}))
						for s := range model {
							model[s][pub] = modelRec{stamp: now, deleted: true, leased: true, expires: now.Add(TombstoneTTL)}
						}
						wrote = []int{0, 1, 2}
					case op < 7: // legacy single-shard publish
						what = "publish"
						pub, s, ttl := pick(pubs), rng.Intn(shards), ttls[rng.Intn(len(ttls))]
						entries := randEntries(pub, rng.Intn(4))
						must(r.handle(&Request{Op: OpRegPublish, Node: pub, Shard: s, TTLMillis: ttl, Entries: entries}))
						rec := modelRec{entries: entries, stamp: now}
						modelLease(&rec, ttl, now)
						model[s][pub] = rec
						wrote = []int{s}
					case op < 9: // a peer's records, fresher or staler than ours
						s := rng.Intn(shards)
						recs := make([]SyncRecord, 1+rng.Intn(3))
						for i := range recs {
							pub := pick(pubs)
							recs[i] = SyncRecord{Node: pub, Entries: randEntries(pub, rng.Intn(4)),
								TTLMillis:   []int64{-5, 0, 1, 50, 300, 6000}[rng.Intn(6)],
								StampMicros: int64(now.Duration()/time.Microsecond) + int64(rng.Intn(200_001)) - 100_000,
								Deleted:     rng.Intn(3) == 0}
						}
						switch rng.Intn(3) {
						case 0:
							what = "mergeShard"
							r.mergeShard(s, recs)
						case 1:
							what = "reg-push"
							must(r.handle(&Request{Op: OpRegPush, From: "peer", Shard: s, Sync: recs}))
						case 2:
							what = "reg-sync"
							must(r.handle(&Request{Op: OpRegSync, From: "peer", Shard: s, Sync: recs}))
						}
						for _, in := range recs {
							model[s].merge(in, now)
						}
						wrote = []int{s}
					default:
						what = "sleep"
						sim.Sleep(sleeps[rng.Intn(len(sleeps))])
						now = sim.Now()
					}

					fail := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("seed %d step %d (%s at %v): %s", seed, step, what, now, fmt.Sprintf(format, args...))
					}
					for s := range model {
						sh := r.shard(s)
						checkShardInvariants(t, sh)
						for key := range names {
							got := r.lookupIn([]*shardState{sh}, key.kind, key.name)
							if want := model[s].lookup(key.kind, key.name, now); !sameAnswer(got, want) {
								fail("shard %d %v:\nindex %+v\nmodel %+v", s, key, got, want)
							}
						}
						if got, want := r.digestShard(s), model[s].digest(now); !reflect.DeepEqual(got, want) {
							fail("shard %d digest %v, model %v", s, got, want)
						}
					}
					// The heap's bound: right after a shard was written, it holds
					// nothing but live leases and live tombstones.
					for _, s := range wrote {
						for node, rec := range r.shard(s).records {
							if !rec.live(now) {
								fail("shard %d still holds expired %s after a write", s, node)
							}
						}
					}
					// Walked and cross-shard answers: the same entries, in registry order.
					for _, q := range []nameKey{{}, {kind: pick(kinds)}, {name: "svc3"}, {"vlink", "svc3"}} {
						var want []Entry
						for s := range model {
							want = append(want, model[s].lookup(q.kind, q.name, now)...)
						}
						if got := r.Lookup(q.kind, q.name); !sameEntries(got, want) {
							fail("walk %v:\nregistry %+v\nmodel    %+v", q, got, want)
						}
					}
				}
			})
		})
	}
}

// TestShardLocksAreIndependent: readers on every shard run beside a
// publisher, a renewer, a withdrawer and both halves of a digest round
// (run it under -race), and — the point of one lock per shard — a lookup
// on shard 0 completes while shard 1's write lock is held.
func TestShardLocksAreIndependent(t *testing.T) {
	const shards = 4
	r := newLocalRegistry(vtime.NewWall(), shards, 0, 1, 2, 3)
	name := make([]string, shards)
	batch := make([]ShardPublish, shards)
	for s := range name {
		name[s] = nameInShard(t, s, shards, "svc")
		batch[s] = ShardPublish{Shard: s, Entries: []Entry{{Node: "pub", Kind: "vlink", Name: name[s], Service: name[s]}}}
	}
	announce := func(node string) *Response {
		return r.handle(&Request{Op: OpRegAnnounceBatch, Node: node, TTLMillis: 60_000, Batch: batch})
	}
	if resp := announce("pub"); !resp.OK {
		t.Fatal(resp.Error)
	}

	const rounds = 300
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f(i)
			}
		}()
	}
	for s := 0; s < shards; s++ {
		run(func(int) { // a reader per shard: "pub" is never withdrawn
			resp := r.handle(&Request{Op: OpRegLookup, Kind: "vlink", Name: name[s], Shard: s})
			if !resp.OK || len(resp.Entries) == 0 {
				t.Errorf("shard %d lookup beside writers: %+v", s, resp)
			}
		})
	}
	run(func(int) { announce("pub") })
	run(func(i int) {
		node := fmt.Sprintf("churn%d", i%8)
		announce(node)
		r.handle(&Request{Op: OpRegRenewBatch, Node: node, TTLMillis: 60_000})
		r.handle(&Request{Op: OpRegWithdraw, Node: node})
	})
	run(func(i int) { // a digest round's two halves, and the operator's views
		s := i % shards
		fresher, want := r.diffDigest(s, r.digestShard(s))
		r.mergeShard(s, append(fresher, r.snapshotNodes(s, want)...))
		r.mergeShard(s, r.snapshotShard(s))
		r.Status()
		r.Lookup("vlink", "")
	})
	wg.Wait()

	blocked := r.shard(1)
	blocked.mu.Lock()
	done := make(chan *Response, 1)
	go func() { done <- r.handle(&Request{Op: OpRegLookup, Kind: "vlink", Name: name[0], Shard: 0}) }()
	select {
	case resp := <-done:
		if !resp.OK || len(resp.Entries) == 0 {
			t.Errorf("lookup on shard 0: %+v", resp)
		}
	case <-time.After(10 * time.Second):
		t.Error("a lookup on shard 0 waited for shard 1's write lock")
	}
	blocked.mu.Unlock()
}
