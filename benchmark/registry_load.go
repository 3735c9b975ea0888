package main

// registry_load: a loaded directory, reads beside writes. Two replica
// daemons host all 32 shards of a 100 000-entry directory (6 250 publishers
// × 16 entries). One reader seat does seeded named lookups, first alone,
// then beside one writer seat, attached through the other replica, that
// re-publishes seeded publishers. Registry.lookupIn (a linear scan under one lock) and
// anti-entropy do the work here; the mux and the codec do almost none.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

const (
	loadShards     = 32
	loadFanout     = 16   // entries per publisher, spread across shards
	loadPublishers = 6250 // × loadFanout = 100 000 entries
)

func publisherNode(i int) string { return fmt.Sprintf("ld%05d", i) }
func entryName(i, j int) string  { return fmt.Sprintf("ld.%05d.%02d", i, j) }
func publisherEntries(i int) []entry {
	entries := make([]entry, loadFanout)
	for j := range entries {
		entries[j] = entry{Node: publisherNode(i), Kind: "bench", Name: entryName(i, j), Service: "bench:load"}
	}
	return entries
}

// bareDirectory is the reference registry_load measures against: the same
// 100 000 entries in the plainest structure that answers a named lookup the
// way the registry does today — per shard, a map of publisher records, each
// scanned in full. It lives in the driver, outside the system under test. A
// lookup's time is mostly cache misses over a directory-sized heap, which
// swing two- and threefold on a shared box as neighbours use the cache; a
// raw TCP echo does not feel that, a bare scan beside the lookup does.
type bareDirectory struct {
	shards []map[string][]entry
}

func bareShard(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % loadShards)
}

func newBareDirectory(publishers int) *bareDirectory {
	d := &bareDirectory{shards: make([]map[string][]entry, loadShards)}
	for s := range d.shards {
		d.shards[s] = map[string][]entry{}
	}
	for i := 0; i < publishers; i++ {
		for _, e := range publisherEntries(i) {
			s := d.shards[bareShard(e.Name)]
			s[e.Node] = append(s[e.Node], e)
		}
	}
	return d
}

// scan walks the name's whole shard, as Registry.lookupIn does.
func (d *bareDirectory) scan(kind, name string) (found int) {
	for _, entries := range d.shards[bareShard(name)] {
		for _, e := range entries {
			if e.Kind == kind && e.Name == name {
				found++
			}
		}
	}
	return found
}

// loadedGrid is the booted registry_load system.
type loadedGrid struct {
	daemons           []*daemon
	specs             []daemonSpec
	reader, writeSeat *seat
	raw               *rawPeer
	bare              *bareDirectory
	publishers        int
	loadPerS          float64 // entries/s during the bulk load

	readRng, writeRng *rand.Rand
	writer            *background // the writer seat's closed loop, beside lookup_rw
}

// bootLoadedGrid boots the two replicas, attaches both seats and loads the
// directory. probe, when set, is called once a tenth of the directory is in,
// so the traced run can read the in-process lookup cost at a tenth the size.
func bootLoadedGrid(publishers int, seed int64, probe func(*loadedGrid)) (g *loadedGrid, err error) {
	g = &loadedGrid{publishers: publishers,
		readRng: rand.New(rand.NewSource(seed)), writeRng: rand.New(rand.NewSource(seed + 1))}
	defer func() {
		if err != nil {
			g.close()
		}
	}()
	zones := map[string]string{"r0": "a", "r1": "b"}
	groups := shardPlacement(zones, loadShards)
	peers := map[string]string{}
	for _, node := range []string{"r0", "r1"} {
		spec := daemonSpec{Node: node, Zone: zones[node], ShardGroups: groups, Peers: peers}
		d, err := startDaemon(spec)
		if err != nil {
			return g, err
		}
		g.daemons = append(g.daemons, d)
		g.specs = append(g.specs, spec)
		peers = map[string]string{}
		for i, prev := range g.daemons {
			peers[g.specs[i].Node] = daemonAddr(prev)
		}
	}
	if g.reader, err = attach(daemonAddr(g.daemons[0])); err != nil {
		return g, err
	}
	if g.writeSeat, err = attach(daemonAddr(g.daemons[1])); err != nil {
		return g, err
	}
	for _, s := range []*seat{g.reader, g.writeSeat} {
		seatSampling(s, 0)
		regSetCacheTTL(s, 0)
	}
	if err = waitFor("both leases", func() bool {
		e, err := regLookup(g.reader, "module", "vlink")
		return err == nil && len(e) >= 2
	}); err != nil {
		return g, err
	}
	t0 := time.Now()
	for i := 0; i < publishers; i++ {
		if i == publishers/10 && probe != nil {
			probe(g)
		}
		if err = regPublish(g.reader, publisherNode(i), publisherEntries(i)); err != nil {
			return g, fmt.Errorf("bulk load, publisher %d: %w", i, err)
		}
	}
	g.loadPerS = float64(publishers*loadFanout) / time.Since(t0).Seconds()
	g.bare = newBareDirectory(publishers)
	g.writer = startBackground(g.republish)
	g.raw, err = newRawPeer(rawEcho, echoBytes, 0)
	return g, err
}

// settle waits until r1 holds the whole directory too. The load goes to r0
// and reaches r1 by anti-entropy, a second-long ticker behind; a measured
// phase that starts before they agree reads the tail of the load — full
// push-pull rounds of a 100 000-entry directory under the registry's lock —
// and not the steady state. It is outside setup_s: the wait is the phase of
// that ticker, not work.
func (g *loadedGrid) settle() error {
	total := g.publishers * loadFanout
	return waitFor("r1 to hold the directory", func() bool { return daemonEntries(g.daemons[1]) >= total })
}

func (g *loadedGrid) close() {
	if g.writer != nil {
		g.writer.stop()
	}
	if g.raw != nil {
		g.raw.close()
	}
	for _, s := range []*seat{g.reader, g.writeSeat} {
		if s != nil {
			seatClose(s)
		}
	}
	for _, d := range g.daemons {
		// Kill, not Close: a graceful close withdraws and pushes one last
		// sync round, which at 100k entries is seconds of work that
		// measures nothing.
		daemonKill(d)
	}
}

// lookup is one seeded named lookup, checked: the answer must be the one
// entry of that name.
func (g *loadedGrid) lookup() error {
	i, j := g.readRng.Intn(g.publishers), g.readRng.Intn(loadFanout)
	name := entryName(i, j)
	entries, err := regLookup(g.reader, "bench", name)
	if err != nil {
		return err
	}
	if len(entries) != 1 || entries[0].Name != name || entries[0].Node != publisherNode(i) {
		return fmt.Errorf("lookup %s answered %d entries %v", name, len(entries), entries)
	}
	return nil
}

// batchDepth is how many lookups one LookupBatch pipelines.
const batchDepth = 16

// lookupBatch is batchDepth seeded lookups in one pipelined flight, each
// answer checked like a single lookup's.
func (g *loadedGrid) lookupBatch() error {
	var names [batchDepth]string
	var owners [batchDepth]int
	for k := range names {
		owners[k] = g.readRng.Intn(g.publishers)
		names[k] = entryName(owners[k], g.readRng.Intn(loadFanout))
	}
	answers, err := regLookupBatch(g.reader, "bench", names[:])
	if err != nil {
		return err
	}
	if len(answers) != batchDepth {
		return fmt.Errorf("lookup batch answered %d of %d queries", len(answers), batchDepth)
	}
	for k, entries := range answers {
		if len(entries) != 1 || entries[0].Name != names[k] || entries[0].Node != publisherNode(owners[k]) {
			return fmt.Errorf("lookup batch: %s answered %d entries %v", names[k], len(entries), entries)
		}
	}
	return nil
}

// republish re-announces one seeded publisher's unchanged entry set from the
// writer's seat; the directory stays at its size.
func (g *loadedGrid) republish() error {
	i := g.writeRng.Intn(g.publishers)
	return regPublish(g.writeSeat, publisherNode(i), publisherEntries(i))
}

// refs is what the hardware needs for the same job: one raw round trip and
// one bare scan of a shard of the same directory.
func (g *loadedGrid) refs() map[string]func() error {
	return map[string]func() error{
		"raw_scan": func() error {
			name := entryName(g.readRng.Intn(g.publishers), g.readRng.Intn(loadFanout))
			if n := g.bare.scan("bench", name); n != 1 {
				return fmt.Errorf("bare scan found %s %d times", name, n)
			}
			return g.raw.echo()
		},
		// An attach or a publish scans nothing on the driver's side.
		"raw_echo": g.raw.echo,
	}
}

// ops are the gated ops. Attaching a fresh seat is the slot for "establish
// and release": Attach lists the whole directory to learn the grid, so at
// 100 000 entries it costs 0.4 s — some 55 000 raw echoes.
func (g *loadedGrid) ops() []op {
	return []op{
		{name: "lookup", ref: "raw_scan", block: block, reps: 4, refReps: 4, run: g.lookup},
		{name: "lookup_rw", ref: "raw_scan", block: block, reps: 4, refReps: 4, run: g.lookup, beside: g.writer},
		{name: "lookup_batch", ref: "raw_scan", block: block, reps: 1, refReps: batchDepth, long: true, run: g.lookupBatch},
	}
}

// opPublish is the write path alone, read on the traced run only. Publish
// latency is bimodal — fast, or behind an anti-entropy round holding the
// registry's one lock — with both modes near half the time, so its median
// flips between runs (spread 8–26 % over six batches): reported, not gated.
// What a slower publish does to readers is gated, through lookup_rw.
func (g *loadedGrid) opPublish() op {
	return op{name: "publish", ref: "raw_echo", block: block, reps: 4, refReps: 16, run: g.republish}
}

// opAttach attaches a fresh seat and closes it.
func (g *loadedGrid) opAttach() op {
	return op{name: "attach", ref: "raw_echo", block: block, reps: 1, refReps: 64, run: func() error {
		s, err := attach(daemonAddr(g.daemons[0]))
		if err != nil {
			return err
		}
		seatClose(s)
		return nil
	}}
}

func runRegistryLoad(cfg runConfig) (*result, error) {
	res := newResult(cfg)
	var inproc10k float64
	var probe func(*loadedGrid)
	if cfg.trace {
		probe = func(g *loadedGrid) { inproc10k = g.inprocLookupUs(cfg.publishers / 10) }
	}
	var rot *rotation
	var writer opStats // the writer seat's publishes, over every boot
	var writing time.Duration
	var loadPerS []float64
	err := res.eachBoot(func() (closer, error) { return bootLoadedGrid(cfg.publishers, cfg.seed, probe) }, func(i int, sys closer) error {
		g := sys.(*loadedGrid)
		dials := seatCounter(g.reader, "wall.dials")
		if !cfg.trace || cfg.lastBoot(i) {
			if err := g.settle(); err != nil {
				return err
			}
		}
		if !cfg.trace {
			rot = rot.onto(g.refs(), g.ops()...)
			rot.runFor(cfg.share())
		} else if cfg.lastBoot(i) {
			if err := g.traced(cfg, res, inproc10k); err != nil {
				return err
			}
		}
		writer.all = append(writer.all, g.writer.stats.all...)
		writing += g.writer.busy
		loadPerS = append(loadPerS, g.loadPerS)
		res.attempted += g.writer.stats.attempts
		res.failed += g.writer.stats.failed
		// Every lookup rode the session set-up had dialed.
		res.check("wall.dials flat", seatCounter(g.reader, "wall.dials") == dials)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		res.slots(rot, "lookup", "lookup_batch", "lookup_rw")
		res.notes = append(res.notes, fmt.Sprintf("writer beside reader: %d publishes, %.1f/s, p50 %.1f us; bulk load %.0f entries/s",
			len(writer.all), float64(len(writer.all))/writing.Seconds(), quantileInt(writer.all, 0.5)/1e3, median(loadPerS)))
	}
	return res, nil
}

// inprocLookupUs is what one shard's worth of Registry.Lookup costs on r0,
// in µs, over names among the first loaded publishers: the replica's own
// work for a lookup, with no wire, codec or client under it.
func (g *loadedGrid) inprocLookupUs(loaded int) float64 {
	var us []float64
	for i := 0; i < 8; i++ {
		name := entryName(g.readRng.Intn(max(loaded, 1)), g.readRng.Intn(loadFanout))
		t0 := time.Now()
		entries, shards := daemonLookup(g.daemons[0], "bench", name)
		el := time.Since(t0)
		if len(entries) == 1 && shards > 0 {
			us = append(us, float64(el)/1e3/float64(shards))
		}
	}
	return median(us)
}

// traced is the per-layer pass of registry_load: the lookup's ladder (ping
// floor + the replica's own scan + the rest), the same ops with spans on,
// what anti-entropy did meanwhile, and a crash of r1 to end with.
func (g *loadedGrid) traced(cfg runConfig, res *result, inproc10k float64) error {
	res.spans = newSpanLog()
	dials0, streams0 := seatCounter(g.reader, "wall.dials"), seatCounter(g.reader, "wall.streams")

	var scanUs []float64
	rungs := []rung{
		{"ladder.ping", func() error { return seatPing(g.reader, "r0") }},
		{"ladder.lookup", g.lookup},
	}
	deadline := time.Now().Add(cfg.seconds * 3 / 10)
	var pingUs, lookupUs []float64
	for len(pingUs) == 0 || time.Now().Before(deadline) {
		us, err := climb(res, 0, rungs)
		if err != nil {
			return err
		}
		pingUs, lookupUs = append(pingUs, us[0]), append(lookupUs, us[1])
		scanUs = append(scanUs, g.inprocLookupUs(g.publishers))
	}
	ping, scan, lookup := median(pingUs), median(scanUs), median(lookupUs)
	res.layer("ladder.ping_us", ping)
	res.layer("gatekeeper.registry.lookup_inproc_us", scan)
	res.layer("ladder.lookup_residual_us", lookup-ping-scan)
	res.layer("ladder.lookup_us", lookup)
	res.layer("gatekeeper.registry.lookup_inproc_us_10k", inproc10k)
	if inproc10k > 0 {
		res.layer("gatekeeper.registry.lookup_scale_x", scan/inproc10k)
	}

	rot := newRotation(g.refs(), append(g.ops(), g.opPublish(), g.opAttach())...)
	rot.spans = res.spans
	rot.runFor(cfg.seconds / 2)
	res.count(rot)
	res.noteOps(rot)
	res.driverOps(rot)
	res.layer("publish_per_s", float64(len(g.writer.stats.all))/g.writer.busy.Seconds())
	res.layer("bulk_load_per_s", g.loadPerS)
	res.layer("trace_overhead_pct", spanOverhead(cfg, res, g.refs(), g.ops()[0]))

	snap := daemonSnapshot(g.daemons[0])
	res.layer("gatekeeper.registry.digest_round_p50_us", float64(snap.Hist("reg.shard.digest_round").P50Micros))
	res.layer("gatekeeper.registry.records_sent", float64(snap.Counter("reg.shard.records_sent")))
	res.layer("sockets.wall.dials", float64(seatCounter(g.reader, "wall.dials")-dials0))
	res.layer("sockets.wall.streams", float64(seatCounter(g.reader, "wall.streams")-streams0))
	res.layer("sockets.wall.sessions", float64(seatGauge(g.reader, "wall.sessions")))

	// One crash, reported and not gated: kill r1 as a power loss would,
	// restart it empty, and time how long anti-entropy takes to hand it the
	// whole directory back.
	total := g.publishers * loadFanout
	daemonKill(g.daemons[1])
	t0 := time.Now()
	spec := g.specs[1]
	spec.Peers = map[string]string{"r0": daemonAddr(g.daemons[0])}
	restarted, err := startDaemon(spec)
	if err != nil {
		return fmt.Errorf("restarting r1: %w", err)
	}
	g.daemons[1] = restarted
	err = waitFor("restarted r1 to hold the directory again", func() bool { return daemonEntries(restarted) >= total })
	res.check("crash recovery", err == nil)
	res.layer("gatekeeper.registry.crash_recovery_ms", float64(time.Since(t0))/1e6)
	return nil
}
