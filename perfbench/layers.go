package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"versionstamp/internal/antientropy"
	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
	"versionstamp/internal/hints"
	"versionstamp/internal/kvstore"
	"versionstamp/internal/ring"
	"versionstamp/internal/storage"
	"versionstamp/internal/storage/wal"
)

// The traced run: one untraced episode, the same episode again with
// spans recorded around every call the benchmark makes into the program,
// then a layer pass that replays the traced episode's inputs against each
// module on its own. Tracing overhead is the traced episode's median client
// op time over the untraced one's. Nothing inside the program is
// instrumented.

// layerRun collects per-layer metrics.
type layerRun struct {
	tr      *tracer
	m       map[string]metric
	dir     string
	nextReq uint64
}

func (l *layerRun) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// req starts a new request id for one layer-pass step.
func (l *layerRun) req() uint64 {
	l.nextReq++
	return 1<<42 + l.nextReq
}

// timed runs fn inside span name (child of parent) and returns its
// duration.
func (l *layerRun) timed(name string, parent, req uint64, fn func()) time.Duration {
	id := l.tr.begin(name, parent, req)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	l.tr.end(id)
	return d
}

// spanQuantile is a quantile of the durations of spans named name, in
// the given unit, each divided by per (for spans that batch several calls).
func (l *layerRun) spanQuantile(name string, q float64, unit time.Duration, per int) float64 {
	ds := l.tr.durations(name)
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit) / float64(per)
	}
	return quantile(xs, q)
}

func runTraced(o options, cfg config, runDir string, out io.Writer) (result, error) {
	if err := warmUp(o, cfg, runDir); err != nil {
		return result{}, err
	}
	plain, err := runEpisode(cfg, episodeDir(runDir, 0), episodeSeed(o.seed, 0), newTracer(false))
	if err != nil {
		return result{}, err
	}
	if err := plain.r.close(); err != nil {
		return result{}, err
	}
	tr := newTracer(true)
	e, err := runEpisode(cfg, episodeDir(runDir, 1), episodeSeed(o.seed, 0), tr)
	if err != nil {
		return result{}, err
	}
	l := &layerRun{tr: tr, m: map[string]metric{}, dir: filepath.Join(runDir, "layers")}
	l.set("trace.overhead_pct", 100*(serviceP50(e)-serviceP50(plain))/serviceP50(plain), "%")
	l.clusterMetrics(e)
	stamps := l.collectStamps(e.r)
	crashDir, err := l.crashCopy(e.r)
	if cerr := e.r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	steps := []func() error{
		func() error { return l.restartLayers(crashDir) },
		func() error { return l.replayLayers(e, cfg) },
		l.growthProbe,
		l.ringLayer,
	}
	if cfg.roundsInline {
		steps = append(steps, func() error { return l.concurrentOverlaps(cfg, episodeSeed(o.seed, 0)) })
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return result{}, err
		}
	}
	l.coreLayer(stamps)
	tracePath := filepath.Join(o.root, "trace", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(tracePath, o.workload, o.seed); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(out, "trace: %s (%d spans)\n", tracePath, tr.count())
	printReport(out, l.m)
	for _, err := range append(plain.errs, e.errs...) {
		fmt.Fprintln(out, "failure:", err)
	}
	failed := plain.failed + e.failed
	return result{
		Correct:   failed == 0,
		Attempted: len(plain.ops) + plain.checked + len(e.ops) + e.checked,
		Failed:    failed,
		Metrics:   l.m,
	}, nil
}

// serviceP50 is the median time a client op spent inside the program
// (start to stop, not from its due time), in seconds. The median keeps
// the two episodes' rare slow ops, which need not match, out of the
// overhead figure.
func serviceP50(e *episode) float64 {
	xs := make([]float64, len(e.ops))
	for i, op := range e.ops {
		xs[i] = float64(op.stop - op.start)
	}
	return median(xs)
}

// clusterMetrics derives the antientropy, hints and go metrics from the
// traced episode's rounds, spans and ring counters.
func (l *layerRun) clusterMetrics(e *episode) {
	var exchanges []float64
	var skipped, exch, moved, drained, roundErrs int
	for _, rr := range e.rounds {
		exchanges = append(exchanges, float64(rr.exchanges))
		exch += rr.exchanges
		skipped += rr.skipped
		moved += rr.moved
		drained += rr.drained
		roundErrs += rr.roundErrs
	}
	tombs := 0
	if n := len(e.rounds); n > 0 {
		tombs = e.rounds[n-1].tombstones
	}
	l.set("antientropy.round.exchanges", median(exchanges), "count")
	l.set("antientropy.round.skip_ratio", float64(skipped)/float64(max(exch, 1)), "ratio")
	l.set("antientropy.round.moved", float64(moved)/float64(max(len(e.rounds), 1)), "keys/round")
	l.set("antientropy.round.merges", float64(e.r.res.merges.Load()), "count")
	if !e.cfg.roundsInline {
		// Rounds ran beside the client; concurrentOverlaps covers the
		// workloads whose rounds run inline.
		l.set("kvstore.merges_overlapping_ids", float64(e.r.res.overlapping.Load()), "count")
	}
	l.set("antientropy.round.hints_drained", float64(drained), "count")
	l.set("antientropy.round.tombstones_live", float64(tombs), "count")
	l.set("antientropy.round.errors", float64(roundErrs), "count")
	l.set("antientropy.pool.dials", float64(e.r.c.Dials()), "count")

	// Client writes whose span overlaps a round span wait on the cluster
	// mutex and share the CPU with the round; the others run alone.
	var in, idle []float64
	for _, op := range e.ops {
		if op.kind == opRead {
			continue
		}
		lat := us(time.Duration(op.stop - op.due))
		overlaps := false
		for _, rr := range e.rounds {
			if rr.start < op.stop && op.start < rr.stop {
				overlaps = true
				break
			}
		}
		if overlaps {
			in = append(in, lat)
		} else {
			idle = append(idle, lat)
		}
	}
	l.set("antientropy.write_in_round_p99_us", quantile(in, 0.99), "us")
	l.set("antientropy.write_idle_p99_us", quantile(idle, 0.99), "us")
	l.set("antientropy.write_in_round_share", float64(len(in))/float64(max(len(in)+len(idle), 1)), "ratio")

	l.set("hints.pending_max", float64(e.hintsPeak), "count")
	l.set("hints.dropped", float64(e.r.c.HintsDropped()), "count")

	ops := float64(max(len(e.ops), 1))
	l.set("go.alloc_bytes_per_op", float64(e.goD.allocBytes)/ops, "B/op")
	l.set("go.gc_cpu_frac", e.goD.gcCPU/max(e.goD.allCPU, 1e-9), "ratio")
	l.set("go.gc_pause_p99_us", e.goD.pauseQuantileUS(0.99), "us")
}

// concurrentOverlaps runs the traced episode's client phase again (same
// seed) on a fresh ring, with its rounds on the gossip goroutine beside
// the client instead of inline, and reports the merges whose two stamps
// had overlapping ids: causality the stamps lost to rounds racing quorum
// writes. That ring is not checked against the model and no other metric
// comes from it; it measures the race, which the checked episodes of an
// inline workload avoid.
func (l *layerRun) concurrentOverlaps(cfg config, seed int64) error {
	cfg.roundsInline = false
	e, err := runClient(cfg, filepath.Join(l.dir, "concurrent"), seed, newTracer(false))
	if err != nil {
		return err
	}
	l.set("kvstore.merges_overlapping_ids", float64(e.r.res.overlapping.Load()), "count")
	return e.r.close()
}

// stampPair is two owners' copies of one key.
type stampPair struct{ a, b core.Stamp }

// collectStamps reads every key's copy at every node: the stamps the
// workload produced. It reports their sizes and returns same-key pairs
// for the core timings.
func (l *layerRun) collectStamps(r *testRing) []stampPair {
	byKey := make(map[string][]core.Stamp, len(r.keys))
	var sizes []float64
	for i := 0; i < ringNodes; i++ {
		rep, err := r.c.Replica(i)
		if err != nil {
			continue
		}
		for _, k := range r.keys {
			if v, ok := rep.Version(k); ok {
				byKey[k] = append(byKey[k], v.Stamp)
				sizes = append(sizes, float64(v.Stamp.EncodedSize()))
			}
		}
	}
	l.set("core.stamp_bytes_p50", quantile(sizes, 0.5), "B")
	l.set("core.stamp_bytes_p99", quantile(sizes, 0.99), "B")
	l.set("core.stamp_bytes_max", maxOf(sizes), "B")
	var pairs []stampPair
	for _, k := range r.keys {
		if cs := byKey[k]; len(cs) >= 2 {
			pairs = append(pairs, stampPair{cs[0], cs[1]})
		}
	}
	return pairs
}

// crashCopy crashes node 0 (its WAL is abandoned, not checkpointed),
// measures the ring's log bytes per acknowledged user byte, and copies
// node 0's directory for the restart timings.
func (l *layerRun) crashCopy(r *testRing) (string, error) {
	if err := r.c.Kill(0); err != nil {
		return "", fmt.Errorf("kill node 0: %w", err)
	}
	var logBytes int64
	err := filepath.WalkDir(r.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if ext := filepath.Ext(path); ext == ".wal" || ext == ".ckpt" {
			info, err := d.Info()
			if err != nil {
				return err
			}
			logBytes += info.Size()
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	l.set("wal.bytes_per_user_byte", float64(logBytes)/float64(max(r.userBytes, 1)), "ratio")
	dst := filepath.Join(l.dir, "crashed")
	return dst, copyDir(filepath.Join(r.dir, "node-0"), dst)
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// restartLayers times what Revive does, on copies of the crashed node's
// directory: the WAL replay alone, the whole kvstore.Open, WAL
// verification of every stripe, and one full ScrubNext pass.
func (l *layerRun) restartLayers(crashed string) error {
	const tries = 3
	var opens, replays []float64
	for t := 0; t < tries; t++ {
		req := l.req()
		root := l.tr.begin("layer.restart", 0, req)
		dir := filepath.Join(l.dir, fmt.Sprintf("replay-%d", t))
		if err := copyDir(crashed, dir); err != nil {
			return err
		}
		var rerr error
		d := l.timed("wal.Open+ReplayShard", root, req, func() {
			w, err := wal.Open(dir, wal.Options{})
			if err != nil {
				rerr = err
				return
			}
			for s := 0; s < ringStripes && rerr == nil; s++ {
				rerr = w.ReplayShard(s, func([]byte) error { return nil }, func(storage.Record) error { return nil })
			}
			if err := w.Close(); rerr == nil {
				rerr = err
			}
		})
		if rerr != nil {
			return fmt.Errorf("replay copy of crashed node: %w", rerr)
		}
		replays = append(replays, ms(d))

		dir = filepath.Join(l.dir, fmt.Sprintf("open-%d", t))
		if err := copyDir(crashed, dir); err != nil {
			return err
		}
		var rep *kvstore.Replica
		d = l.timed("kvstore.Open", root, req, func() {
			rep, rerr = kvstore.Open(dir, kvstore.Options{Shards: ringStripes})
		})
		if rerr != nil {
			return fmt.Errorf("open copy of crashed node: %w", rerr)
		}
		opens = append(opens, ms(d))
		if t == 0 {
			for s := 0; s < ringStripes; s++ {
				l.timed("kvstore.Replica.ScrubNext", root, req, func() { _, rerr = rep.ScrubNext() })
				if rerr != nil {
					return fmt.Errorf("scrub copy of crashed node: %w", rerr)
				}
			}
		}
		if err := rep.Abandon(); err != nil {
			return err
		}
		if t == 0 {
			w, err := wal.Open(dir, wal.Options{})
			if err != nil {
				return err
			}
			for s := 0; s < ringStripes; s++ {
				l.timed("wal.WAL.VerifyShard", root, req, func() { rerr = w.VerifyShard(s) })
				if rerr != nil {
					return fmt.Errorf("verify copy of crashed node: %w", rerr)
				}
			}
			if err := w.Close(); err != nil {
				return err
			}
		}
		l.tr.end(root)
	}
	l.set("wal.replay_ms", median(replays), "ms")
	l.set("kvstore.open_ms", median(opens), "ms")
	l.set("kvstore.scrub_ms_p50", l.spanQuantile("kvstore.Replica.ScrubNext", 0.5, time.Millisecond, 1), "ms")
	l.set("kvstore.scrub_ms_max", l.spanQuantile("kvstore.Replica.ScrubNext", 1, time.Millisecond, 1), "ms")
	l.set("wal.verify_ms_p50", l.spanQuantile("wal.WAL.VerifyShard", 0.5, time.Millisecond, 1), "ms")
	return nil
}

// replica3 is a coordinator and two followers, the shape of one stripe's
// owner set.
type replica3 struct{ a, b, c *kvstore.Replica }

// openReplica3 opens three replicas: durable the way the ring opens a
// node's replica (WAL, no fsync), or in memory.
func (l *layerRun) openReplica3(durable bool, tag string) (replica3, error) {
	var rs [3]*kvstore.Replica
	for i := range rs {
		label := fmt.Sprintf("%s-%d", tag, i)
		if !durable {
			rs[i] = kvstore.NewReplicaShards(label, ringStripes)
			continue
		}
		r, err := kvstore.Open(filepath.Join(l.dir, label), kvstore.Options{Label: label, Shards: ringStripes})
		if err != nil {
			return replica3{}, err
		}
		rs[i] = r
	}
	return replica3{rs[0], rs[1], rs[2]}, nil
}

func (r3 replica3) close() error {
	var first error
	for _, r := range []*kvstore.Replica{r3.a, r3.b, r3.c} {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// load writes every key at the coordinator and copies it to both
// followers, as a preload through the ring does.
func (r3 replica3) load(keys []string, valueBytes int) error {
	batch := make(map[string][]byte, len(keys))
	for i, k := range keys {
		batch[k] = makeValue(k, uint64(i+1), valueBytes)
	}
	r3.a.PutBatch(batch)
	if _, err := kvstore.Sync(r3.a, r3.b, nil); err != nil {
		return err
	}
	_, err := kvstore.Sync(r3.a, r3.c, nil)
	return err
}

// replay applies the episode's client ops the way a coordinator does:
// Put or Delete locally, SyncKey to both followers; reads are Version and
// Get. Every call is a span named prefix+call.
func (l *layerRun) replay(r3 replica3, e *episode, res kvstore.Resolver, prefix string) error {
	seq := uint64(len(e.r.keys))
	for _, op := range e.ops {
		req := l.req()
		key := e.r.keys[op.key]
		switch op.kind {
		case opRead:
			l.timed(prefix+"kvstore.Replica.Version", 0, req, func() { r3.a.Version(key) })
			l.timed(prefix+"kvstore.Replica.Get", 0, req, func() { r3.a.Get(key) })
			continue
		case opWrite:
			seq++
			v := makeValue(key, seq, e.r.valueBytes)
			l.timed(prefix+"kvstore.Replica.Put", 0, req, func() { r3.a.Put(key, v) })
		case opDelete:
			l.timed(prefix+"kvstore.Replica.Delete", 0, req, func() { r3.a.Delete(key) })
		}
		for _, f := range []*kvstore.Replica{r3.b, r3.c} {
			var err error
			l.timed(prefix+"kvstore.SyncKey", 0, req, func() { _, err = kvstore.SyncKey(r3.a, f, key, res) })
			if err != nil {
				return fmt.Errorf("replay SyncKey %s: %w", key, err)
			}
		}
	}
	return nil
}

// replayLayers replays the traced episode's op stream on a durable and
// an in-memory owner set and times the kvstore, wal, hints and
// anti-entropy calls on the result.
func (l *layerRun) replayLayers(e *episode, cfg config) error {
	res := (&seqResolver{}).resolve
	mem, err := l.openReplica3(false, "mem")
	if err != nil {
		return err
	}
	if err := mem.load(e.r.keys, cfg.valueBytes); err != nil {
		return err
	}
	if err := l.replay(mem, e, res, "mem."); err != nil {
		return err
	}
	l.set("kvstore.put_mem_us_p50", l.spanQuantile("mem.kvstore.Replica.Put", 0.5, time.Microsecond, 1), "us")
	if err := l.syncStripes(mem, e); err != nil {
		return err
	}

	dur, err := l.openReplica3(true, "wal")
	if err != nil {
		return err
	}
	defer dur.close()
	if err := dur.load(e.r.keys, cfg.valueBytes); err != nil {
		return err
	}
	if err := l.replay(dur, e, res, ""); err != nil {
		return err
	}
	l.set("kvstore.put_us_p50", l.spanQuantile("kvstore.Replica.Put", 0.5, time.Microsecond, 1), "us")
	l.set("kvstore.put_us_p99", l.spanQuantile("kvstore.Replica.Put", 0.99, time.Microsecond, 1), "us")
	l.set("kvstore.synckey_us_p50", l.spanQuantile("kvstore.SyncKey", 0.5, time.Microsecond, 1), "us")
	l.set("kvstore.synckey_us_p99", l.spanQuantile("kvstore.SyncKey", 0.99, time.Microsecond, 1), "us")
	l.set("kvstore.version_us_p50", l.spanQuantile("kvstore.Replica.Version", 0.5, time.Microsecond, 1), "us")
	l.set("kvstore.get_us_p50", l.spanQuantile("kvstore.Replica.Get", 0.5, time.Microsecond, 1), "us")

	l.stripeTrees(dur, e)
	copies := l.forkAndMerge(dur, e, res)
	if err := l.hintQueue(copies, cfg); err != nil {
		return err
	}
	return l.walAppend(dur, e)
}

// touchedKeys returns the distinct keys the episode mutated, in first-use
// order, at most n.
func touchedKeys(e *episode, n int) []string {
	seen := make(map[int32]bool)
	var out []string
	for _, op := range e.ops {
		if op.kind == opRead || seen[op.key] {
			continue
		}
		seen[op.key] = true
		out = append(out, e.r.keys[op.key])
		if len(out) == n {
			break
		}
	}
	return out
}

// stripeTrees times StripeTree right after one Put into that stripe, two
// passes over every stripe.
func (l *layerRun) stripeTrees(r3 replica3, e *episode) {
	keyOf := make(map[int]string)
	for _, k := range e.r.keys {
		if s := kvstore.ShardIndex(k, ringStripes); keyOf[s] == "" {
			keyOf[s] = k
		}
	}
	for pass := 0; pass < 2; pass++ {
		for s := 0; s < ringStripes; s++ {
			k, ok := keyOf[s]
			if !ok {
				continue
			}
			req := l.req()
			r3.a.Put(k, makeValue(k, uint64(1<<32+pass), e.r.valueBytes))
			l.timed("kvstore.Replica.StripeTree", 0, req, func() { _, _ = r3.a.StripeTree(s) })
		}
	}
	l.set("kvstore.stripe_tree_ms_p50", l.spanQuantile("kvstore.Replica.StripeTree", 0.5, time.Millisecond, 1), "ms")
	l.set("kvstore.stripe_tree_ms_p90", l.spanQuantile("kvstore.Replica.StripeTree", 0.9, time.Millisecond, 1), "ms")
}

// forkAndMerge detaches copies of the episode's written keys from the
// coordinator (the hinted-write path) and merges them into a follower
// (the hint-drain path).
func (l *layerRun) forkAndMerge(r3 replica3, e *episode, res kvstore.Resolver) []hints.Hint {
	var out []hints.Hint
	for _, k := range touchedKeys(e, 2000) {
		req := l.req()
		var cp kvstore.Versioned
		var ok bool
		l.timed("kvstore.Replica.ForkCopy", 0, req, func() { cp, ok = r3.a.ForkCopy(k) })
		if !ok {
			continue
		}
		out = append(out, hints.Hint{Target: "node-1", Key: k, Value: cp.Value, Deleted: cp.Deleted, Stamp: cp.Stamp})
		l.timed("kvstore.Replica.MergeVersioned", 0, req, func() { _, _ = r3.c.MergeVersioned(k, cp, res) })
	}
	l.set("kvstore.forkcopy_us_p50", l.spanQuantile("kvstore.Replica.ForkCopy", 0.5, time.Microsecond, 1), "us")
	l.set("kvstore.merge_versioned_us_p50", l.spanQuantile("kvstore.Replica.MergeVersioned", 0.5, time.Microsecond, 1), "us")
	return out
}

// hintQueue adds the detached copies to a durable hint queue with the
// workload's cap, taking the queue after every cap's worth of adds.
func (l *layerRun) hintQueue(hs []hints.Hint, cfg config) error {
	w, err := wal.Open(filepath.Join(l.dir, "hints"), wal.Options{})
	if err != nil {
		return err
	}
	q, err := hints.OpenOptions(w, hints.Options{CapPerTarget: cfg.hintCap})
	if err != nil {
		return err
	}
	defer q.Close()
	batch := cfg.hintCap
	if batch == 0 {
		batch = 256
	}
	for i, h := range hs {
		req := l.req()
		var aerr error
		l.timed("hints.Queue.Add", 0, req, func() { aerr = q.Add(h) })
		if aerr != nil {
			return aerr
		}
		if (i+1)%batch == 0 || i == len(hs)-1 {
			var terr error
			l.timed("hints.Queue.Take", 0, req, func() { _, terr = q.Take(h.Target) })
			if terr != nil {
				return terr
			}
		}
	}
	l.set("hints.add_us_p50", l.spanQuantile("hints.Queue.Add", 0.5, time.Microsecond, 1), "us")
	l.set("hints.take_ms_p50", l.spanQuantile("hints.Queue.Take", 0.5, time.Millisecond, 1), "ms")
	return nil
}

// walAppend appends the coordinator's current copies of the episode's
// written keys, as set records, to a fresh WAL.
func (l *layerRun) walAppend(r3 replica3, e *episode) error {
	w, err := wal.Open(filepath.Join(l.dir, "append"), wal.Options{})
	if err != nil {
		return err
	}
	defer w.Close()
	keys := touchedKeys(e, len(e.ops))
	for round := 0; round < 3; round++ {
		for _, k := range keys {
			v, ok := r3.a.Version(k)
			if !ok {
				continue
			}
			rec := storage.Record{Entry: encoding.Entry{Key: k, Value: v.Value, Deleted: v.Deleted, Stamp: v.Stamp}}
			s := kvstore.ShardIndex(k, ringStripes)
			var aerr error
			l.timed("wal.WAL.Append", 0, l.req(), func() { aerr = w.Append(s, rec) })
			if aerr != nil {
				return aerr
			}
		}
	}
	l.set("wal.append_us_p50", l.spanQuantile("wal.WAL.Append", 0.5, time.Microsecond, 1), "us")
	l.set("wal.append_us_p99", l.spanQuantile("wal.WAL.Append", 0.99, time.Microsecond, 1), "us")
	return nil
}

// syncStripes diverges the coordinator from a follower by one round's
// worth of the episode's writes, then times a pooled v4 exchange per
// stripe between them over loopback TCP.
func (l *layerRun) syncStripes(r3 replica3, e *episode) error {
	srv := antientropy.NewServer(r3.b, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	pool := antientropy.NewPool()
	defer pool.Close()
	perRound := e.acked / max(len(e.rounds), 1)
	var bytes []float64
	seq := uint64(1 << 40)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < perRound; i++ {
			op := e.ops[(pass*perRound+i)%len(e.ops)]
			k := e.r.keys[op.key]
			seq++
			r3.a.Put(k, makeValue(k, seq, e.r.valueBytes))
		}
		for s := 0; s < ringStripes; s++ {
			var res kvstore.SyncResult
			var serr error
			l.timed("antientropy.Pool.SyncStripesInfo", 0, l.req(), func() {
				res, _, serr = pool.SyncStripesInfo(addr, r3.a, []int{s})
			})
			if serr != nil {
				return fmt.Errorf("sync stripe %d: %w", s, serr)
			}
			bytes = append(bytes, float64(res.BytesSent+res.BytesReceived))
		}
	}
	l.set("antientropy.sync_stripes_ms_p50", l.spanQuantile("antientropy.Pool.SyncStripesInfo", 0.5, time.Millisecond, 1), "ms")
	l.set("antientropy.sync_stripes_bytes_p50", quantile(bytes, 0.5), "B")
	return nil
}

// coreLayer times the stamp kernel on the workload's own stamps: a
// sample of same-key copy pairs that always includes the largest stamps.
func (l *layerRun) coreLayer(pairs []stampPair) {
	const sample, reps = 2000, 8
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].a.EncodedSize() > pairs[j].a.EncodedSize() })
	if len(pairs) > sample {
		picked := append([]stampPair(nil), pairs[:sample/10]...)
		step := float64(len(pairs)-sample/10) / float64(sample-sample/10)
		for i := 0; i < sample-sample/10; i++ {
			picked = append(picked, pairs[sample/10+int(float64(i)*step)])
		}
		pairs = picked
	}
	var sink core.Stamp
	var ord core.Ordering
	for _, p := range pairs {
		req := l.req()
		l.timed("core.Stamp.Update", 0, req, func() {
			for i := 0; i < reps; i++ {
				sink = p.a.Update()
			}
		})
		l.timed("core.Stamp.Fork", 0, req, func() {
			for i := 0; i < reps; i++ {
				sink, _ = p.a.Fork()
			}
		})
		l.timed("core.Compare", 0, req, func() {
			for i := 0; i < reps; i++ {
				ord = core.Compare(p.a, p.b)
			}
		})
	}
	forks := make([]stampPair, len(pairs))
	for i, p := range pairs {
		forks[i].a, forks[i].b = p.a.Fork()
	}
	for _, f := range forks {
		l.timed("core.Join", 0, l.req(), func() {
			for i := 0; i < reps; i++ {
				sink, _ = core.Join(f.a, f.b)
			}
		})
	}
	// Counted apart from the timed loop, so span bookkeeping is not
	// charged to Join.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, f := range forks {
		sink, _ = core.Join(f.a, f.b)
	}
	runtime.ReadMemStats(&after)
	_, _ = sink, ord
	l.set("core.update_ns_p50", l.spanQuantile("core.Stamp.Update", 0.5, time.Nanosecond, reps), "ns")
	l.set("core.fork_ns_p50", l.spanQuantile("core.Stamp.Fork", 0.5, time.Nanosecond, reps), "ns")
	l.set("core.compare_ns_p50", l.spanQuantile("core.Compare", 0.5, time.Nanosecond, reps), "ns")
	l.set("core.join_ns_p50", l.spanQuantile("core.Join", 0.5, time.Nanosecond, reps), "ns")
	l.set("core.join_allocs", float64(after.Mallocs-before.Mallocs)/float64(max(len(forks), 1)), "allocs/op")
}

// growthProbe is the deterministic stamp-growth probe: N writes to one key
// at a coordinator, each pushed to the R-1 other owners with SyncKey.
// The coordinator's stamp size after N writes, over N, repeats exactly.
func (l *layerRun) growthProbe() error {
	const n = 1000
	r3, err := l.openReplica3(false, "probe")
	if err != nil {
		return err
	}
	req := l.req()
	root := l.tr.begin("layer.growth_probe", 0, req)
	for i := 1; i <= n; i++ {
		r3.a.Put("probe", makeValue("probe", uint64(i), 16))
		for _, f := range []*kvstore.Replica{r3.b, r3.c} {
			if _, err := kvstore.SyncKey(r3.a, f, "probe", nil); err != nil {
				return fmt.Errorf("growth probe: %w", err)
			}
		}
	}
	l.tr.end(root)
	v, _ := r3.a.Version("probe")
	size := v.Stamp.EncodedSize()
	l.set("core.growth_bytes_per_write", float64(size)/n, "B/write")
	l.set("core.growth_stamp_bytes", float64(size), "B")
	return nil
}

// ringLayer times owner lookup on the ring's placement, a control that no
// change to the write path should move.
func (l *layerRun) ringLayer() error {
	ids := make([]string, ringNodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%d", i)
	}
	rg, err := ring.New(ids, ringStripes, ringReplication)
	if err != nil {
		return err
	}
	const reps = 64
	for b := 0; b < 200; b++ {
		s := b % ringStripes
		l.timed("ring.Ring.Owners", 0, l.req(), func() {
			for i := 0; i < reps; i++ {
				_, _ = rg.Owners(s)
			}
		})
	}
	l.set("ring.owners_ns_p50", l.spanQuantile("ring.Ring.Owners", 0.5, time.Nanosecond, reps), "ns")
	return nil
}
