package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"
)

// setupsPerRun is how many ring set-ups a run times at least; setup_s is
// their median.
const setupsPerRun = 3

// config sizes one workload. The measured phase of an episode is fixed by
// operation count, not wall time: a write's cost grows with its key's
// write history, so both sides of a comparison must do the same stamp work.
type config struct {
	keys         int
	valueBytes   int
	ops          int     // client ops per episode (crash-catchup: per phase)
	roundEvery   int     // client ops between gossip rounds; 0 = back to back
	roundsInline bool    // the client runs each round itself, between two ops
	rate         float64 // open-loop ops per second; 0 = closed loop
	readPct      int     // share of reads; the rest splits into writes and deletes
	deletePct    int
	zipf         bool // Zipf(s=1.1) over key ranks; false = uniform
	hintCap      int  // per-target hint cap; 0 = unbounded
	cycles       int  // crash-catchup: nodes crashed in turn
	warmUpFull   bool // warm up with a full-size episode rather than a small one
}

// workloads are the named workloads at full size.
var workloads = map[string]config{
	// The hottest key is rewritten about 1,400 times per episode:
	// coordinator, stamp kernel (stamp growth), stripe locks, WAL append.
	// Rounds run between client ops: a round racing the quorum writes of
	// a hot key loses the key's causality and can leave its owners
	// diverged for good (see DESIGN.md, Findings).
	"zipf-serve": {keys: 20000, valueBytes: 100, ops: 32000, roundEvery: 4000,
		roundsInline: true, readPct: 70, deletePct: 5, zipf: true, warmUpFull: true},
	// Large stripes, keys written about once: digest-tree rebuilds,
	// ScrubNext and v4 rounds over 8,192-key stripes, and the stall a
	// round's locked phases put on an open-loop client.
	"uniform-large": {keys: 262144, valueBytes: 100, ops: 40000, rate: 2000,
		readPct: 50},
	// Crash, write past the hint cap, revive, catch up — every node in
	// turn: ForkCopy plus hint instead of SyncKey, WAL replay, hint drain,
	// MergeVersioned and v4 rounds carrying real divergence.
	"crash-catchup": {keys: 50000, valueBytes: 100, ops: 3000, roundEvery: 500,
		readPct: 25, hintCap: 256, cycles: ringNodes, warmUpFull: true},
}

// smallConfig is cfg shrunk, for the benchmark's own test and for the
// warm-up of a workload too large to warm up at full size.
func smallConfig(cfg config) config {
	cfg.keys /= 50
	cfg.ops /= 20
	if cfg.roundEvery > 0 {
		cfg.roundEvery /= 10
	}
	if cfg.rate > 0 {
		cfg.rate *= 2
	}
	if cfg.hintCap > 0 {
		cfg.hintCap /= 10
	}
	return cfg
}

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opDelete
)

// opRec is one client operation: when it was due (open loop), started and
// ended, in ns since the episode's time base.
type opRec struct {
	kind             opKind
	key              int32
	due, start, stop int64
}

// roundRec is one gossip round as the benchmark observed it.
type roundRec struct {
	start, stop int64
	exchanges   int
	skipped     int
	moved       int
	drained     int
	tombstones  int
	roundErrs   int
	bytes       int64 // each exchange counted once
}

// episode is one set-up ring plus the workload run on it.
type episode struct {
	cfg  config
	r    *testRing
	tr   *tracer
	base time.Time
	rng  *rand.Rand
	zipf *rand.Zipf

	setup     time.Duration
	opTime    time.Duration   // time the client spent issuing ops
	phases    []time.Duration // duration of each client phase
	phaseOps  []int           // ops issued in each client phase
	cpu       time.Duration
	goD       goDelta
	heapMB    float64
	ops       []opRec
	rounds    []roundRec
	acked     int // acknowledged mutations in the measured phase
	revive    []time.Duration
	hintsPeak int // most hints queued, sampled before each revive
	catchup   []time.Duration
	failed    int
	checked   int
	errs      []error
	roundReq  uint64
	mu        sync.Mutex // guards rounds, roundReq, failed, errs (client and gossip goroutines)
}

func (e *episode) now() int64 { return time.Since(e.base).Nanoseconds() }

func (e *episode) fail(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failed++
	if len(e.errs) < 5 {
		e.errs = append(e.errs, err)
	}
}

// setupRing starts a ring in dir, preloads it and runs one warm-up round,
// so the digest trees the first measured round would otherwise build
// lazily are already built. It returns the set-up time.
func setupRing(cfg config, dir string, seed int64) (*testRing, time.Duration, error) {
	t0 := time.Now()
	r, err := openRing(dir, seed, cfg.hintCap)
	if err != nil {
		return nil, 0, err
	}
	if err := r.preload(cfg.keys, cfg.valueBytes); err != nil {
		_ = r.close()
		return nil, 0, err
	}
	if _, err := r.c.GossipRoundStats(1); err != nil {
		_ = r.close()
		return nil, 0, fmt.Errorf("warm-up round: %w", err)
	}
	return r, time.Since(t0), nil
}

// runEpisode sets up a ring and runs the workload on it, then checks the
// ring against the client's model. The ring stays open for the caller.
func runEpisode(cfg config, dir string, seed int64, tr *tracer) (*episode, error) {
	e, err := runClient(cfg, dir, seed, tr)
	if err != nil {
		return nil, err
	}
	attempted, failed, errs := e.r.verify(100)
	e.checked += attempted
	for _, err := range errs {
		e.fail(err)
	}
	e.failed += failed - len(errs) // verify keeps only the first few errors
	return e, nil
}

// runClient sets up a ring and runs the workload's client phase on it,
// with its rounds. The ring stays open for the caller.
func runClient(cfg config, dir string, seed int64, tr *tracer) (*episode, error) {
	r, setup, err := setupRing(cfg, dir, seed)
	if err != nil {
		return nil, err
	}
	e := &episode{cfg: cfg, r: r, tr: tr, setup: setup,
		rng: rand.New(rand.NewSource(seed))}
	if cfg.zipf {
		e.zipf = rand.NewZipf(e.rng, 1.1, 1, uint64(cfg.keys-1))
	}
	e.base = tr.epoch
	r.tr = tr
	cpu0, go0 := cpuTime(), readGo()
	switch {
	case cfg.cycles > 0:
		err = e.crashCycles()
	case cfg.rate > 0:
		err = e.openLoop()
	default:
		err = e.closedLoop(cfg.ops)
	}
	e.cpu = cpuTime() - cpu0
	e.goD.add(go0, readGo())
	if err != nil {
		_ = r.close()
		return nil, err
	}
	e.heapMB = heapLiveMB()
	r.tr = nil
	return e, nil
}

// pickKey draws the next key index.
func (e *episode) pickKey() int {
	if e.zipf != nil {
		// Rank r is key r: the hot key, and so the stripe it lives in,
		// is a property of the workload rather than of the seed.
		return int(e.zipf.Uint64())
	}
	return e.rng.Intn(e.cfg.keys)
}

func (e *episode) pickKind() opKind {
	x := e.rng.Intn(100)
	switch {
	case x < e.cfg.readPct:
		return opRead
	case x < 100-e.cfg.deletePct:
		return opWrite
	default:
		return opDelete
	}
}

var opNames = [...]string{"client.read", "client.write", "client.delete"}

// do runs one client op and records it.
func (e *episode) do(kind opKind, k int, due int64) {
	req := uint64(len(e.ops) + 1)
	root := e.tr.begin(opNames[kind], 0, req)
	start := e.now()
	if due == 0 {
		due = start
	}
	var err error
	switch kind {
	case opRead:
		err = e.r.read(k, root, req)
	case opWrite:
		err = e.r.write(k, root, req)
	case opDelete:
		err = e.r.del(k, root, req)
	}
	stop := e.now()
	e.tr.end(root)
	rec := opRec{kind: kind, key: int32(k), due: due, start: start, stop: stop}
	if err != nil {
		e.fail(fmt.Errorf("%s %s: %w", opNames[kind], e.r.keys[k], err))
	} else if kind != opRead {
		e.acked++
	}
	e.ops = append(e.ops, rec)
}

// round runs one gossip round and records it.
func (e *episode) round() {
	e.mu.Lock()
	e.roundReq++
	req := 1<<40 + e.roundReq
	e.mu.Unlock()
	id := e.tr.begin("antientropy.Cluster.GossipRoundStats", 0, req)
	start := e.now()
	st, err := e.r.c.GossipRoundStats(1)
	stop := e.now()
	e.tr.end(id)
	rec := roundRec{start: start, stop: stop, exchanges: st.Exchanges, skipped: st.StripesSkipped,
		moved: st.Moved, drained: st.HintsDrained, tombstones: st.TombstonesLive,
		roundErrs: len(st.Errors)}
	for _, b := range st.BytesPerNode {
		rec.bytes += b
	}
	rec.bytes /= 2 // both endpoints are charged each exchange
	e.mu.Lock()
	e.rounds = append(e.rounds, rec)
	e.mu.Unlock()
	if err != nil {
		e.fail(fmt.Errorf("gossip round: %w", err))
	}
}

// gossiper is the one goroutine driving gossip rounds while the client
// runs: on a trigger every roundEvery client ops, or back to back.
type gossiper struct {
	e    *episode
	trig chan struct{}
	stop chan struct{}
	done chan struct{}
}

// startGossip starts the gossip goroutine. With triggers > 0 it runs one
// round per trigger (the channel holds every trigger of the phase, so the
// client never waits and no round is skipped); otherwise rounds run back
// to back until finish.
func (e *episode) startGossip(triggers int) *gossiper {
	g := &gossiper{e: e, stop: make(chan struct{}), done: make(chan struct{})}
	if triggers > 0 {
		g.trig = make(chan struct{}, triggers)
	}
	go func() {
		defer close(g.done)
		if g.trig != nil {
			for range g.trig {
				e.round()
			}
			return
		}
		for {
			select {
			case <-g.stop:
				return
			default:
				e.round()
			}
		}
	}()
	return g
}

// tick is called by the client after each op.
func (g *gossiper) tick(opsDone int) {
	if g.trig != nil && opsDone%g.e.cfg.roundEvery == 0 {
		g.trig <- struct{}{}
	}
}

// finish runs the rounds still triggered, stops the goroutine and waits
// for it to exit.
func (g *gossiper) finish() {
	if g.trig != nil {
		close(g.trig)
	} else {
		close(g.stop)
	}
	<-g.done
}

func (e *episode) notePhase(ops int, d time.Duration) {
	e.opTime += d
	e.phases = append(e.phases, d)
	e.phaseOps = append(e.phaseOps, ops)
}

// closedLoop issues n ops back to back from one client. With
// cfg.roundsInline the client runs a round after every roundEvery ops
// itself, and each stretch of ops between two rounds is a client phase of
// its own, so ops_per_s stays the client path's rate; otherwise the
// gossip goroutine runs the rounds beside the client.
func (e *episode) closedLoop(n int) error {
	if e.cfg.roundsInline {
		for done := 0; done < n; {
			chunk := min(e.cfg.roundEvery, n-done)
			t0 := time.Now()
			for i := 0; i < chunk; i++ {
				e.do(e.pickKind(), e.pickKey(), 0)
			}
			e.notePhase(chunk, time.Since(t0))
			done += chunk
			if done%e.cfg.roundEvery == 0 {
				e.round()
			}
		}
		return nil
	}
	g := e.startGossip(n/e.cfg.roundEvery + 1)
	t0 := time.Now()
	for i := 1; i <= n; i++ {
		e.do(e.pickKind(), e.pickKey(), 0)
		g.tick(i)
	}
	e.notePhase(n, time.Since(t0))
	g.finish()
	return nil
}

// openLoop issues cfg.ops ops at cfg.rate, each due at a fixed time; an op
// that starts late is timed from when it was due.
func (e *episode) openLoop() error {
	g := e.startGossip(0)
	interval := float64(time.Second) / e.cfg.rate
	t0 := e.now()
	for i := 0; i < e.cfg.ops; i++ {
		due := t0 + int64(float64(i)*interval)
		if wait := due - e.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		e.do(e.pickKind(), e.pickKey(), due)
	}
	e.notePhase(e.cfg.ops, time.Duration(e.now()-t0))
	g.finish()
	return nil
}

// crashCycles crashes each node in turn: writes continue while it is
// down (past the hint cap), it revives, writes continue, and rounds run
// until the ring converges. Catch-up time counts round time only, from
// Revive returning to convergence.
func (e *episode) crashCycles() error {
	for cycle := 0; cycle < e.cfg.cycles; cycle++ {
		victim := cycle % ringNodes
		if err := e.r.c.Kill(victim); err != nil {
			return fmt.Errorf("kill node %d: %w", victim, err)
		}
		if err := e.closedLoop(e.cfg.ops); err != nil {
			return err
		}
		e.hintsPeak = max(e.hintsPeak, e.r.c.HintsPending())
		id := e.tr.begin("antientropy.Cluster.Revive", 0, 1<<41+uint64(cycle))
		t0 := time.Now()
		err := e.r.c.Revive(victim)
		e.revive = append(e.revive, time.Since(t0))
		e.tr.end(id)
		if err != nil {
			return fmt.Errorf("revive node %d: %w", victim, err)
		}
		e.mu.Lock()
		first := len(e.rounds)
		e.mu.Unlock()
		if err := e.closedLoop(e.cfg.ops); err != nil {
			return err
		}
		converged := e.r.c.Converged()
		for n := 0; !converged && n < 100; n++ {
			e.round()
			converged = e.r.c.Converged()
		}
		if !converged {
			return fmt.Errorf("node %d did not catch up within 100 rounds", victim)
		}
		var catchup time.Duration
		for _, rr := range e.rounds[first:] {
			catchup += time.Duration(rr.stop - rr.start)
		}
		e.catchup = append(e.catchup, catchup)
	}
	return nil
}

// episodeDir names the data directory of one ring.
func episodeDir(root string, n int) string {
	return filepath.Join(root, fmt.Sprintf("ring-%d", n))
}
