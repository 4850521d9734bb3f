package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"versionstamp/internal/core"
	"versionstamp/internal/storage"
	"versionstamp/internal/storage/wal"
)

// quorumKey is the one key every quorum-write test writes.
const quorumKey = "quorum-key"

// Owner states a target's copy can start a quorum write in, relative to the
// coordinator's copy.
const (
	qsAbsent      = iota // no copy
	qsEqual              // a forked copy of the coordinator's
	qsStale              // a forked copy the coordinator has since overwritten
	qsNewer              // a forked copy the target has since overwritten (stale coordinator)
	qsConcurrent         // both sides wrote after the fork
	qsOverlapping        // the coordinator's exact stamp, installed verbatim
	qsIndependent        // written at the target with no common seed
	qsTombstone          // a forked copy the target has since deleted
	qsCount
)

var quorumStateNames = [...]string{"absent", "equal", "stale", "newer", "concurrent", "overlapping", "independent", "tombstone"}

// quorumWorld is a coordinator and its live targets holding copies of
// quorumKey, plus the write to apply to them. buildQuorumWorld builds the
// same world, stamps included, from the same seed every time.
type quorumWorld struct {
	coord    *Replica
	targets  []*Replica
	backends []*storage.Memory // per replica, coordinator first; nil = in-memory
	paged    []bool
	hinted   int
	del      bool
	value    []byte
	resolve  Resolver
	states   []int
	desc     string
}

func (w *quorumWorld) replicas() []*Replica {
	return append([]*Replica{w.coord}, w.targets...)
}

func buildQuorumWorld(t *testing.T, seed int64) *quorumWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := &quorumWorld{}
	var desc []string
	newReplica := func(label string) *Replica {
		shards := []int{1, 3, 8}[rng.Intn(3)]
		switch rng.Intn(3) {
		case 0:
			w.backends = append(w.backends, nil)
			w.paged = append(w.paged, false)
			desc = append(desc, label+":mem")
			return NewReplicaShards(label, shards)
		case 1:
			be := storage.NewMemory()
			r, err := OpenBackend(be, label, shards)
			if err != nil {
				t.Fatal(err)
			}
			w.backends = append(w.backends, be)
			w.paged = append(w.paged, false)
			desc = append(desc, label+":durable")
			return r
		default:
			be := storage.NewMemory()
			r, err := OpenBackendPaged(be, label, shards, 0)
			if err != nil {
				t.Fatal(err)
			}
			w.backends = append(w.backends, be)
			w.paged = append(w.paged, true)
			desc = append(desc, label+":paged")
			return r
		}
	}
	w.coord = newReplica("coord")
	nTargets := 1 + rng.Intn(3)
	for k := 0; k < nTargets; k++ {
		w.targets = append(w.targets, newReplica(fmt.Sprintf("t%d", k)))
	}
	w.hinted = rng.Intn(3)

	mustSync := func(tg *Replica) {
		if _, err := SyncKey(w.coord, tg, quorumKey, nil); err != nil {
			t.Fatal(err)
		}
	}
	if rng.Intn(8) != 0 {
		w.coord.Put(quorumKey, []byte("c0"))
		if rng.Intn(6) == 0 {
			w.coord.Delete(quorumKey)
			desc = append(desc, "coord-tombstone")
		}
	} else {
		desc = append(desc, "coord-absent")
	}
	for k, tg := range w.targets {
		st := rng.Intn(qsCount)
		w.states = append(w.states, st)
		desc = append(desc, fmt.Sprintf("t%d=%s", k, quorumStateNames[st]))
		switch st {
		case qsAbsent:
		case qsEqual:
			mustSync(tg)
		case qsStale:
			mustSync(tg)
			w.coord.Put(quorumKey, []byte(fmt.Sprintf("c-after-t%d", k)))
		case qsNewer:
			mustSync(tg)
			tg.Put(quorumKey, []byte(fmt.Sprintf("t%d-newer", k)))
		case qsConcurrent:
			mustSync(tg)
			tg.Put(quorumKey, []byte(fmt.Sprintf("t%d-side", k)))
			w.coord.Put(quorumKey, []byte(fmt.Sprintf("c-side-t%d", k)))
		case qsOverlapping:
			if v, ok := w.coord.Version(quorumKey); ok {
				tg.PutVersion(quorumKey, v)
			}
		case qsIndependent:
			tg.Put(quorumKey, []byte(fmt.Sprintf("t%d-indep", k)))
		case qsTombstone:
			mustSync(tg)
			tg.Delete(quorumKey)
		}
	}
	for i, r := range w.replicas() {
		if w.paged[i] || (w.backends[i] != nil && rng.Intn(2) == 0) {
			// Paged copies go cold: the write must not need their values.
			if err := r.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.del = rng.Intn(4) == 0
	w.value = []byte(fmt.Sprintf("write-%d", seed))
	if rng.Intn(2) == 0 {
		w.resolve = KeepBoth([]byte("|"))
		desc = append(desc, "keep-both")
	} else {
		desc = append(desc, "no-resolver")
	}
	desc = append(desc, fmt.Sprintf("hinted=%d del=%v", w.hinted, w.del))
	w.desc = strings.Join(desc, " ")
	return w
}

// quorumResult is what one way of applying a world's write left behind.
type quorumResult struct {
	copies    []Versioned // coordinator first, then targets
	present   []bool
	hints     []Versioned
	acks      int
	errs      []bool
	conflicts []string
}

// frontier returns the key's frontier: every present owner copy, then the
// detached hint copies.
func (q quorumResult) frontier() []core.Stamp {
	var out []core.Stamp
	for i, v := range q.copies {
		if q.present[i] {
			out = append(out, v.Stamp)
		}
	}
	for _, h := range q.hints {
		out = append(out, h.Stamp)
	}
	return out
}

func collectQuorumResult(w *quorumWorld, hints []Versioned, errs []bool, conflicts []string) quorumResult {
	q := quorumResult{hints: hints, errs: errs, conflicts: conflicts, acks: 1}
	for _, r := range w.replicas() {
		v, ok := r.Version(quorumKey)
		q.copies = append(q.copies, v)
		q.present = append(q.present, ok)
	}
	for _, failed := range errs {
		if !failed {
			q.acks++
		}
	}
	return q
}

// applySequential applies the world's write the way Cluster.write did
// before QuorumWrite: Put or Delete, then SyncKey per live target in
// owner order, then ForkCopy per hinted target.
func applySequential(w *quorumWorld) quorumResult {
	if w.del {
		w.coord.Delete(quorumKey)
	} else {
		w.coord.Put(quorumKey, w.value)
	}
	var (
		errs      []bool
		conflicts []string
		hints     []Versioned
	)
	for _, tg := range w.targets {
		res, err := SyncKey(w.coord, tg, quorumKey, w.resolve)
		errs = append(errs, err != nil)
		conflicts = append(conflicts, res.Conflicts...)
	}
	for h := 0; h < w.hinted; h++ {
		if cp, ok := w.coord.ForkCopy(quorumKey); ok {
			hints = append(hints, cp)
		}
	}
	return collectQuorumResult(w, hints, errs, conflicts)
}

func applyQuorum(t *testing.T, w *quorumWorld) quorumResult {
	t.Helper()
	out, err := QuorumWrite(w.coord, quorumKey, w.value, w.del, w.targets, w.hinted, w.resolve)
	if err != nil {
		t.Fatalf("%s: QuorumWrite: %v", w.desc, err)
	}
	var (
		errs      []bool
		conflicts []string
	)
	for _, to := range out.Targets {
		errs = append(errs, to.Err != nil)
		conflicts = append(conflicts, to.Result.Conflicts...)
	}
	q := collectQuorumResult(w, out.Hints, errs, conflicts)
	if q.acks != out.Acks() {
		t.Fatalf("%s: Acks() = %d, targets without error give %d", w.desc, out.Acks(), q.acks)
	}
	return q
}

// TestQuorumWriteMatchesSequential is the differential property of
// QuorumWrite: on random owner states — absent, equal, stale, newer (a
// stale coordinator), concurrent with and without a resolver, overlapping
// and independent ids, tombstones, over in-memory, durable and paged
// replicas — it leaves every copy with the value and deletion flag the old
// Put + SyncKey + ForkCopy sequence leaves, relates the key's whole
// frontier (owner copies plus hint copies) identically under
// core.Compare, agrees on core.CheckFrontier, acks and conflicts, and
// logs every changed copy so that a reopened durable replica holds
// exactly its in-memory state.
func TestQuorumWriteMatchesSequential(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 150
	}
	var stateSeen [qsCount]int
	fast, general := 0, 0
	for seed := int64(1); seed <= int64(n); seed++ {
		ref, got := buildQuorumWorld(t, seed), buildQuorumWorld(t, seed)
		initial := collectQuorumResult(got, nil, nil, nil)
		// A coordinator without a copy seeds the key afresh, independently of
		// any copy a target holds; only a write that starts from the
		// coordinator's copy must keep a valid frontier valid.
		initialValid := initial.present[0] && core.CheckFrontier(initial.frontier()) == nil
		for _, st := range got.states {
			stateSeen[st]++
		}

		want := applySequential(ref)
		have := applyQuorum(t, got)
		desc := got.desc

		for i := range want.copies {
			if want.present[i] != have.present[i] {
				t.Fatalf("%s: copy %d present=%v, sequential has %v", desc, i, have.present[i], want.present[i])
			}
			wv, hv := want.copies[i], have.copies[i]
			if wv.Deleted != hv.Deleted || !bytes.Equal(wv.Value, hv.Value) {
				t.Fatalf("%s: copy %d = (%q, deleted=%v), sequential has (%q, deleted=%v)",
					desc, i, hv.Value, hv.Deleted, wv.Value, wv.Deleted)
			}
		}
		if len(want.hints) != len(have.hints) {
			t.Fatalf("%s: %d hint copies, sequential has %d", desc, len(have.hints), len(want.hints))
		}
		for h := range want.hints {
			if want.hints[h].Deleted != have.hints[h].Deleted || !bytes.Equal(want.hints[h].Value, have.hints[h].Value) {
				t.Fatalf("%s: hint %d = %+v, sequential has %+v", desc, h, have.hints[h], want.hints[h])
			}
		}
		wf, hf := want.frontier(), have.frontier()
		for x := range wf {
			for y := range wf {
				if wr, hr := core.Compare(wf[x], wf[y]), core.Compare(hf[x], hf[y]); wr != hr {
					t.Fatalf("%s: frontier %d vs %d: %v, sequential has %v", desc, x, y, hr, wr)
				}
			}
		}
		werr, herr := core.CheckFrontier(wf), core.CheckFrontier(hf)
		if (werr == nil) != (herr == nil) {
			t.Fatalf("%s: CheckFrontier = %v, sequential has %v", desc, herr, werr)
		}
		if initialValid && herr != nil {
			t.Fatalf("%s: valid frontier broken by the write: %v", desc, herr)
		}
		if want.acks != have.acks || fmt.Sprint(want.errs) != fmt.Sprint(have.errs) {
			t.Fatalf("%s: acks %d errs %v, sequential has %d %v", desc, have.acks, have.errs, want.acks, want.errs)
		}
		if fmt.Sprint(want.conflicts) != fmt.Sprint(have.conflicts) {
			t.Fatalf("%s: conflicts %v, sequential has %v", desc, have.conflicts, want.conflicts)
		}
		if len(got.targets)+got.hinted > 0 && have.present[0] {
			if have.copies[0].Stamp.Equal(want.copies[0].Stamp) {
				general++
			} else {
				fast++
			}
		}

		for i, r := range got.replicas() {
			if err := r.PersistErr(); err != nil {
				t.Fatalf("%s: replica %d PersistErr = %v", desc, i, err)
			}
			be := got.backends[i]
			if be == nil {
				continue
			}
			if err := r.Abandon(); err != nil {
				t.Fatal(err)
			}
			var re *Replica
			var err error
			if got.paged[i] {
				re, err = OpenBackendPaged(be, r.Label(), r.Shards(), 0)
			} else {
				re, err = OpenBackend(be, r.Label(), r.Shards())
			}
			if err != nil {
				t.Fatal(err)
			}
			requireEqualStamps(t, r, re)
		}
	}
	for st, c := range stateSeen {
		if c < n/20 {
			t.Errorf("state %s drawn %d times in %d worlds", quorumStateNames[st], c, n)
		}
	}
	t.Logf("%d worlds: %d single-fork writes, %d reconciled writes, states %v", n, fast, general, stateSeen)
	if fast < n/10 || general < n/10 {
		t.Errorf("coverage: %d single-fork writes, %d reconciled writes in %d worlds", fast, general, n)
	}
}

// countingBackend counts the frames appended through it.
type countingBackend struct {
	storage.Backend
	appends *int
}

func (c countingBackend) Append(shard int, rec storage.Record) error {
	*c.appends++
	return c.Backend.Append(shard, rec)
}

// countedReplicas opens n replicas whose appends all count into one total.
func countedReplicas(t *testing.T, n int, appends *int) []*Replica {
	t.Helper()
	out := make([]*Replica, n)
	for i := range out {
		r, err := OpenBackend(countingBackend{storage.NewMemory(), appends}, fmt.Sprintf("r%d", i), 4)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

// idBits is the total length of the coordinator copy's id strings.
func idBits(t *testing.T, r *Replica) int {
	t.Helper()
	v, ok := r.Version(quorumKey)
	if !ok {
		t.Fatal("coordinator lost the key")
	}
	return v.Stamp.IDName().TotalBits()
}

// TestQuorumWriteCounts pins the cost of one quorum write at R=3: 3 frames
// with every owner up and 2 frames plus 1 hint copy with one down (the old
// Put + SyncKey + ForkCopy sequence appends 5 and 4), and 1 bit of
// coordinator id growth per write (2 for the old sequence).
func TestQuorumWriteCounts(t *testing.T) {
	var appends int
	rs := countedReplicas(t, 3, &appends)
	coord, targets := rs[0], rs[1:]
	write := func(live []*Replica, hinted int) WriteOutcome {
		t.Helper()
		appends = 0
		out, err := QuorumWrite(coord, quorumKey, []byte("v"), false, live, hinted, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for i := 0; i < 3; i++ {
		if out := write(targets, 0); appends != 3 || out.Acks() != 3 || len(out.Hints) != 0 {
			t.Fatalf("write %d, all up: %d frames, %d acks, %d hints; want 3, 3, 0", i, appends, out.Acks(), len(out.Hints))
		}
	}
	if out := write(targets[:1], 1); appends != 2 || out.Acks() != 2 || len(out.Hints) != 1 {
		t.Fatalf("one owner down: %d frames, %d acks, %d hints; want 2, 2, 1", appends, out.Acks(), len(out.Hints))
	}

	// The sequence QuorumWrite replaces, on the same replicas.
	appends = 0
	coord.Put(quorumKey, []byte("v"))
	for _, tg := range targets {
		if _, err := SyncKey(coord, tg, quorumKey, nil); err != nil {
			t.Fatal(err)
		}
	}
	if appends != 5 {
		t.Fatalf("Put + 2 SyncKey: %d frames, want 5", appends)
	}
	appends = 0
	coord.Put(quorumKey, []byte("v"))
	if _, err := SyncKey(coord, targets[0], quorumKey, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := coord.ForkCopy(quorumKey); !ok {
		t.Fatal("ForkCopy found no copy")
	}
	if appends != 4 {
		t.Fatalf("Put + SyncKey + ForkCopy: %d frames, want 4", appends)
	}

	// Id growth on a fresh key history.
	var n int
	fresh := countedReplicas(t, 3, &n)
	coord, targets = fresh[0], fresh[1:]
	for i := 1; i <= 1000; i++ {
		if _, err := QuorumWrite(coord, quorumKey, []byte("v"), false, targets, 0, nil); err != nil {
			t.Fatal(err)
		}
		if got := idBits(t, coord); got != i {
			t.Fatalf("after %d quorum writes the coordinator's id has %d bits, want %d", i, got, i)
		}
	}
	old := countedReplicas(t, 3, &n)
	for i := 1; i <= 100; i++ {
		old[0].Put(quorumKey, []byte("v"))
		for _, tg := range old[1:] {
			if _, err := SyncKey(old[0], tg, quorumKey, nil); err != nil {
				t.Fatal(err)
			}
		}
		if got := idBits(t, old[0]); got != 2*i {
			t.Fatalf("after %d sequential writes the coordinator's id has %d bits, want %d", i, got, 2*i)
		}
	}
}

// crashingBackend forwards appends until its shared budget runs out and
// drops every one after: the process died between two appends.
type crashingBackend struct {
	storage.Backend
	budget *int // appends still allowed; negative = unlimited
}

func (c crashingBackend) Append(shard int, rec storage.Record) error {
	if *c.budget == 0 {
		return nil
	}
	if *c.budget > 0 {
		*c.budget--
	}
	return c.Backend.Append(shard, rec)
}

// TestQuorumWriteCrashPrefix kills three WAL-backed owners after each of a
// quorum write's appends in turn — coordinator's frame first — and reopens
// them. Whatever prefix survived, the recovered copies' ids are disjoint
// (core.CheckI2), so SyncKey between them never reaches the
// reconcileIndependent reseed, and they converge on the write or on the
// state before it.
func TestQuorumWriteCrashPrefix(t *testing.T) {
	const shards = 4
	for prior := 0; prior < 3; prior++ {
		for survive := 0; survive <= 3; survive++ {
			t.Run(fmt.Sprintf("prior=%d/survive=%d", prior, survive), func(t *testing.T) {
				base := t.TempDir()
				dirs := make([]string, 3)
				budget := -1
				rs := make([]*Replica, 3)
				for i := range rs {
					dirs[i] = filepath.Join(base, fmt.Sprintf("owner-%d", i))
					be, err := wal.Open(dirs[i], wal.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if rs[i], err = OpenBackend(crashingBackend{be, &budget}, dirs[i], shards); err != nil {
						t.Fatal(err)
					}
				}
				for p := 0; p < prior; p++ {
					if _, err := QuorumWrite(rs[0], quorumKey, []byte(fmt.Sprintf("prior-%d", p)), false, rs[1:], 0, nil); err != nil {
						t.Fatal(err)
					}
				}
				budget = survive
				if _, err := QuorumWrite(rs[0], quorumKey, []byte("crash"), false, rs[1:], 0, nil); err != nil {
					t.Fatal(err)
				}
				for _, r := range rs {
					if err := r.Abandon(); err != nil {
						t.Fatal(err)
					}
				}

				re := make([]*Replica, 3)
				for i := range re {
					be, err := wal.Open(dirs[i], wal.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if re[i], err = OpenBackend(be, dirs[i], shards); err != nil {
						t.Fatal(err)
					}
					defer re[i].Close()
				}
				var frontier []core.Stamp
				for i, r := range re {
					v, ok := r.Version(quorumKey)
					// Frames land coordinator first, then targets in order.
					wantNew := i < survive
					switch {
					case wantNew && (!ok || string(v.Value) != "crash"):
						t.Fatalf("owner %d recovered %q, want the crashed write's frame", i, v.Value)
					case !wantNew && ok && string(v.Value) == "crash":
						t.Fatalf("owner %d recovered the write past the crash point", i)
					case !wantNew && ok != (prior > 0):
						t.Fatalf("owner %d recovered present=%v with %d prior writes", i, ok, prior)
					}
					if ok {
						frontier = append(frontier, v.Stamp)
					}
				}
				if err := core.CheckI2(frontier); err != nil {
					t.Fatalf("recovered owner ids overlap: %v", err)
				}
				for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
					a, b := re[pair[0]], re[pair[1]]
					va, okA := a.Version(quorumKey)
					vb, okB := b.Version(quorumKey)
					if okA && okB && !va.Stamp.IDHandle().IncomparableTo(vb.Stamp.IDHandle()) {
						t.Fatalf("owners %d and %d would reseed: ids %v and %v overlap",
							pair[0], pair[1], va.Stamp, vb.Stamp)
					}
					res, err := SyncKey(a, b, quorumKey, nil)
					if err != nil || len(res.Conflicts) != 0 || res.Merged != 0 {
						t.Fatalf("SyncKey(%d, %d) = %+v, %v", pair[0], pair[1], res, err)
					}
				}
				want := "crash"
				if survive == 0 {
					want = fmt.Sprintf("prior-%d", prior-1)
				}
				for i, r := range re {
					v, ok := r.Version(quorumKey)
					if prior == 0 && survive == 0 {
						if ok {
							t.Fatalf("owner %d holds %q after a write that left no frame", i, v.Value)
						}
						continue
					}
					if !ok || string(v.Value) != want {
						t.Fatalf("owner %d converged on %q, want %q", i, v.Value, want)
					}
				}
			})
		}
	}
}

// TestQuorumWriteRejectsRepeatedReplica guards the lock pass: naming one
// replica twice would self-deadlock on its stripe lock.
func TestQuorumWriteRejectsRepeatedReplica(t *testing.T) {
	a, b := NewReplica("a"), NewReplica("b")
	if _, err := QuorumWrite(a, quorumKey, []byte("v"), false, []*Replica{b, a}, 0, nil); err == nil {
		t.Fatal("coordinator named as its own target was accepted")
	}
	if _, err := QuorumWrite(a, quorumKey, []byte("v"), false, []*Replica{b, b}, 0, nil); err == nil {
		t.Fatal("target named twice was accepted")
	}
}

// TestQuorumWriteConcurrent runs quorum writes from every coordinator,
// with varying target orders, against concurrent SyncKey and Sync calls
// over the same replicas. Single-stripe replicas put every key under one
// lock per replica, so the calls contend on every step: the shared lock
// order must keep them deadlock-free (and, under -race, race-free), and a
// final round of Syncs converges every replica. Each coordinator writes
// its own key, so the stamps stay small.
func TestQuorumWriteConcurrent(t *testing.T) {
	rs := []*Replica{NewReplicaShards("a", 1), NewReplicaShards("b", 1), NewReplicaShards("c", 2), NewReplicaShards("d", 1)}
	resolve := KeepBoth([]byte("|"))
	const rounds = 200
	done := make(chan error, len(rs)+1)
	for g := range rs {
		go func(g int) {
			key := fmt.Sprintf("k%d", g)
			for i := 0; i < rounds; i++ {
				a, b := rs[(g+1+i%3)%len(rs)], rs[(g+1+(i+1)%3)%len(rs)]
				if i%2 == 1 {
					a, b = b, a
				}
				if _, err := QuorumWrite(rs[g], key, []byte(fmt.Sprintf("g%d-%d", g, i)), i%7 == 6, []*Replica{a, b}, i%2, resolve); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	go func() {
		for i := 0; i < rounds; i++ {
			a, b := rs[i%len(rs)], rs[(i+1)%len(rs)]
			var err error
			if i%4 == 0 {
				_, err = Sync(b, a, resolve)
			} else {
				_, err = SyncKey(a, b, fmt.Sprintf("k%d", i%len(rs)), resolve)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i <= len(rs); i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i := range rs {
			for j := i + 1; j < len(rs); j++ {
				if _, err := Sync(rs[i], rs[j], resolve); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, r := range rs[1:] {
		if !sameState(stateOf(rs[0]), stateOf(r)) {
			t.Fatalf("replicas diverge after final syncs: %v vs %v", stateOf(rs[0]), stateOf(r))
		}
	}
}
