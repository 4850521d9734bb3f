package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"versionstamp/internal/antientropy"
	"versionstamp/internal/kvstore"
)

// The ring under test: 5 durable nodes, R=3 owners per stripe, majority
// read and write quorums (the RingConfig defaults), 32 stripes.
const (
	ringNodes       = 5
	ringReplication = 3
	ringStripes     = 32
	seqBytes        = 8
)

// makeValue builds the value a client write stores: the write's client
// sequence number (big-endian), then filler derived from the key and the
// sequence number, so a value landing under the wrong key or version
// cannot pass the model check.
func makeValue(key string, seq uint64, size int) []byte {
	if size < seqBytes {
		size = seqBytes
	}
	v := make([]byte, size)
	binary.BigEndian.PutUint64(v, seq)
	h := fnv.New64a()
	_, _ = h.Write([]byte(key)) // hash.Hash.Write never fails
	x := h.Sum64() ^ seq*0x9e3779b97f4a7c15
	for i := seqBytes; i < size; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = byte(x)
	}
	return v
}

func valueSeq(v []byte) uint64 {
	if len(v) < seqBytes {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// seqResolver is the one resolver every workload uses: of two concurrent
// copies it keeps the one with the larger client sequence number, so the
// client's last acknowledged mutation wins. A live value carries its
// sequence number; a tombstone cannot, so the client records each
// delete's sequence number here before issuing it, the way a
// last-writer-wins store keeps a tombstone's timestamp.
//
// Merges counts resolver calls, so the stale-coordinator path stays
// visible. Overlapping counts the calls whose two stamps have overlapping
// ids: the kvstore then treats the copies as unrelated and asks the
// resolver even when one stamp dominates the other, so this count is
// causality the stamps lost.
type seqResolver struct {
	merges      atomic.Int64
	overlapping atomic.Int64
	mu          sync.Mutex
	deleteSeq   map[string]uint64 // latest delete issued per key
}

func (r *seqResolver) noteDelete(key string, seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.deleteSeq == nil {
		r.deleteSeq = make(map[string]uint64)
	}
	r.deleteSeq[key] = seq
}

func (r *seqResolver) seqOf(key string, v kvstore.Versioned) uint64 {
	if !v.Deleted {
		return valueSeq(v.Value)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deleteSeq[key]
}

func (r *seqResolver) resolve(key string, a, b kvstore.Versioned) ([]byte, bool, error) {
	r.merges.Add(1)
	if !a.Stamp.IDName().IncomparableTo(b.Stamp.IDName()) {
		r.overlapping.Add(1)
	}
	if r.seqOf(key, b) > r.seqOf(key, a) {
		a = b
	}
	if a.Deleted {
		return nil, true, nil
	}
	return a.Value, false, nil
}

// modelEntry is the client's record of a key's last acknowledged write.
type modelEntry struct {
	seq     uint64
	deleted bool
	known   bool // false after a failed write left the key's state open
}

// testRing is one ring cluster with its data directory and the client's
// model of it.
type testRing struct {
	c          *antientropy.Cluster
	tr         *tracer // spans around the client's cluster calls; nil = none
	dir        string
	res        *seqResolver
	keys       []string
	model      []modelEntry
	valueBytes int
	seq        uint64
	userBytes  int64 // value bytes of acknowledged writes, preload included
}

// openRing starts a ring over dir (which it creates).
func openRing(dir string, seed int64, hintCap int) (*testRing, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	res := &seqResolver{}
	c, err := antientropy.NewRingCluster(antientropy.RingConfig{
		Nodes:       ringNodes,
		Replication: ringReplication,
		Stripes:     ringStripes,
		Seed:        seed,
		Resolver:    res.resolve,
		DataDir:     dir,
		HintCap:     hintCap,
		// One exchange worker: the round's network work stays on one
		// core, beside the client's, as the load model intends.
		GossipWorkers: 1,
	})
	if err != nil {
		return nil, fmt.Errorf("start ring: %w", err)
	}
	return &testRing{c: c, dir: dir, res: res}, nil
}

// close shuts the ring down and removes its data directory.
func (r *testRing) close() error {
	err := r.c.Close()
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return err
}

func keyName(i int) string { return fmt.Sprintf("user%07d", i) }

// preload writes every key once through the quorum write path.
func (r *testRing) preload(keys, valueBytes int) error {
	r.valueBytes = valueBytes
	r.keys = make([]string, keys)
	r.model = make([]modelEntry, keys)
	for i := range r.keys {
		r.keys[i] = keyName(i)
		if err := r.write(i, 0, 0); err != nil {
			return fmt.Errorf("preload %s: %w", r.keys[i], err)
		}
	}
	return nil
}

// write stores the next client sequence number under key k. The cluster
// call is traced as a child of span parent, in request req.
func (r *testRing) write(k int, parent, req uint64) error {
	r.seq++
	key := r.keys[k]
	v := makeValue(key, r.seq, r.valueBytes)
	id := r.tr.begin("antientropy.Cluster.Write", parent, req)
	_, err := r.c.Write(key, v)
	r.tr.end(id)
	if err != nil {
		r.model[k] = modelEntry{}
		return err
	}
	r.model[k] = modelEntry{seq: r.seq, known: true}
	r.userBytes += int64(r.valueBytes)
	return nil
}

// del deletes key k, traced like write.
func (r *testRing) del(k int, parent, req uint64) error {
	r.seq++
	r.res.noteDelete(r.keys[k], r.seq)
	id := r.tr.begin("antientropy.Cluster.Delete", parent, req)
	_, err := r.c.Delete(r.keys[k])
	r.tr.end(id)
	if err != nil {
		r.model[k] = modelEntry{}
		return err
	}
	r.model[k] = modelEntry{seq: r.seq, deleted: true, known: true}
	return nil
}

// read reads key k and checks it against the model, traced like write.
// A mismatch is reported as an error.
func (r *testRing) read(k int, parent, req uint64) error {
	id := r.tr.begin("antientropy.Cluster.Read", parent, req)
	v, ok, err := r.c.Read(r.keys[k])
	r.tr.end(id)
	if err != nil {
		return err
	}
	return r.check(k, v, ok)
}

func (r *testRing) check(k int, v []byte, ok bool) error {
	m := r.model[k]
	key := r.keys[k]
	switch {
	case !m.known:
		return fmt.Errorf("%s: state unknown after a failed write", key)
	case m.deleted && ok:
		return fmt.Errorf("%s: deleted at seq %d but reads seq %d", key, m.seq, valueSeq(v))
	case !m.deleted && !ok:
		return fmt.Errorf("%s: written at seq %d but reads absent", key, m.seq)
	case !m.deleted && !bytes.Equal(v, makeValue(key, m.seq, r.valueBytes)):
		return fmt.Errorf("%s: written at seq %d but reads seq %d", key, m.seq, valueSeq(v))
	}
	return nil
}

// verify is the end-of-episode correctness check: it drives rounds until
// the ring converges, then checks that every key reads back its last
// acknowledged value and that no node has a quarantined stripe or a
// standing persistence error. It returns the checks attempted and the
// failures, each failure described in errs (capped).
func (r *testRing) verify(maxRounds int) (attempted, failed int, errs []error) {
	note := func(err error) {
		failed++
		if len(errs) < 5 {
			errs = append(errs, err)
		}
	}
	attempted++
	converged := r.c.Converged()
	for round := 0; !converged && round < maxRounds; round++ {
		if _, err := r.c.GossipRoundStats(1); err != nil {
			note(fmt.Errorf("verify round: %w", err))
		}
		converged = r.c.Converged()
	}
	if !converged {
		note(fmt.Errorf("ring did not converge within %d rounds", maxRounds))
		for _, err := range r.disagreements(3) {
			note(err)
		}
	}
	for k := range r.keys {
		attempted++
		if err := r.read(k, 0, 0); err != nil {
			note(err)
		}
	}
	for i := 0; i < ringNodes; i++ {
		attempted++
		st, err := r.c.Status(i)
		switch {
		case err != nil:
			note(err)
		case len(st.Quarantined) > 0:
			note(fmt.Errorf("%s: stripes %v quarantined", st.ID, st.Quarantined))
		case st.PersistErr != "":
			note(fmt.Errorf("%s: persist error: %s", st.ID, st.PersistErr))
		}
	}
	return attempted, failed, errs
}

// disagreements describes up to n keys whose owners hold different
// values, with each owner's copy, for a ring that did not converge.
func (r *testRing) disagreements(n int) []error {
	owners := make([][]int, ringStripes)
	ids := make([]string, ringNodes)
	for i := range ids {
		st, err := r.c.Status(i)
		if err != nil {
			return []error{err}
		}
		ids[i] = st.ID
		for _, s := range st.OwnedStripes {
			owners[s] = append(owners[s], i)
		}
	}
	var out []error
	for _, key := range r.keys {
		var copies []string
		first, differ := "", false
		for _, i := range owners[kvstore.ShardIndex(key, ringStripes)] {
			rep, err := r.c.Replica(i)
			if err != nil {
				return append(out, err)
			}
			val, desc := "absent", "absent"
			if v, ok := rep.Version(key); ok {
				val = fmt.Sprintf("seq %d", valueSeq(v.Value))
				if v.Deleted {
					val = "tombstone"
				}
				desc = fmt.Sprintf("%s, stamp %v", val, v.Stamp)
			}
			if len(copies) == 0 {
				first = val
			} else if val != first {
				differ = true
			}
			copies = append(copies, ids[i]+": "+desc)
		}
		if differ {
			out = append(out, fmt.Errorf("%s: owners disagree: %s", key, strings.Join(copies, "; ")))
			if len(out) == n {
				break
			}
		}
	}
	return out
}
