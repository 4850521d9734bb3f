package kvstore

import (
	"bytes"
	"fmt"

	"versionstamp/internal/core"
)

// This file holds the single-key replication primitives under the
// partitioned cluster's quorum paths: QuorumWrite applies a client write at
// its coordinator and every live owner in one pass, SyncKey converges one
// key between two replicas (read-repair converging owner copies), ForkCopy
// detaches a stamped copy for handoff to a currently unreachable owner,
// and MergeVersioned folds such a copy back in when the owner revives. All
// of them honor the fork-join discipline — a copy that leaves a replica
// does so by Fork, and one that arrives is absorbed by Join — so the id
// space stays exactly as wide as the set of live copies.

// WriteOutcome reports one QuorumWrite.
type WriteOutcome struct {
	// Targets holds each live target's outcome, in the order given — what
	// SyncKey(coord, target) reports for the same states.
	Targets []TargetOutcome
	// Hints holds one detached copy per hinted target, in order, each a
	// live frontier element to queue as that target's hint. Empty when the
	// coordinator holds no copy of the key (a delete of a key it never
	// saw), as ForkCopy reports ok=false then.
	Hints []Versioned
}

// TargetOutcome is one live target's share of a QuorumWrite.
type TargetOutcome struct {
	Result SyncResult
	// Err is the reconcile's failure (a resolver error, or a paged value
	// that could not be read); nil counts as an ack.
	Err error
}

// Acks is the write's ack count: the coordinator plus every live target
// whose reconcile returned no error.
func (o WriteOutcome) Acks() int {
	n := 1
	for _, t := range o.Targets {
		if t.Err == nil {
			n++
		}
	}
	return n
}

// QuorumWrite applies a client write (a put, or a delete when del is set)
// at coord and pushes it to every live target, detaching one stamped copy
// per hinted target as it goes. Its effect on values, tombstones and stamp
// order is that of coord.Put (or Delete), then SyncKey(coord, t) for each
// target in order, then coord.ForkCopy once per hinted target; the cost is
// one pass:
//
//   - The key's stripe lock is taken once at coord and at each target, in
//     the global replica order, and held for the whole write.
//   - In the normal case — every target's copy is absent, or dominated by
//     the coordinator's new copy with disjoint ids — the new stamp forks
//     once, breadth first, into 1+len(targets)+hinted parts
//     (core.Stamp.ForkN): the coordinator keeps the shallowest, so its id
//     grows by one bit per write at R=3, and the targets and hints take
//     the rest in order. Every other case (a stale coordinator after a
//     revive, concurrent copies, overlapping ids, a delete the coordinator
//     had nothing to apply to) runs SyncKey's rules target by target, in
//     memory, under the same locks.
//   - Before any lock is released, each replica whose copy changed
//     appends exactly one frame with the key's final state, the
//     coordinator's first. In the normal case every other frame carries a
//     piece of the id the coordinator's frame gave up, so a crash after
//     any prefix of the appends leaves the recovered copies' ids disjoint.
//
// The error is non-nil only for misuse (a replica named twice); per-target
// failures are reported in the outcome.
func QuorumWrite(coord *Replica, key string, value []byte, del bool, targets []*Replica, hinted int, resolve Resolver) (WriteOutcome, error) {
	var buf [8]*Replica
	locked := append(append(buf[:0], coord), targets...)
	for i, r := range locked {
		for _, o := range locked[i+1:] {
			if r == o {
				return WriteOutcome{}, fmt.Errorf("kvstore: quorum write names replica %q twice", r.label)
			}
		}
	}
	// Insertion sort: R is small, and sort.Slice would allocate.
	for i := 1; i < len(locked); i++ {
		for j := i; j > 0 && replicaBefore(locked[j], locked[j-1]); j-- {
			locked[j], locked[j-1] = locked[j-1], locked[j]
		}
	}
	for _, r := range locked {
		r.shardFor(key).lockMut()
	}
	defer func() {
		for _, r := range locked {
			r.shardFor(key).mu.Unlock()
		}
		// Barrier drains wait for group commit, so they run unlocked.
		for _, r := range locked {
			r.awaitDurable()
		}
	}()

	out := WriteOutcome{Targets: make([]TargetOutcome, len(targets))}
	ci := ShardIndex(key, len(coord.shards))
	// applied: the write changed the coordinator's copy — always for a put,
	// and for a delete when the coordinator held a live copy.
	cv, applied := Versioned{}, true
	if del {
		cv, applied = coord.deleteLocked(ci, key)
	} else {
		cv = coord.putLocked(ci, key, value)
	}
	if applied && dominatesAll(cv.Stamp, key, targets) {
		out.Hints = quorumForkLocked(coord, ci, key, cv, targets, hinted, out.Targets)
	} else {
		out.Hints = quorumReconcileLocked(coord, ci, key, applied, targets, hinted, resolve, out.Targets)
	}
	return out, nil
}

// dominatesAll reports the normal case of a quorum write: every target's
// copy of key is absent, or strictly older than the coordinator's new
// stamp st with an id disjoint from st's. Stripe locks held.
func dominatesAll(st core.Stamp, key string, targets []*Replica) bool {
	for _, t := range targets {
		tv, ok := t.shardFor(key).metaLocked(key)
		if !ok {
			continue
		}
		if !tv.Stamp.IDHandle().IncomparableTo(st.IDHandle()) || core.Compare(tv.Stamp, st) != core.Before {
			return false
		}
	}
	return true
}

// quorumForkLocked is QuorumWrite's normal case: it forks the coordinator's
// new copy cv once into the coordinator's, each target's and each hint's
// copy, installs them, and logs the coordinator's frame before the
// targets'. Every target copy is absent or dominated, so it is replaced
// outright and never needs its old value faulted in. Stripe locks held.
func quorumForkLocked(coord *Replica, ci int, key string, cv Versioned, targets []*Replica, hinted int, outs []TargetOutcome) []Versioned {
	stamps := cv.Stamp.ForkN(1 + len(targets) + hinted)
	cv.Stamp = stamps[0]
	coord.shards[ci].data[key] = cv
	coord.logSet(ci, key, cv)
	for k, t := range targets {
		ti := ShardIndex(key, len(t.shards))
		sh := &t.shards[ti]
		res := &outs[k].Result
		if _, had := sh.metaLocked(key); had {
			res.Reconciled++
		} else {
			res.Transferred++
		}
		if cv.Deleted {
			res.TombstonesLive++
		}
		tv := Versioned{Value: append([]byte(nil), cv.Value...), Deleted: cv.Deleted, Stamp: stamps[1+k]}
		sh.data[key] = tv
		sh.noteTombLocked(key)
		t.logSet(ti, key, tv)
	}
	return detachCopies(cv, stamps[1+len(targets):])
}

// quorumReconcileLocked is QuorumWrite's general case: SyncKey's rules
// applied target by target in memory, then one fork per hint, then one
// frame per changed replica, the coordinator's first. applied reports that
// the write itself already changed the coordinator's copy. Stripe locks
// held.
func quorumReconcileLocked(coord *Replica, ci int, key string, applied bool, targets []*Replica, hinted int, resolve Resolver, outs []TargetOutcome) []Versioned {
	coordChanged := applied
	for k, t := range targets {
		res, err := syncKeyLocked(coord, t, key, resolve)
		outs[k] = TargetOutcome{Result: res, Err: err}
		coordChanged = coordChanged || res.moved()
	}
	var copies []Versioned
	if hinted > 0 {
		if err := coord.promoteLocked(ci, key); err != nil {
			coord.notePersistErr(err)
		} else if cv, ok := coord.shards[ci].data[key]; ok {
			stamps := make([]core.Stamp, hinted)
			for h := range stamps {
				cv.Stamp, stamps[h] = cv.Stamp.Fork()
			}
			coord.shards[ci].data[key] = cv
			copies = detachCopies(cv, stamps)
			coordChanged = true
		}
	}
	if coordChanged {
		coord.shards[ci].noteTombLocked(key)
		coord.logKey(key)
	}
	for k, t := range targets {
		if outs[k].Result.moved() {
			t.shardFor(key).noteTombLocked(key)
			t.logKey(key)
		}
	}
	return copies
}

// detachCopies returns one detached copy of v per stamp.
func detachCopies(v Versioned, stamps []core.Stamp) []Versioned {
	if len(stamps) == 0 {
		return nil
	}
	out := make([]Versioned, len(stamps))
	for h, st := range stamps {
		out[h] = Versioned{Value: append([]byte(nil), v.Value...), Deleted: v.Deleted, Stamp: st}
	}
	return out
}

// SyncKey converges a single key between two replicas, with the same
// semantics one key of a full Sync would get: transfer to the side lacking
// it, reconcile when one side dominates, resolve (or report) conflicts.
// Only the key's two stripe locks are taken, in the global replica order,
// so concurrent SyncKey/Sync calls over overlapping pairs cannot deadlock.
func SyncKey(a, b *Replica, key string, resolve Resolver) (SyncResult, error) {
	if a == b {
		return SyncResult{}, fmt.Errorf("kvstore: sync of a replica with itself")
	}
	sa, sb := a.shardFor(key), b.shardFor(key)
	first, second := sa, sb
	if !replicaBefore(a, b) {
		first, second = sb, sa
	}
	// Registered first so the barrier drain runs after the locks release.
	defer a.awaitDurable()
	defer b.awaitDurable()
	first.lockMut()
	second.lockMut()
	defer second.mu.Unlock()
	defer first.mu.Unlock()
	return syncKeyPromoted(a, b, key, resolve)
}

// ForkCopy forks the key's stamp and returns a detached copy carrying the
// forked descendant, leaving the other descendant on the replica — the
// copy a hinted write queues for a dead owner. The detached copy is a live
// frontier element: it must eventually be absorbed somewhere (normally by
// MergeVersioned at the revived owner), or its id is abandoned. Returns
// ok=false if the replica does not hold the key.
func (r *Replica) ForkCopy(key string) (Versioned, bool) {
	si := ShardIndex(key, len(r.shards))
	sh := &r.shards[si]
	defer r.awaitDurable()
	sh.lockMut()
	defer sh.mu.Unlock()
	if err := r.promoteLocked(si, key); err != nil {
		r.notePersistErr(err)
		return Versioned{}, false
	}
	v, ok := sh.data[key]
	if !ok {
		return Versioned{}, false
	}
	mine, theirs := v.Stamp.Fork()
	v.Stamp = mine
	sh.data[key] = v
	r.logSet(si, key, v)
	return Versioned{
		Value:   append([]byte(nil), v.Value...),
		Deleted: v.Deleted,
		Stamp:   theirs,
	}, true
}

// MergeVersioned absorbs a detached stamped copy (a ForkCopy, typically a
// drained hint) into the replica: the incoming stamp is joined into the
// local one, so its id is reclaimed rather than leaked, and the values
// merge by stamp order — install when absent, adopt when the incoming copy
// dominates (Reconciled), keep the local value when it dominates or the
// copies are equivalent (Pruned), resolve when concurrent (Merged).
//
// On any outcome except a reported conflict, the incoming copy's identity
// is consumed; the caller must not deliver it again. A conflict with a nil
// resolver leaves the replica untouched and reports the key in
// SyncResult.Conflicts — the caller keeps the copy (e.g. requeues the
// hint) and retries with a resolver later.
func (r *Replica) MergeVersioned(key string, in Versioned, resolve Resolver) (SyncResult, error) {
	si := ShardIndex(key, len(r.shards))
	sh := &r.shards[si]
	defer r.awaitDurable()
	sh.lockMut()
	defer sh.mu.Unlock()
	var res SyncResult

	if err := r.promoteLocked(si, key); err != nil {
		return res, err
	}
	local, ok := sh.data[key]
	if !ok {
		nv := Versioned{
			Value:   append([]byte(nil), in.Value...),
			Deleted: in.Deleted,
			Stamp:   in.Stamp,
		}
		sh.data[key] = nv
		sh.noteTombLocked(key)
		r.logSet(si, key, nv)
		res.Transferred++
		return res, nil
	}

	if !local.Stamp.IDName().IncomparableTo(in.Stamp.IDName()) {
		// Overlapping ids: independently created copies with no common seed
		// (see reconcileIndependent). Merge by value and restart the key's
		// stamp system; the replica now holds the only copy, so a bare
		// updated seed suffices.
		var (
			value   []byte
			deleted bool
		)
		switch {
		case local.Deleted == in.Deleted && bytes.Equal(local.Value, in.Value):
			value, deleted = local.Value, local.Deleted
			res.Reconciled++
		case resolve == nil:
			res.Conflicts = append(res.Conflicts, key)
			return res, nil
		default:
			var err error
			value, deleted, err = resolve(key, local, in)
			if err != nil {
				return res, fmt.Errorf("kvstore: resolve %q: %w", key, err)
			}
			res.Merged++
		}
		nv := Versioned{
			Value:   append([]byte(nil), value...),
			Deleted: deleted,
			Stamp:   core.Seed().Update(),
		}
		sh.data[key] = nv
		sh.noteTombLocked(key)
		r.logSet(si, key, nv)
		return res, nil
	}

	rel := core.Compare(local.Stamp, in.Stamp)
	if rel == core.Concurrent && resolve == nil {
		res.Conflicts = append(res.Conflicts, key)
		return res, nil
	}
	joined, err := core.Join(local.Stamp, in.Stamp)
	if err != nil {
		return res, fmt.Errorf("kvstore: join stamps for %q: %w", key, err)
	}
	nv := local
	switch rel {
	case core.Equal, core.After:
		// Local copy is current; only the incoming id is absorbed.
		nv.Stamp = joined
		res.Pruned++
	case core.Before:
		nv = Versioned{
			Value:   append([]byte(nil), in.Value...),
			Deleted: in.Deleted,
			Stamp:   joined,
		}
		res.Reconciled++
	case core.Concurrent:
		value, deleted, rerr := resolve(key, local, in)
		if rerr != nil {
			return res, fmt.Errorf("kvstore: resolve %q: %w", key, rerr)
		}
		nv = Versioned{
			Value:   append([]byte(nil), value...),
			Deleted: deleted,
			// The merge is a new update dominating both inputs.
			Stamp: joined.Update(),
		}
		res.Merged++
	}
	sh.data[key] = nv
	sh.noteTombLocked(key)
	r.logSet(si, key, nv)
	return res, nil
}
