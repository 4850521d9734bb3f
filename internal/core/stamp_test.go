package core

import (
	"math/rand"
	"testing"

	"versionstamp/internal/name"
)

func TestSeed(t *testing.T) {
	s := Seed()
	if s.String() != "[ε|ε]" {
		t.Errorf("Seed() = %v, want [ε|ε]", s)
	}
	if err := CheckI1(s); err != nil {
		t.Errorf("Seed violates I1: %v", err)
	}
	if s.IsZero() {
		t.Error("Seed must not be the zero stamp")
	}
	if !(Stamp{}).IsZero() {
		t.Error("zero Stamp must report IsZero")
	}
}

func TestNewValidatesI1(t *testing.T) {
	// u = {0} ⋢ i = {1}.
	if _, err := New(name.MustParse("0"), name.MustParse("1")); err == nil {
		t.Error("New must reject stamps violating I1")
	}
	s, err := New(name.MustParse("0"), name.MustParse("01"))
	if err != nil {
		t.Fatalf("New({0},{01}): %v", err)
	}
	if s.String() != "[0|01]" {
		t.Errorf("New = %v", s)
	}
}

func TestUpdateCopiesIDIntoUpdate(t *testing.T) {
	s := MustParse("[ε|01]")
	got := s.Update()
	if got.String() != "[01|01]" {
		t.Errorf("Update(%v) = %v, want [01|01]", s, got)
	}
}

func TestUpdateIdempotentOnStamp(t *testing.T) {
	// "after an update, subsequent ones do not affect a version stamp"
	// (paper Section 3).
	s := Seed().Update()
	if !s.Equal(Seed()) {
		t.Errorf("update of the sole element changed the stamp: %v", s)
	}
	s2 := MustParse("[ε|01]").Update()
	if !s2.Update().Equal(s2) {
		t.Errorf("second update changed the stamp: %v -> %v", s2, s2.Update())
	}
}

func TestForkAppendsDigits(t *testing.T) {
	a, b := Seed().Fork()
	if a.String() != "[ε|0]" || b.String() != "[ε|1]" {
		t.Errorf("Fork(seed) = %v, %v", a, b)
	}
	c, d := MustParse("[1|0+1]").Fork()
	if c.String() != "[1|00+10]" || d.String() != "[1|01+11]" {
		t.Errorf("Fork([1|0+1]) = %v, %v", c, d)
	}
}

func TestForkThenJoinRestoresOriginal(t *testing.T) {
	// "A fork followed by a join of the resulting elements should result in
	// an element with the original id" (paper Section 3). With reduction it
	// restores the whole stamp.
	rng := rand.New(rand.NewSource(1))
	frontier := randomFrontier(t, rng, 40)
	for _, s := range frontier {
		a, b := s.Fork()
		back, err := Join(a, b)
		if err != nil {
			t.Fatalf("Join(Fork(%v)): %v", s, err)
		}
		if !back.Equal(s.Reduce()) {
			t.Errorf("Join(Fork(%v)) = %v, want %v", s, back, s.Reduce())
		}
	}
}

func TestForkN(t *testing.T) {
	for n := 1; n <= 9; n++ {
		stamps := Seed().ForkN(n)
		if len(stamps) != n {
			t.Fatalf("ForkN(%d) produced %d stamps", n, len(stamps))
		}
		if err := CheckFrontier(stamps); err != nil {
			t.Fatalf("ForkN(%d) frontier invalid: %v", n, err)
		}
		// Joining everything back restores the seed.
		acc := stamps[0]
		var err error
		for _, s := range stamps[1:] {
			acc, err = Join(acc, s)
			if err != nil {
				t.Fatalf("re-join: %v", err)
			}
		}
		if !acc.Equal(Seed()) {
			t.Fatalf("re-joined ForkN(%d) = %v, want seed", n, acc)
		}
	}
}

// TestForkNBreadthFirst pins ForkN's order against repeated forking of the
// front of a queue: breadth first, shallowest ids first — a quorum write's
// coordinator keeps stamps[0], so its id grows by the tree's least depth.
func TestForkNBreadthFirst(t *testing.T) {
	_, base := Seed().Update().Fork()
	for n := 1; n <= 40; n++ {
		queue := []Stamp{base}
		for len(queue) < n {
			a, b := queue[0].Fork()
			queue = append(queue[1:], a, b)
		}
		got := base.ForkN(n)
		for k := range queue {
			if !got[k].Equal(queue[k]) {
				t.Fatalf("ForkN(%d)[%d] = %v, want %v", n, k, got[k], queue[k])
			}
		}
		if d0, dn := got[0].IDName().MaxDepth(), got[n-1].IDName().MaxDepth(); d0 > dn {
			t.Fatalf("ForkN(%d): first id depth %d exceeds last %d", n, d0, dn)
		}
	}
}

func TestJoinRejectsOverlappingIDs(t *testing.T) {
	s := Seed()
	if _, err := Join(s, s); err == nil {
		t.Error("joining a stamp with itself must fail")
	}
	a, _ := s.Fork()
	aa, _ := a.Fork()
	if _, err := Join(a, aa); err == nil {
		t.Error("joining a stamp with its own descendant must fail")
	}
}

func TestJoinMergesKnowledge(t *testing.T) {
	a, b := Seed().Fork() // [ε|0], [ε|1]
	a = a.Update()        // [0|0]
	b = b.Update()        // [1|1]
	j, err := Join(a, b)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	// u = {0}⊔{1} = {0,1}, i = {0,1}; both reduce to ε.
	if !j.Equal(Seed()) {
		t.Errorf("Join([0|0],[1|1]) = %v, want [ε|ε]", j)
	}
}

func TestSync(t *testing.T) {
	a, b := Seed().Fork()
	a = a.Update() // a has an update b hasn't seen
	if Compare(b, a) != Before {
		t.Fatalf("setup: b should be before a")
	}
	sa, sb, err := Sync(a, b)
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if Compare(sa, sb) != Equal {
		t.Errorf("after sync, replicas must be equivalent: %v vs %v", sa, sb)
	}
	if err := CheckFrontier([]Stamp{sa, sb}); err != nil {
		t.Errorf("post-sync frontier invalid: %v", err)
	}
}

func TestRetire(t *testing.T) {
	a, b := Seed().Fork()
	b = b.Update()
	survivor, err := Retire(a, b)
	if err != nil {
		t.Fatalf("Retire: %v", err)
	}
	// The survivor owns the whole id space again and knows b's update.
	if survivor.String() != "[ε|ε]" {
		t.Errorf("Retire = %v, want [ε|ε]", survivor)
	}
}

// TestFigure4 reproduces every version stamp of Figure 4 of the paper, which
// annotates the execution of Figure 2. The element names follow Figure 2:
//
//	a1 -update-> a2, fork(a2) -> (b1, c1)
//	fork(b1) -> (d1, e1)
//	c1 -update-> c2 -update-> c3
//	f1 = join(e1, c3)
//	g1 = join(d1, f1)         (shown unreduced in the figure)
//	h1 = join(b1, c2)         (the alternative evolution of b1, [1|0+1])
func TestFigure4(t *testing.T) {
	a1 := Seed()
	if got := a1.String(); got != "[ε|ε]" {
		t.Fatalf("a1 = %v, want [ε|ε]", got)
	}
	a2 := a1.Update()
	if got := a2.String(); got != "[ε|ε]" {
		t.Fatalf("a2 = %v, want [ε|ε]", got)
	}
	b1, c1 := a2.Fork()
	if b1.String() != "[ε|0]" || c1.String() != "[ε|1]" {
		t.Fatalf("fork(a2) = %v, %v, want [ε|0], [ε|1]", b1, c1)
	}
	d1, e1 := b1.Fork()
	if d1.String() != "[ε|00]" || e1.String() != "[ε|01]" {
		t.Fatalf("fork(b1) = %v, %v, want [ε|00], [ε|01]", d1, e1)
	}
	c2 := c1.Update()
	if c2.String() != "[1|1]" {
		t.Fatalf("c2 = %v, want [1|1]", c2)
	}
	c3 := c2.Update()
	if c3.String() != "[1|1]" {
		t.Fatalf("c3 = %v, want [1|1] (second update has no effect)", c3)
	}
	f1, err := Join(e1, c3)
	if err != nil {
		t.Fatalf("join(e1,c3): %v", err)
	}
	if f1.String() != "[1|01+1]" {
		t.Fatalf("f1 = %v, want [1|01+1]", f1)
	}
	// The figure displays g1 before simplification.
	g1, err := JoinNoReduce(d1, f1)
	if err != nil {
		t.Fatalf("join(d1,f1): %v", err)
	}
	if g1.String() != "[1|00+01+1]" {
		t.Fatalf("g1 = %v, want [1|00+01+1]", g1)
	}
	// The alternative evolution of b1 shown in the figure: joining b1
	// directly with the updated c element yields [1|0+1].
	h1, err := JoinNoReduce(b1, c2)
	if err != nil {
		t.Fatalf("join(b1,c2): %v", err)
	}
	if h1.String() != "[1|0+1]" {
		t.Fatalf("h1 = %v, want [1|0+1]", h1)
	}
	// Under the reducing model both final joins collapse to the seed: the
	// joined element is alone in its frontier and owns the whole space.
	if got := g1.Reduce(); !got.Equal(Seed()) {
		t.Errorf("reduce(g1) = %v, want [ε|ε]", got)
	}
	if got := h1.Reduce(); !got.Equal(Seed()) {
		t.Errorf("reduce(h1) = %v, want [ε|ε]", got)
	}

	// Frontier sanity at the widest point: {d1, e1, c3}.
	if err := CheckFrontier([]Stamp{d1, e1, c3}); err != nil {
		t.Errorf("frontier {d1,e1,c3} invalid: %v", err)
	}
	// Ordering facts visible in the figure: c3 has seen updates (on the c
	// line) that d1 has not, while d1 has seen none of its own, so d1 is
	// obsolete relative to c3.
	if got := Compare(d1, c3); got != Before {
		t.Errorf("Compare(d1, c3) = %v, want before", got)
	}
	// f1 dominates e1's knowledge: f1 knows c's update.
	if got := Compare(e1, f1); got != Before {
		t.Errorf("Compare(e1, f1) = %v, want before", got)
	}
}

// TestPaperFrontierQueries checks the Section 1.2 discussion around the two
// possible frontiers through element c2 ("•2"): {b1, c2} and {d1, e1, c2}.
func TestPaperFrontierQueries(t *testing.T) {
	a2 := Seed().Update()
	b1, c1 := a2.Fork()
	c2 := c1.Update()
	// Frontier 1: {b1, c2}.
	if err := CheckFrontier([]Stamp{b1, c2}); err != nil {
		t.Fatalf("frontier {b1,c2}: %v", err)
	}
	if got := Compare(b1, c2); got != Before {
		t.Errorf("b1 vs c2 = %v, want before (c2 saw an update b1 did not)", got)
	}
	// Frontier 2: {d1, e1, c2} after b1's bifurcation.
	d1, e1 := b1.Fork()
	if err := CheckFrontier([]Stamp{d1, e1, c2}); err != nil {
		t.Fatalf("frontier {d1,e1,c2}: %v", err)
	}
	if got := Compare(d1, e1); got != Equal {
		t.Errorf("d1 vs e1 = %v, want equal (same updates seen)", got)
	}
}

// randomFrontier builds a random reachable frontier by applying random
// update/fork/join operations starting from the seed. It checks the
// configuration invariants at every step, turning the paper's inductive
// proofs into executable checks.
func randomFrontier(t *testing.T, rng *rand.Rand, ops int) []Stamp {
	t.Helper()
	frontier := []Stamp{Seed()}
	for k := 0; k < ops; k++ {
		switch op := rng.Intn(3); {
		case op == 0: // update
			i := rng.Intn(len(frontier))
			frontier[i] = frontier[i].Update()
		case op == 1 || len(frontier) == 1: // fork
			i := rng.Intn(len(frontier))
			a, b := frontier[i].Fork()
			frontier[i] = a
			frontier = append(frontier, b)
		default: // join
			i := rng.Intn(len(frontier))
			j := rng.Intn(len(frontier))
			if i == j {
				continue
			}
			joined, err := Join(frontier[i], frontier[j])
			if err != nil {
				t.Fatalf("join %v ⊔ %v: %v", frontier[i], frontier[j], err)
			}
			frontier[i] = joined
			frontier = append(frontier[:j], frontier[j+1:]...)
		}
		if err := CheckFrontier(frontier); err != nil {
			t.Fatalf("invariant violated after %d ops: %v", k+1, err)
		}
	}
	return frontier
}

func TestInvariantsUnderRandomTraces(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randomFrontier(t, rng, 120)
	}
}

func TestInvariantsUnderRandomTracesNoReduce(t *testing.T) {
	if testing.Short() {
		// ~10s: unreduced stamps grow large. The reducing variant above
		// covers the same invariants in short mode.
		t.Skip("skipping unreduced random traces in -short mode")
	}
	// The non-reducing model satisfies the same invariants.
	for seed := int64(100); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		frontier := []Stamp{Seed()}
		for k := 0; k < 100; k++ {
			switch op := rng.Intn(3); {
			case op == 0:
				i := rng.Intn(len(frontier))
				frontier[i] = frontier[i].Update()
			case op == 1 || len(frontier) == 1:
				i := rng.Intn(len(frontier))
				a, b := frontier[i].Fork()
				frontier[i] = a
				frontier = append(frontier, b)
			default:
				i, j := rng.Intn(len(frontier)), rng.Intn(len(frontier))
				if i == j {
					continue
				}
				joined, err := JoinNoReduce(frontier[i], frontier[j])
				if err != nil {
					t.Fatalf("join: %v", err)
				}
				frontier[i] = joined
				frontier = append(frontier[:j], frontier[j+1:]...)
			}
			if err := CheckFrontier(frontier); err != nil {
				t.Fatalf("seed %d: invariant violated after %d ops: %v", seed, k+1, err)
			}
		}
	}
}

func TestSingleElementFrontierReducesToSeed(t *testing.T) {
	// Whenever the frontier narrows back to one element, reduction restores
	// ({ε},{ε}) regardless of history.
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		frontier := randomFrontier(t, rng, 60)
		acc := frontier[0]
		var err error
		for _, s := range frontier[1:] {
			acc, err = Join(acc, s)
			if err != nil {
				t.Fatalf("join-all: %v", err)
			}
		}
		if !acc.Equal(Seed()) {
			t.Fatalf("seed %d: join-all = %v, want [ε|ε]", seed, acc)
		}
	}
}

func TestAccessors(t *testing.T) {
	s := MustParse("[1|0+1]")
	if s.UpdateName().String() != "1" {
		t.Errorf("UpdateName = %v", s.UpdateName())
	}
	if s.IDName().String() != "0+1" {
		t.Errorf("IDName = %v", s.IDName())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew must panic on invalid input")
		}
	}()
	MustNew(name.MustParse("0"), name.MustParse("1"))
}
