package dynamic

import (
	"math/rand"
	"testing"

	"extmesh/internal/mesh"
	"extmesh/internal/safety"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(mesh.Mesh{}); err == nil {
		t.Error("empty mesh should fail")
	}
	if _, err := New(mesh.Mesh{Width: 4, Height: 4}); err != nil {
		t.Errorf("valid mesh rejected: %v", err)
	}
}

func TestAddFaultValidation(t *testing.T) {
	tr, err := New(mesh.Mesh{Width: 6, Height: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AddFault(mesh.Coord{X: 6, Y: 0}); err == nil {
		t.Error("outside fault should fail")
	}
	if err := tr.AddFault(mesh.Coord{X: 2, Y: 2}); err != nil {
		t.Fatalf("AddFault: %v", err)
	}
	if err := tr.AddFault(mesh.Coord{X: 2, Y: 2}); err == nil {
		t.Error("duplicate fault should fail")
	}
	if len(tr.Faults()) != 1 {
		t.Errorf("Faults = %v", tr.Faults())
	}
}

func TestCascadeAndLevels(t *testing.T) {
	m := mesh.Mesh{Width: 8, Height: 8}
	tr, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	// Diagonal pair merges into a 2x2 region incrementally.
	if err := tr.AddFault(mesh.Coord{X: 2, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if cascade, rows, cols := tr.LastUpdateCost(); cascade != 1 || rows != 1 || cols != 1 {
		t.Errorf("first fault cost = (%d,%d,%d), want (1,1,1)", cascade, rows, cols)
	}
	if err := tr.AddFault(mesh.Coord{X: 3, Y: 3}); err != nil {
		t.Fatal(err)
	}
	cascade, rows, cols := tr.LastUpdateCost()
	if cascade != 3 { // the new fault plus the two diagonal gap nodes
		t.Errorf("cascade = %d, want 3", cascade)
	}
	if rows != 2 || cols != 2 {
		t.Errorf("rows/cols = %d/%d, want 2/2", rows, cols)
	}
	for _, c := range []mesh.Coord{{X: 2, Y: 3}, {X: 3, Y: 2}} {
		if !tr.InRegion(c) {
			t.Errorf("gap node %v not in region", c)
		}
	}
	// Level at (0,2) now sees the block 2 hops east.
	if got := tr.Level(mesh.Coord{X: 0, Y: 2}).E; got != 2 {
		t.Errorf("E at (0,2) = %d, want 2", got)
	}
}

// TestIncrementalMatchesBatch is the defining property: after every
// single AddFault in a random arrival sequence, the incrementally
// maintained region grid and safety levels equal the from-scratch
// computation.
func TestIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 25; trial++ {
		w := 8 + rng.Intn(16)
		h := 8 + rng.Intn(16)
		m := mesh.Mesh{Width: w, Height: h}
		tr, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		nFaults := 1 + rng.Intn(m.Size()/6)
		seen := make(map[mesh.Coord]bool, nFaults)
		for f := 0; f < nFaults; f++ {
			c := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
			if seen[c] {
				continue
			}
			seen[c] = true
			if err := tr.AddFault(c); err != nil {
				t.Fatalf("AddFault(%v): %v", c, err)
			}

			_, bs, err := tr.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			batchGrid := bs.BlockedGrid()
			incGrid := tr.BlockedGrid()
			for i := range batchGrid {
				if batchGrid[i] != incGrid[i] {
					t.Fatalf("trial %d after %d faults: region grids differ at %v",
						trial, f+1, m.CoordOf(i))
				}
			}
			want := safety.Compute(m, batchGrid)
			for i := 0; i < m.Size(); i++ {
				c := m.CoordOf(i)
				if tr.Level(c) != want.At(c) {
					t.Fatalf("trial %d after %d faults: level at %v = %v, want %v",
						trial, f+1, c, tr.Level(c), want.At(c))
				}
			}
		}
	}
}

// TestUpdateLocality verifies the paper's maintenance claim: a new
// fault's update cost tracks its cascade, not the mesh size.
func TestUpdateLocality(t *testing.T) {
	m := mesh.Mesh{Width: 64, Height: 64}
	tr, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		c := mesh.Coord{X: rng.Intn(64), Y: rng.Intn(64)}
		if tr.InRegion(c) {
			continue
		}
		if err := tr.AddFault(c); err != nil {
			t.Fatal(err)
		}
		cascade, rows, cols := tr.LastUpdateCost()
		if rows > cascade || cols > cascade {
			t.Fatalf("update touched %d rows/%d cols for a %d-node cascade", rows, cols, cascade)
		}
		if cascade > 16 {
			t.Fatalf("suspiciously large cascade %d for scattered faults", cascade)
		}
	}
}

func TestRemoveFaultValidation(t *testing.T) {
	tr, err := New(mesh.Mesh{Width: 6, Height: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.RemoveFault(mesh.Coord{X: 0, Y: 0}); err == nil {
		t.Error("removing a healthy node should fail")
	}
	if err := tr.RemoveFault(mesh.Coord{X: 9, Y: 0}); err == nil {
		t.Error("removing outside the mesh should fail")
	}
	if err := tr.AddFault(mesh.Coord{X: 2, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tr.RemoveFault(mesh.Coord{X: 2, Y: 2}); err != nil {
		t.Fatalf("RemoveFault: %v", err)
	}
	if tr.InRegion(mesh.Coord{X: 2, Y: 2}) {
		t.Error("repaired node still in region")
	}
	if len(tr.Faults()) != 0 {
		t.Errorf("faults = %v", tr.Faults())
	}
}

func TestRemoveFaultShrinksRegion(t *testing.T) {
	m := mesh.Mesh{Width: 8, Height: 8}
	tr, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	// Diagonal pair forms a 2x2 block; removing one fault dissolves it.
	for _, c := range []mesh.Coord{{X: 2, Y: 2}, {X: 3, Y: 3}} {
		if err := tr.AddFault(c); err != nil {
			t.Fatal(err)
		}
	}
	if !tr.InRegion(mesh.Coord{X: 2, Y: 3}) {
		t.Fatal("setup: gap node should be disabled")
	}
	if err := tr.RemoveFault(mesh.Coord{X: 3, Y: 3}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []mesh.Coord{{X: 2, Y: 3}, {X: 3, Y: 2}, {X: 3, Y: 3}} {
		if tr.InRegion(c) {
			t.Errorf("node %v should be free after repair", c)
		}
	}
	if !tr.InRegion(mesh.Coord{X: 2, Y: 2}) {
		t.Error("remaining fault vanished")
	}
	if got := tr.Level(mesh.Coord{X: 0, Y: 2}).E; got != 2 {
		t.Errorf("E at (0,2) = %d, want 2", got)
	}
}

// TestAddRemoveMatchesBatch runs random interleaved add/remove
// sequences and checks the incremental state equals the from-scratch
// computation after every operation.
func TestAddRemoveMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 15; trial++ {
		w := 8 + rng.Intn(12)
		h := 8 + rng.Intn(12)
		m := mesh.Mesh{Width: w, Height: h}
		tr, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		live := make(map[mesh.Coord]bool)
		for op := 0; op < 60; op++ {
			if len(live) > 0 && rng.Float64() < 0.35 {
				// Remove a random live fault.
				var victim mesh.Coord
				idx := rng.Intn(len(live))
				for c := range live {
					if idx == 0 {
						victim = c
						break
					}
					idx--
				}
				delete(live, victim)
				if err := tr.RemoveFault(victim); err != nil {
					t.Fatalf("RemoveFault(%v): %v", victim, err)
				}
			} else {
				c := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
				if live[c] {
					continue
				}
				live[c] = true
				if err := tr.AddFault(c); err != nil {
					t.Fatalf("AddFault(%v): %v", c, err)
				}
			}

			_, bs, err := tr.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			batch := bs.BlockedGrid()
			inc := tr.BlockedGrid()
			for i := range batch {
				if batch[i] != inc[i] {
					t.Fatalf("trial %d op %d: region grids differ at %v", trial, op, m.CoordOf(i))
				}
			}
			want := safety.Compute(m, batch)
			for i := 0; i < m.Size(); i++ {
				c := m.CoordOf(i)
				if tr.Level(c) != want.At(c) {
					t.Fatalf("trial %d op %d: level at %v = %v, want %v",
						trial, op, c, tr.Level(c), want.At(c))
				}
			}
		}
	}
}

// TestShareIsCopyOnWrite pins Share's contract: the grids it hands out
// keep describing the fault set of the call while the tracker goes on
// mutating, and the tracker's own state keeps matching a batch build.
func TestShareIsCopyOnWrite(t *testing.T) {
	m := mesh.Mesh{Width: 12, Height: 12}
	tr, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []mesh.Coord{{X: 3, Y: 3}, {X: 4, Y: 4}} {
		if err := tr.AddFault(c); err != nil {
			t.Fatal(err)
		}
	}
	faulty, dead, levels := tr.Share()
	wantFaulty := append([]bool(nil), faulty...)
	wantDead := append([]bool(nil), dead...)
	wantLevels := safety.Compute(m, wantDead)

	if err := tr.AddFault(mesh.Coord{X: 8, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tr.RemoveFault(mesh.Coord{X: 3, Y: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Size(); i++ {
		c := m.CoordOf(i)
		if faulty[i] != wantFaulty[i] || dead[i] != wantDead[i] || levels.At(c) != wantLevels.At(c) {
			t.Fatalf("shared state changed at %v after later mutations", c)
		}
	}
	if !tr.IsFaulty(mesh.Coord{X: 8, Y: 2}) || tr.IsFaulty(mesh.Coord{X: 3, Y: 3}) {
		t.Fatal("tracker lost its own mutations")
	}
	want := safety.Compute(m, tr.BlockedGrid())
	for i := 0; i < m.Size(); i++ {
		if c := m.CoordOf(i); tr.Level(c) != want.At(c) {
			t.Fatalf("tracker level at %v = %v, batch %v", c, tr.Level(c), want.At(c))
		}
	}
}
