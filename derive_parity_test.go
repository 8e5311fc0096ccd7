package extmesh

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"extmesh/internal/fault"
	"extmesh/internal/route"
)

// modelSlots lists the three condition-model slots of a Network in
// cache-index order.
var modelSlots = [3]struct {
	fm FaultModel
	t  fault.MCCType
}{{Blocks, fault.TypeOne}, {MCC, fault.TypeOne}, {MCC, fault.TypeTwo}}

// checkDerivedSnapshot compares a published snapshot with a fresh New
// over the same faults, piece by piece: the block set, the MCC
// labelings, all three safety-level grids at every node (blocked nodes
// included) and the boundary information of each router view. Each
// MCC model and each view is built only with probability build, so
// the snapshot's lineage derives pieces from versions of different
// ages.
func checkDerivedSnapshot(n *Network, rng *rand.Rand, build float64) error {
	ref, err := New(n.Width(), n.Height(), n.Faults())
	if err != nil {
		return err
	}
	if !slices.Equal(n.faultGrid, ref.faultGrid) {
		return fmt.Errorf("fault grids differ")
	}
	if !slices.Equal(n.Blocks(), ref.Blocks()) {
		return fmt.Errorf("blocks %v, fresh %v", n.Blocks(), ref.Blocks())
	}
	for i := 0; i < n.m.Size(); i++ {
		c := n.m.CoordOf(i)
		if n.blockSet().Status(c) != ref.bs.Status(c) || n.blockSet().BlockAt(c) != ref.bs.BlockAt(c) {
			return fmt.Errorf("node %v: block status %v/%d, fresh %v/%d", c,
				n.blockSet().Status(c), n.blockSet().BlockAt(c), ref.bs.Status(c), ref.bs.BlockAt(c))
		}
	}
	for idx, slot := range modelSlots {
		if idx > 0 && rng.Float64() >= build {
			continue
		}
		if idx > 0 && !slices.Equal(n.mcc(slot.t).BlockedGrid(), ref.mcc(slot.t).BlockedGrid()) {
			return fmt.Errorf("%v MCC labelings differ", slot.t)
		}
		got, err := n.modelFor(slot.fm, slot.t)
		if err != nil {
			return err
		}
		want, err := ref.modelFor(slot.fm, slot.t)
		if err != nil {
			return err
		}
		if !slices.Equal(got.Blocked, want.Blocked) {
			return fmt.Errorf("model %d: blocked grids differ", idx)
		}
		for i := 0; i < n.m.Size(); i++ {
			c := n.m.CoordOf(i)
			if g, w := got.Levels.At(c), want.Levels.At(c); g != w {
				return fmt.Errorf("model %d node %v: level %v, fresh %v", idx, c, g, w)
			}
		}
		for o := 0; o < 4; o++ {
			if rng.Float64() >= build {
				continue
			}
			rg, err := n.router(slot.fm, slot.t)
			if err != nil {
				return err
			}
			rw, err := ref.router(slot.fm, slot.t)
			if err != nil {
				return err
			}
			if err := route.DiffViews(rg, rw, o&1 == 1, o&2 == 2); err != nil {
				return fmt.Errorf("model %d: %w", idx, err)
			}
		}
	}
	for q := 0; q < 4; q++ {
		s := Coord{X: rng.Intn(n.Width()), Y: rng.Intn(n.Height())}
		d := Coord{X: rng.Intn(n.Width()), Y: rng.Intn(n.Height())}
		if n.HasMinimalPath(s, d) != ref.HasMinimalPath(s, d) {
			return fmt.Errorf("HasMinimalPath(%v, %v) differs", s, d)
		}
	}
	return nil
}

// derivationStream applies steps seeded mutations to a width x height
// DynamicNetwork — single AddFault and RemoveFault calls, small Apply
// batches with skipped entries, and occasional wholesale batches that
// change most lines — taking a snapshot after about two steps in three
// (so some versions are never built) and checking it against a fresh
// build.
func derivationStream(t *testing.T, seed int64, width, height, steps int, build float64) *DynamicNetwork {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d, err := NewDynamic(width, height)
	if err != nil {
		t.Fatal(err)
	}
	size := width * height
	maxFaults := size / 25
	node := func() Coord { return Coord{X: rng.Intn(width), Y: rng.Intn(height)} }
	randomFault := func() (Coord, bool) {
		fs := d.Faults()
		if len(fs) == 0 {
			return Coord{}, false
		}
		return fs[rng.Intn(len(fs))], true
	}
	for step := 0; step < steps; step++ {
		switch k := rng.Intn(80); {
		case k < 40 && d.FaultCount() < maxFaults:
			if c := node(); !d.IsFaulty(c) {
				if err := d.AddFault(c); err != nil {
					t.Fatal(err)
				}
			}
		case k < 66:
			if c, ok := randomFault(); ok {
				if err := d.RemoveFault(c); err != nil {
					t.Fatal(err)
				}
			}
		case k < 77:
			var fail, recover []Coord
			for i := rng.Intn(4); i >= 0; i-- {
				fail = append(fail, node())
			}
			for i := rng.Intn(3); i > 0; i-- {
				if c, ok := randomFault(); ok {
					recover = append(recover, c)
				} else {
					recover = append(recover, node()) // healthy: skipped
				}
			}
			if _, _, err := d.Apply(fail, recover); err != nil {
				t.Fatal(err)
			}
		case k < 79: // a burst of faults reaching most lines
			var fail []Coord
			for i := 0; i < size/40; i++ {
				fail = append(fail, node())
			}
			if _, _, err := d.Apply(fail, nil); err != nil {
				t.Fatal(err)
			}
		default: // repair everything
			if _, _, err := d.Apply(nil, d.Faults()); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(3) == 0 {
			continue // skip this version
		}
		n, err := d.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDerivedSnapshot(n, rng, build); err != nil {
			t.Fatalf("seed %d, %dx%d, step %d (version %d, %d faults): %v",
				seed, width, height, step, d.Version(), d.FaultCount(), err)
		}
	}
	return d
}

// TestDerivedSnapshotsMatchFreshBuilds is the derivation parity
// property: every piece of every published snapshot — derived from its
// predecessors by copying the tracker's state, cloning and resweeping
// safety levels, and patching boundary lines — equals a fresh
// extmesh.New over the same faults, over seeded mutation streams on
// random meshes and one paper-scale mesh. The streams must exercise
// every derivation path: fresh builds (first version and fallback),
// patches, and outright sharing.
func TestDerivedSnapshotsMatchFreshBuilds(t *testing.T) {
	var fresh, patched, shared, lFresh, lPatched, lShared uint64
	tally := func(d *DynamicNetwork) {
		for i := range d.lin.views {
			f, p, s := d.lin.views[i].Stats()
			fresh, patched, shared = fresh+f, patched+p, shared+s
		}
		lFresh += d.lin.freshLevels.Load()
		lPatched += d.lin.patchedLevels.Load()
		lShared += d.lin.sharedLevels.Load()
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, h := 16+rng.Intn(49), 16+rng.Intn(49)
		t.Run(fmt.Sprintf("seed%d-%dx%d", seed, w, h), func(t *testing.T) {
			tally(derivationStream(t, seed, w, h, 2000, 0.2))
		})
	}
	t.Run("seed99-200x200", func(t *testing.T) {
		tally(derivationStream(t, 99, 200, 200, 30, 0.15))
	})
	// Fresh builds beyond each stream's first per piece are fallbacks.
	if fresh <= 4*12 || patched == 0 || shared == 0 {
		t.Errorf("views: %d fresh, %d patched, %d shared; every path must run", fresh, patched, shared)
	}
	if lFresh <= 4*2 || lPatched == 0 || lShared == 0 {
		t.Errorf("MCC safety levels: %d fresh, %d patched, %d shared; every path must run", lFresh, lPatched, lShared)
	}
	t.Logf("views: %d fresh, %d patched, %d shared; MCC levels: %d fresh, %d patched, %d shared",
		fresh, patched, shared, lFresh, lPatched, lShared)
}
