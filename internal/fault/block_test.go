package fault

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"extmesh/internal/mesh"
)

// paperFaults is the eight-fault example of Figure 1(a) in the paper,
// which forms the single faulty block [2:6, 3:6].
var paperFaults = []mesh.Coord{
	{X: 3, Y: 3}, {X: 3, Y: 4}, {X: 4, Y: 4}, {X: 5, Y: 4},
	{X: 6, Y: 4}, {X: 2, Y: 5}, {X: 5, Y: 5}, {X: 3, Y: 6},
}

func mustScenario(t *testing.T, m mesh.Mesh, faults []mesh.Coord) *Scenario {
	t.Helper()
	s, err := NewScenario(m, faults)
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	return s
}

func TestNewScenarioValidation(t *testing.T) {
	m := mesh.Mesh{Width: 10, Height: 10}
	tests := []struct {
		name    string
		faults  []mesh.Coord
		wantErr bool
	}{
		{name: "empty", faults: nil},
		{name: "valid", faults: []mesh.Coord{{X: 1, Y: 1}, {X: 2, Y: 3}}},
		{name: "outside", faults: []mesh.Coord{{X: 10, Y: 0}}, wantErr: true},
		{name: "negative", faults: []mesh.Coord{{X: -1, Y: 0}}, wantErr: true},
		{name: "duplicate", faults: []mesh.Coord{{X: 1, Y: 1}, {X: 1, Y: 1}}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewScenario(m, tt.faults)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewScenario err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
	if _, err := NewScenario(mesh.Mesh{}, nil); err == nil {
		t.Error("NewScenario with empty mesh should fail")
	}
}

func TestScenarioIsFaulty(t *testing.T) {
	m := mesh.Mesh{Width: 5, Height: 5}
	s := mustScenario(t, m, []mesh.Coord{{X: 2, Y: 2}})
	if !s.IsFaulty(mesh.Coord{X: 2, Y: 2}) {
		t.Error("fault not reported")
	}
	if s.IsFaulty(mesh.Coord{X: 2, Y: 3}) {
		t.Error("healthy node reported faulty")
	}
	if s.IsFaulty(mesh.Coord{X: -1, Y: 0}) {
		t.Error("outside node reported faulty")
	}
	if got := s.FaultCount(); got != 1 {
		t.Errorf("FaultCount = %d, want 1", got)
	}
}

func TestBuildBlocksPaperExample(t *testing.T) {
	m := mesh.Mesh{Width: 12, Height: 12}
	s := mustScenario(t, m, paperFaults)
	bs := BuildBlocks(s)

	if len(bs.Blocks) != 1 {
		t.Fatalf("got %d blocks %v, want 1", len(bs.Blocks), bs.Blocks)
	}
	want := mesh.Rect{MinX: 2, MinY: 3, MaxX: 6, MaxY: 6}
	if bs.Blocks[0] != want {
		t.Fatalf("block = %v, want %v", bs.Blocks[0], want)
	}
	// Every node of the rectangle is faulty or disabled; everything
	// outside is enabled.
	for y := 0; y < m.Height; y++ {
		for x := 0; x < m.Width; x++ {
			c := mesh.Coord{X: x, Y: y}
			inRect := want.Contains(c)
			if got := bs.InBlock(c); got != inRect {
				t.Errorf("InBlock(%v) = %v, want %v", c, got, inRect)
			}
		}
	}
	// 20 nodes in the rectangle, 8 faulty, so 12 disabled.
	if got := bs.DisabledCount(); got != 12 {
		t.Errorf("DisabledCount = %d, want 12", got)
	}
	// Block index lookups.
	if got := bs.BlockAt(mesh.Coord{X: 4, Y: 5}); got != 0 {
		t.Errorf("BlockAt inside = %d, want 0", got)
	}
	if got := bs.BlockAt(mesh.Coord{X: 0, Y: 0}); got != -1 {
		t.Errorf("BlockAt outside = %d, want -1", got)
	}
}

func TestBuildBlocksNoFaults(t *testing.T) {
	m := mesh.Mesh{Width: 8, Height: 8}
	bs := BuildBlocks(mustScenario(t, m, nil))
	if len(bs.Blocks) != 0 {
		t.Errorf("blocks = %v, want none", bs.Blocks)
	}
	if bs.DisabledCount() != 0 {
		t.Error("disabled nodes without faults")
	}
}

func TestBuildBlocksSingleFault(t *testing.T) {
	m := mesh.Mesh{Width: 8, Height: 8}
	bs := BuildBlocks(mustScenario(t, m, []mesh.Coord{{X: 3, Y: 3}}))
	if len(bs.Blocks) != 1 || bs.Blocks[0] != mesh.RectAround(mesh.Coord{X: 3, Y: 3}) {
		t.Errorf("blocks = %v, want single 1x1 at (3,3)", bs.Blocks)
	}
	if bs.DisabledCount() != 0 {
		t.Error("a lone fault must not disable neighbors")
	}
}

func TestBuildBlocksDiagonalMerge(t *testing.T) {
	// Faults at (0,0) and (1,1): node (0,1) has a faulty Y-neighbor
	// (0,0) and faulty X-neighbor (1,1), likewise (1,0); the four nodes
	// merge into the 2x2 block [0:1, 0:1].
	m := mesh.Mesh{Width: 6, Height: 6}
	bs := BuildBlocks(mustScenario(t, m, []mesh.Coord{{X: 0, Y: 0}, {X: 1, Y: 1}}))
	if len(bs.Blocks) != 1 {
		t.Fatalf("blocks = %v, want 1", bs.Blocks)
	}
	want := mesh.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	if bs.Blocks[0] != want {
		t.Errorf("block = %v, want %v", bs.Blocks[0], want)
	}
	if bs.Status(mesh.Coord{X: 0, Y: 1}) != Disabled || bs.Status(mesh.Coord{X: 1, Y: 0}) != Disabled {
		t.Error("diagonal gap nodes should be disabled")
	}
}

func TestBuildBlocksSameDimensionGap(t *testing.T) {
	// Faults at (0,0) and (2,0): node (1,0) has two faulty neighbors
	// but in the SAME dimension, so it stays enabled and two separate
	// 1x1 blocks result.
	m := mesh.Mesh{Width: 6, Height: 6}
	bs := BuildBlocks(mustScenario(t, m, []mesh.Coord{{X: 0, Y: 0}, {X: 2, Y: 0}}))
	if len(bs.Blocks) != 2 {
		t.Fatalf("blocks = %v, want 2", bs.Blocks)
	}
	if bs.Status(mesh.Coord{X: 1, Y: 0}) != Enabled {
		t.Error("(1,0) should remain enabled")
	}
}

func TestBuildBlocksStaircase(t *testing.T) {
	// A diagonal staircase of faults fills its whole bounding square.
	m := mesh.Mesh{Width: 8, Height: 8}
	bs := BuildBlocks(mustScenario(t, m, []mesh.Coord{{X: 0, Y: 2}, {X: 1, Y: 1}, {X: 2, Y: 0}}))
	if len(bs.Blocks) != 1 {
		t.Fatalf("blocks = %v, want 1", bs.Blocks)
	}
	want := mesh.Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}
	if bs.Blocks[0] != want {
		t.Errorf("block = %v, want %v", bs.Blocks[0], want)
	}
}

func TestStatusString(t *testing.T) {
	tests := []struct {
		s    Status
		want string
	}{
		{Enabled, "enabled"},
		{Faulty, "faulty"},
		{Disabled, "disabled"},
		{Status(42), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("Status(%d).String() = %q, want %q", tt.s, got, tt.want)
		}
	}
}

func TestAdjacentToBlock(t *testing.T) {
	m := mesh.Mesh{Width: 12, Height: 12}
	bs := BuildBlocks(mustScenario(t, m, paperFaults))
	tests := []struct {
		c    mesh.Coord
		want bool
	}{
		{mesh.Coord{X: 1, Y: 3}, true},  // west of block
		{mesh.Coord{X: 4, Y: 2}, true},  // south of block
		{mesh.Coord{X: 7, Y: 5}, true},  // east of block
		{mesh.Coord{X: 4, Y: 7}, true},  // north of block
		{mesh.Coord{X: 0, Y: 0}, false}, // far away
		{mesh.Coord{X: 1, Y: 2}, false}, // diagonal from corner
		{mesh.Coord{X: 4, Y: 5}, false}, // inside the block
	}
	for _, tt := range tests {
		if got := bs.AdjacentToBlock(tt.c); got != tt.want {
			t.Errorf("AdjacentToBlock(%v) = %v, want %v", tt.c, got, tt.want)
		}
	}
}

// TestBlocksAreRectangularProperty verifies the key structural claim of
// the block model: at the fixpoint of Definition 1, every connected
// component of faulty/disabled nodes exactly fills its bounding
// rectangle, components are pairwise disjoint, and no enabled node
// still satisfies the disabling premise.
func TestBlocksAreRectangularProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		w := 8 + rng.Intn(25)
		h := 8 + rng.Intn(25)
		m := mesh.Mesh{Width: w, Height: h}
		k := rng.Intn(m.Size() / 8)
		faults, err := RandomFaults(m, k, rng, nil)
		if err != nil {
			t.Fatalf("RandomFaults: %v", err)
		}
		s := mustScenario(t, m, faults)
		bs := BuildBlocks(s)

		inSomeBlock := make([]bool, m.Size())
		for bi, r := range bs.Blocks {
			if !r.Valid() {
				t.Fatalf("trial %d: invalid block %v", trial, r)
			}
			for y := r.MinY; y <= r.MaxY; y++ {
				for x := r.MinX; x <= r.MaxX; x++ {
					c := mesh.Coord{X: x, Y: y}
					if !bs.InBlock(c) {
						t.Fatalf("trial %d: block %v has enabled node %v inside", trial, r, c)
					}
					if bs.BlockAt(c) != bi {
						t.Fatalf("trial %d: node %v in rect of block %d but indexed %d", trial, c, bi, bs.BlockAt(c))
					}
					i := m.Index(c)
					if inSomeBlock[i] {
						t.Fatalf("trial %d: blocks overlap at %v", trial, c)
					}
					inSomeBlock[i] = true
				}
			}
		}
		for i := 0; i < m.Size(); i++ {
			c := m.CoordOf(i)
			if bs.InBlock(c) != inSomeBlock[i] {
				t.Fatalf("trial %d: node %v block membership inconsistent with rectangles", trial, c)
			}
			if !bs.InBlock(c) && bs.shouldDisable(c) {
				t.Fatalf("trial %d: enabled node %v still satisfies the disable premise (not a fixpoint)", trial, c)
			}
		}
		// Every fault belongs to a block.
		for _, f := range faults {
			if bs.Status(f) != Faulty {
				t.Fatalf("trial %d: fault %v lost its status", trial, f)
			}
			if bs.BlockAt(f) < 0 {
				t.Fatalf("trial %d: fault %v not inside any block", trial, f)
			}
		}
		// Collecting the blocks from the labeled grids, as an
		// incremental maintainer holds them, gives the same block set.
		faulty := make([]bool, m.Size())
		for _, f := range faults {
			faulty[m.Index(f)] = true
		}
		fromGrid := BlocksFromGrid(m, faulty, bs.BlockedGrid())
		if !slices.Equal(fromGrid.Blocks, bs.Blocks) {
			t.Fatalf("trial %d: BlocksFromGrid blocks %v, BuildBlocks %v", trial, fromGrid.Blocks, bs.Blocks)
		}
		for i := 0; i < m.Size(); i++ {
			c := m.CoordOf(i)
			if fromGrid.Status(c) != bs.Status(c) || fromGrid.BlockAt(c) != bs.BlockAt(c) {
				t.Fatalf("trial %d: BlocksFromGrid labels %v differently", trial, c)
			}
		}
	}
}

func TestBlockedGridMatchesStatus(t *testing.T) {
	m := mesh.Mesh{Width: 12, Height: 12}
	bs := BuildBlocks(mustScenario(t, m, paperFaults))
	g := bs.BlockedGrid()
	for i := range g {
		if g[i] != bs.InBlock(m.CoordOf(i)) {
			t.Fatalf("BlockedGrid mismatch at %v", m.CoordOf(i))
		}
	}
}

func TestRandomFaults(t *testing.T) {
	m := mesh.Mesh{Width: 20, Height: 20}
	rng := rand.New(rand.NewSource(7))

	faults, err := RandomFaults(m, 50, rng, nil)
	if err != nil {
		t.Fatalf("RandomFaults: %v", err)
	}
	if len(faults) != 50 {
		t.Fatalf("got %d faults, want 50", len(faults))
	}
	seen := make(map[mesh.Coord]bool)
	for _, f := range faults {
		if !m.Contains(f) {
			t.Errorf("fault %v outside mesh", f)
		}
		if seen[f] {
			t.Errorf("duplicate fault %v", f)
		}
		seen[f] = true
	}

	center := m.Center()
	faults, err = RandomFaults(m, 30, rng, func(c mesh.Coord) bool { return c == center })
	if err != nil {
		t.Fatalf("RandomFaults with exclusion: %v", err)
	}
	for _, f := range faults {
		if f == center {
			t.Error("excluded node was selected")
		}
	}

	if _, err := RandomFaults(m, -1, rng, nil); err == nil {
		t.Error("negative count should fail")
	}
	if _, err := RandomFaults(m, m.Size()+1, rng, nil); err == nil {
		t.Error("oversize count should fail")
	}
	if _, err := RandomFaults(m, 1, rng, func(mesh.Coord) bool { return true }); err == nil {
		t.Error("fully excluded mesh should fail")
	}
}

func TestRandomFaultsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64, kRaw uint8) bool {
		m := mesh.Mesh{Width: 15, Height: 15}
		k := int(kRaw) % 40
		faults, err := RandomFaults(m, k, rand.New(rand.NewSource(seed)), nil)
		if err != nil || len(faults) != k {
			return false
		}
		seen := make(map[mesh.Coord]bool, k)
		for _, c := range faults {
			if !m.Contains(c) || seen[c] {
				return false
			}
			seen[c] = true
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestClusteredFaults(t *testing.T) {
	m := mesh.Mesh{Width: 64, Height: 64}
	rng := rand.New(rand.NewSource(3))
	faults, err := ClusteredFaults(m, 60, 4, 3, rng, nil)
	if err != nil {
		t.Fatalf("ClusteredFaults: %v", err)
	}
	if len(faults) != 60 {
		t.Fatalf("got %d faults, want 60", len(faults))
	}
	seen := make(map[mesh.Coord]bool)
	for _, f := range faults {
		if !m.Contains(f) || seen[f] {
			t.Fatalf("bad fault %v", f)
		}
		seen[f] = true
	}
	// Clustered faults must produce much larger blocks than uniform
	// ones at the same count.
	sc, err := NewScenario(m, faults)
	if err != nil {
		t.Fatal(err)
	}
	clustered := BuildBlocks(sc)
	uni, err := RandomFaults(m, 60, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	scU, err := NewScenario(m, uni)
	if err != nil {
		t.Fatal(err)
	}
	uniform := BuildBlocks(scU)
	maxArea := func(bs *BlockSet) int {
		best := 0
		for _, b := range bs.Blocks {
			if a := b.Area(); a > best {
				best = a
			}
		}
		return best
	}
	if maxArea(clustered) <= maxArea(uniform) {
		t.Errorf("clustered max block %d not above uniform %d", maxArea(clustered), maxArea(uniform))
	}

	// Exclusion respected.
	center := m.Center()
	cf, err := ClusteredFaults(m, 30, 2, 4, rng, func(c mesh.Coord) bool { return c == center })
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range cf {
		if f == center {
			t.Error("excluded node selected")
		}
	}

	// Validation errors.
	if _, err := ClusteredFaults(m, -1, 2, 2, rng, nil); err == nil {
		t.Error("negative count should fail")
	}
	if _, err := ClusteredFaults(m, 5, 0, 2, rng, nil); err == nil {
		t.Error("zero clusters should fail")
	}
	if _, err := ClusteredFaults(m, 5, 2, -1, rng, nil); err == nil {
		t.Error("negative spread should fail")
	}
	if _, err := ClusteredFaults(m, 10, 1, 0, rng, func(mesh.Coord) bool { return true }); err == nil {
		t.Error("full exclusion should fail")
	}
}
