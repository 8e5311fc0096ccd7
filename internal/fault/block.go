package fault

import (
	"extmesh/internal/mesh"
)

// Status is the label of a node under the faulty block model
// (Definition 1 in the paper).
type Status uint8

// Node statuses under the block fault model. Enabled is the zero value
// because a fault-free, non-deactivated node is the default state.
const (
	Enabled  Status = iota // non-faulty node outside every faulty block
	Faulty                 // physically faulty node
	Disabled               // non-faulty node deactivated by the labeling
)

// String returns a short human-readable status name.
func (s Status) String() string {
	switch s {
	case Enabled:
		return "enabled"
	case Faulty:
		return "faulty"
	case Disabled:
		return "disabled"
	default:
		return "unknown"
	}
}

// BlockSet is the result of the faulty-block construction: per-node
// status and the list of disjoint rectangular blocks.
type BlockSet struct {
	M      mesh.Mesh
	Blocks []mesh.Rect

	status   []Status
	blockIdx []int32 // index into Blocks, -1 for enabled nodes

	// scratch buffers reused across BuildBlocksInto calls
	queue []mesh.Coord
	nbuf  []mesh.Coord
}

// BuildBlocks applies Definition 1 to the scenario: a non-faulty node
// becomes disabled if it has two or more disabled-or-faulty neighbors
// in different dimensions; the rule is applied until a fixpoint is
// reached. Connected faulty and disabled nodes then form the faulty
// blocks, each of which is a rectangle.
func BuildBlocks(s *Scenario) *BlockSet {
	return BuildBlocksInto(nil, s)
}

// BuildBlocksInto is the arena form of BuildBlocks: it runs the same
// labeling into dst, reusing dst's grids and worklists when they are
// large enough (a nil dst allocates a fresh set), and returns the set
// it filled. All previous results read from dst (statuses, block
// indices, the Blocks slice) are invalidated.
func BuildBlocksInto(dst *BlockSet, s *Scenario) *BlockSet {
	m := s.M
	bs := dst
	if bs == nil {
		bs = &BlockSet{}
	}
	bs.M = m
	if cap(bs.status) < m.Size() {
		bs.status = make([]Status, m.Size())
	} else {
		bs.status = bs.status[:m.Size()]
		clear(bs.status)
	}
	if cap(bs.blockIdx) < m.Size() {
		bs.blockIdx = make([]int32, m.Size())
	} else {
		bs.blockIdx = bs.blockIdx[:m.Size()]
	}
	for i := range bs.blockIdx {
		bs.blockIdx[i] = -1
	}
	bs.Blocks = bs.Blocks[:0]
	for _, f := range s.Faults {
		bs.status[m.Index(f)] = Faulty
	}

	// Fixpoint labeling with a worklist: when a node becomes disabled,
	// only its neighbors can newly satisfy the premise.
	queue := bs.queue[:0]
	for _, f := range s.Faults {
		queue = m.Neighbors(queue, f)
	}
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		i := m.Index(c)
		if bs.status[i] != Enabled {
			continue
		}
		if !bs.shouldDisable(c) {
			continue
		}
		bs.status[i] = Disabled
		queue = m.Neighbors(queue, c)
	}
	bs.queue = queue[:0]

	bs.collectBlocks()
	return bs
}

// BlocksFromGrid builds the block set whose labeling is already known:
// faulty marks the faulty nodes and dead the faulty-or-disabled ones,
// both indexed by mesh.Index, as an incremental maintainer of
// Definition 1 (dynamic.Tracker) holds them. Only the block rectangles
// are collected; the grids are read, not retained.
func BlocksFromGrid(m mesh.Mesh, faulty, dead []bool) *BlockSet {
	bs := &BlockSet{M: m, status: make([]Status, m.Size()), blockIdx: make([]int32, m.Size())}
	for i, d := range dead {
		bs.blockIdx[i] = -1
		switch {
		case faulty[i]:
			bs.status[i] = Faulty
		case d:
			bs.status[i] = Disabled
		}
	}
	bs.collectBlocks()
	return bs
}

// shouldDisable implements the premise of Definition 1: two or more
// disabled-or-faulty neighbors in different dimensions. Neighbors
// outside the mesh do not count.
func (bs *BlockSet) shouldDisable(c mesh.Coord) bool {
	badX := bs.dead(mesh.Coord{X: c.X - 1, Y: c.Y}) || bs.dead(mesh.Coord{X: c.X + 1, Y: c.Y})
	badY := bs.dead(mesh.Coord{X: c.X, Y: c.Y - 1}) || bs.dead(mesh.Coord{X: c.X, Y: c.Y + 1})
	return badX && badY
}

// dead reports whether c is a faulty or disabled node inside the mesh.
func (bs *BlockSet) dead(c mesh.Coord) bool {
	if !bs.M.Contains(c) {
		return false
	}
	return bs.status[bs.M.Index(c)] != Enabled
}

// collectBlocks finds the connected components of faulty/disabled nodes
// and records each component's bounding rectangle. For the fixpoint of
// Definition 1 each component exactly fills its bounding rectangle
// (verified by tests), so the rectangle is the faulty block.
func (bs *BlockSet) collectBlocks() {
	m := bs.M
	stack := bs.queue[:0]
	nbuf := bs.nbuf
	for start := 0; start < m.Size(); start++ {
		if bs.status[start] == Enabled || bs.blockIdx[start] >= 0 {
			continue
		}
		id := int32(len(bs.Blocks))
		rect := mesh.RectAround(m.CoordOf(start))
		stack = append(stack[:0], m.CoordOf(start))
		bs.blockIdx[start] = id
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			rect = rect.Union(mesh.RectAround(c))
			nbuf = m.Neighbors(nbuf[:0], c)
			for _, n := range nbuf {
				ni := m.Index(n)
				if bs.status[ni] != Enabled && bs.blockIdx[ni] < 0 {
					bs.blockIdx[ni] = id
					stack = append(stack, n)
				}
			}
		}
		bs.Blocks = append(bs.Blocks, rect)
	}
	bs.queue = stack[:0]
	bs.nbuf = nbuf
}

// Status returns the node's label under the block model. Nodes outside
// the mesh report Enabled.
func (bs *BlockSet) Status(c mesh.Coord) Status {
	if !bs.M.Contains(c) {
		return Enabled
	}
	return bs.status[bs.M.Index(c)]
}

// InBlock reports whether c belongs to a faulty block (is faulty or
// disabled).
func (bs *BlockSet) InBlock(c mesh.Coord) bool {
	return bs.Status(c) != Enabled
}

// BlockAt returns the index of the block containing c, or -1.
func (bs *BlockSet) BlockAt(c mesh.Coord) int {
	if !bs.M.Contains(c) {
		return -1
	}
	return int(bs.blockIdx[bs.M.Index(c)])
}

// DisabledCount returns the number of disabled (non-faulty) nodes.
func (bs *BlockSet) DisabledCount() int {
	n := 0
	for _, st := range bs.status {
		if st == Disabled {
			n++
		}
	}
	return n
}

// BlockedGrid returns a fresh boolean grid (indexed by mesh.Index) that
// is true for every node inside a faulty block. This is the "blocked
// set" the safety-level and routing layers consume.
func (bs *BlockSet) BlockedGrid() []bool {
	return bs.BlockedGridInto(nil)
}

// BlockedGridInto is the arena form of BlockedGrid: it fills g (reusing
// its backing when large enough; nil allocates) and returns the filled
// grid.
func (bs *BlockSet) BlockedGridInto(g []bool) []bool {
	if cap(g) < len(bs.status) {
		g = make([]bool, len(bs.status))
	} else {
		g = g[:len(bs.status)]
	}
	for i, st := range bs.status {
		g[i] = st != Enabled
	}
	return g
}

// AdjacentToBlock reports whether enabled node c has at least one
// neighbor inside a faulty block (the paper's "adjacent node").
func (bs *BlockSet) AdjacentToBlock(c mesh.Coord) bool {
	if bs.InBlock(c) {
		return false
	}
	var nbuf [4]mesh.Coord
	for _, n := range bs.M.Neighbors(nbuf[:0], c) {
		if bs.InBlock(n) {
			return true
		}
	}
	return false
}
