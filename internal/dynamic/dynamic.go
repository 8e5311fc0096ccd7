// Package dynamic maintains the fault-region labeling and the extended
// safety levels incrementally as faults arrive one at a time. This is
// the paper's maintenance story — "when a disturbance occurs, only
// those affected nodes update their information" — made concrete: a
// new fault triggers the Definition-1 disable cascade from the fault
// outward, and only the rows and columns touched by newly dead nodes
// resweep their safety levels.
package dynamic

import (
	"fmt"

	"extmesh/internal/fault"
	"extmesh/internal/mesh"
	"extmesh/internal/safety"
)

// Tracker holds the incrementally maintained state. The zero value is
// not usable; construct with New.
type Tracker struct {
	m      mesh.Mesh
	faulty []bool
	dead   []bool // fault-region membership (faulty or disabled)
	faults []mesh.Coord
	levels *safety.Grid

	// shared is set while faulty, dead and levels are handed out by
	// Share; the next mutation copies them before writing.
	shared bool

	// Statistics of the last AddFault call, exposing how local the
	// update was.
	lastCascade int // nodes newly added to the fault region
	lastRows    int // rows that resweeped their levels
	lastCols    int // columns that resweeped their levels
}

// New returns a tracker over an initially fault-free mesh.
func New(m mesh.Mesh) (*Tracker, error) {
	if m.Width <= 0 || m.Height <= 0 {
		return nil, fmt.Errorf("dynamic: invalid mesh %v", m)
	}
	return &Tracker{
		m:      m,
		faulty: make([]bool, m.Size()),
		dead:   make([]bool, m.Size()),
		levels: safety.Compute(m, make([]bool, m.Size())),
	}, nil
}

// AddFault marks c faulty, runs the disable cascade to the new
// fixpoint, and resweeps exactly the safety levels of the affected
// rows and columns. Adding a node twice or outside the mesh is an
// error; adding a node that is already disabled (but healthy) is
// allowed — it becomes faulty without further cascade.
func (t *Tracker) AddFault(c mesh.Coord) error {
	if !t.m.Contains(c) {
		return fmt.Errorf("dynamic: fault %v outside mesh %v", c, t.m)
	}
	i := t.m.Index(c)
	if t.faulty[i] {
		return fmt.Errorf("dynamic: node %v already faulty", c)
	}
	t.unshare()
	t.faulty[i] = true
	t.faults = append(t.faults, c)

	// Disable cascade from the new fault.
	var newlyDead []mesh.Coord
	var queue []mesh.Coord
	if !t.dead[i] {
		t.dead[i] = true
		newlyDead = append(newlyDead, c)
		queue = t.m.Neighbors(queue, c)
	}
	deadAt := func(n mesh.Coord) bool {
		return t.m.Contains(n) && t.dead[t.m.Index(n)]
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ui := t.m.Index(u)
		if t.dead[ui] {
			continue
		}
		badX := deadAt(mesh.Coord{X: u.X - 1, Y: u.Y}) || deadAt(mesh.Coord{X: u.X + 1, Y: u.Y})
		badY := deadAt(mesh.Coord{X: u.X, Y: u.Y - 1}) || deadAt(mesh.Coord{X: u.X, Y: u.Y + 1})
		if !badX || !badY {
			continue
		}
		t.dead[ui] = true
		newlyDead = append(newlyDead, u)
		queue = t.m.Neighbors(queue, u)
	}

	// Resweep only the rows and columns that gained dead nodes.
	rowSet := make(map[int]struct{}, len(newlyDead))
	colSet := make(map[int]struct{}, len(newlyDead))
	for _, n := range newlyDead {
		rowSet[n.Y] = struct{}{}
		colSet[n.X] = struct{}{}
	}
	rows := make([]int, 0, len(rowSet))
	for y := range rowSet {
		rows = append(rows, y)
	}
	cols := make([]int, 0, len(colSet))
	for x := range colSet {
		cols = append(cols, x)
	}
	t.levels.Update(t.dead, rows, cols)

	t.lastCascade = len(newlyDead)
	t.lastRows = len(rows)
	t.lastCols = len(cols)
	return nil
}

// LastUpdateCost reports how local the most recent AddFault was: the
// number of nodes added to fault regions and the rows/columns that
// resweeped.
func (t *Tracker) LastUpdateCost() (cascade, rows, cols int) {
	return t.lastCascade, t.lastRows, t.lastCols
}

// Faults returns a copy of the fault list in arrival order.
func (t *Tracker) Faults() []mesh.Coord {
	return append([]mesh.Coord(nil), t.faults...)
}

// FaultCount returns the current number of faulty nodes without
// copying the fault list.
func (t *Tracker) FaultCount() int {
	return len(t.faults)
}

// InRegion reports whether c currently belongs to a fault region.
func (t *Tracker) InRegion(c mesh.Coord) bool {
	return t.m.Contains(c) && t.dead[t.m.Index(c)]
}

// IsFaulty reports whether c itself is faulty (not merely disabled
// into a fault region).
func (t *Tracker) IsFaulty(c mesh.Coord) bool {
	return t.m.Contains(c) && t.faulty[t.m.Index(c)]
}

// Level returns the current extended safety level of c.
func (t *Tracker) Level(c mesh.Coord) safety.Level {
	return t.levels.At(c)
}

// Levels exposes the maintained safety grid (shared, do not mutate).
func (t *Tracker) Levels() *safety.Grid {
	return t.levels
}

// BlockedGrid returns a copy of the current fault-region grid.
func (t *Tracker) BlockedGrid() []bool {
	g := make([]bool, len(t.dead))
	copy(g, t.dead)
	return g
}

// Share returns the current fault grid, fault-region grid and safety
// levels without copying them. The tracker treats them as immutable
// from then on: the next mutation copies them before changing anything
// (copy on write), so what Share returned keeps describing the fault
// set at the time of the call.
func (t *Tracker) Share() (faulty, dead []bool, levels *safety.Grid) {
	t.shared = true
	return t.faulty, t.dead, t.levels
}

// unshare gives the tracker private copies of the state Share handed
// out, before a mutation writes to it.
func (t *Tracker) unshare() {
	if !t.shared {
		return
	}
	t.faulty = append([]bool(nil), t.faulty...)
	t.dead = append([]bool(nil), t.dead...)
	t.levels = t.levels.Clone()
	t.shared = false
}

// Snapshot rebuilds the equivalent from-scratch structures (scenario
// and block set) for the current fault list; used to hand the current
// state to the batch APIs and by the equivalence tests.
func (t *Tracker) Snapshot() (*fault.Scenario, *fault.BlockSet, error) {
	sc, err := fault.NewScenario(t.m, t.faults)
	if err != nil {
		return nil, nil, err
	}
	return sc, fault.BuildBlocks(sc), nil
}

// RemoveFault repairs a faulty node. Disable labels are monotone in
// the fault set, so removal can only shrink the fault region the node
// belongs to: the tracker relabels just that connected component from
// its remaining faults and resweeps the rows and columns of every node
// whose membership changed. Other regions are untouched.
func (t *Tracker) RemoveFault(c mesh.Coord) error {
	if !t.m.Contains(c) {
		return fmt.Errorf("dynamic: node %v outside mesh %v", c, t.m)
	}
	i := t.m.Index(c)
	if !t.faulty[i] {
		return fmt.Errorf("dynamic: node %v is not faulty", c)
	}
	t.unshare()
	t.faulty[i] = false
	for fi, f := range t.faults {
		if f == c {
			t.faults = append(t.faults[:fi], t.faults[fi+1:]...)
			break
		}
	}

	// Collect the dead component containing c.
	comp := []mesh.Coord{c}
	seen := map[mesh.Coord]bool{c: true}
	var nbuf []mesh.Coord
	for head := 0; head < len(comp); head++ {
		nbuf = t.m.Neighbors(nbuf[:0], comp[head])
		for _, n := range nbuf {
			if !seen[n] && t.dead[t.m.Index(n)] {
				seen[n] = true
				comp = append(comp, n)
			}
		}
	}

	// Relabel the component from its remaining faults. Labels are
	// monotone in the fault set, so the new region is a subset of the
	// old component and nodes outside it cannot change.
	for _, n := range comp {
		t.dead[t.m.Index(n)] = false
	}
	var queue []mesh.Coord
	for _, n := range comp {
		ni := t.m.Index(n)
		if t.faulty[ni] {
			t.dead[ni] = true
			queue = t.m.Neighbors(queue, n)
		}
	}
	deadAt := func(n mesh.Coord) bool {
		return t.m.Contains(n) && t.dead[t.m.Index(n)]
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ui := t.m.Index(u)
		if t.dead[ui] {
			continue
		}
		badX := deadAt(mesh.Coord{X: u.X - 1, Y: u.Y}) || deadAt(mesh.Coord{X: u.X + 1, Y: u.Y})
		badY := deadAt(mesh.Coord{X: u.X, Y: u.Y - 1}) || deadAt(mesh.Coord{X: u.X, Y: u.Y + 1})
		if !badX || !badY {
			continue
		}
		t.dead[ui] = true
		queue = t.m.Neighbors(queue, u)
	}

	// Resweep the rows and columns of nodes whose membership changed.
	rowSet := make(map[int]struct{})
	colSet := make(map[int]struct{})
	changed := 0
	for _, n := range comp {
		// Everything in comp was dead before; count the now-free ones
		// and refresh all touched rows/columns (cheap and safe).
		if !t.dead[t.m.Index(n)] {
			changed++
		}
		rowSet[n.Y] = struct{}{}
		colSet[n.X] = struct{}{}
	}
	rows := make([]int, 0, len(rowSet))
	for y := range rowSet {
		rows = append(rows, y)
	}
	cols := make([]int, 0, len(colSet))
	for x := range colSet {
		cols = append(cols, x)
	}
	t.levels.Update(t.dead, rows, cols)

	t.lastCascade = changed
	t.lastRows = len(rows)
	t.lastCols = len(cols)
	return nil
}
