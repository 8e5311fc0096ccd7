// Package safety implements the paper's extended safety levels: the
// 4-tuple (E, S, W, N) of distances from a node to the closest fault
// region in each direction, plus the derived information models used by
// the extended sufficient conditions (regions, segments and pivots).
package safety

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"extmesh/internal/mesh"
)

// Unbounded is the distance reported when no fault region lies in a
// direction (the paper's infinity in the default level (∞,∞,∞,∞)).
const Unbounded = math.MaxInt32

// Level is the extended safety level of one node: the number of hops to
// the nearest fault-region node towards East, South, West and North.
// A value of 1 means the adjacent node in that direction is blocked;
// Unbounded means the row/column is clear to the mesh edge.
type Level struct {
	E int
	S int
	W int
	N int
}

// String renders the level as (E,S,W,N) with "inf" for Unbounded.
func (l Level) String() string {
	f := func(v int) string {
		if v >= Unbounded {
			return "inf"
		}
		return fmt.Sprintf("%d", v)
	}
	return "(" + f(l.E) + "," + f(l.S) + "," + f(l.W) + "," + f(l.N) + ")"
}

// Min returns the smallest of the four components: the scalar "safety
// level" of the node (its distance to the nearest fault region in any
// direction).
func (l Level) Min() int {
	m := l.E
	if l.S < m {
		m = l.S
	}
	if l.W < m {
		m = l.W
	}
	if l.N < m {
		m = l.N
	}
	return m
}

// Dist returns the component of the level along direction d.
func (l Level) Dist(d mesh.Dir) int {
	switch d {
	case mesh.East:
		return l.E
	case mesh.South:
		return l.S
	case mesh.West:
		return l.W
	case mesh.North:
		return l.N
	default:
		return 0
	}
}

// Grid holds the extended safety level of every node of a mesh for one
// blocked set (faulty blocks or MCCs of one type).
//
// A node's East/West distances depend only on its row and its
// North/South distances only on its column, so they are stored that
// way: one chunk per row holding every node's (E, W) and one chunk per
// column holding every node's (N, S), as int32 (Unbounded is
// math.MaxInt32). A change of the blocked set then reaches exactly the
// chunks of its rows and columns, and a clone shares all the others.
type Grid struct {
	M    mesh.Mesh
	rows [][]span // rows[y][x] = {E, W} of node (x, y)
	cols [][]span // cols[x][y] = {N, S} of node (x, y)

	// shared is set on a grid and its clones: their chunks may be
	// referenced by another grid, so Update replaces a chunk instead of
	// writing it and ComputeInto allocates fresh storage. It is atomic
	// because Clone sets it on a grid other goroutines may be reading.
	shared atomic.Bool
}

// span holds two opposite distances of one node: (E, W) in a row
// chunk, (N, S) in a column chunk.
type span struct{ fwd, back int32 }

// Compute derives the safety levels of every node over a freshly
// allocated grid by four linear sweeps over the blocked grid (indexed
// by mesh.Index): East and West per row, North and South per column.
// Nodes inside the blocked set get a zero distance in every direction;
// routing never consults them.
func Compute(m mesh.Mesh, blocked []bool) *Grid {
	return ComputeInto(nil, m, blocked)
}

// ComputeInto is the arena form of Compute: it runs the same four
// linear sweeps into g, reusing g's storage when it covers the same
// mesh and is not shared with a clone (a nil g allocates a fresh grid),
// and returns the grid it filled. Every entry is overwritten, so no
// clearing pass is needed.
//
// Aliasing rule: the returned grid is g itself, so levels previously
// read from it describe the new blocked set after the call. A caller
// that reuses one grid across fault configurations (e.g. a simulation
// worker's arena) must not let results derived from the old blocked
// set outlive the next ComputeInto on the same grid.
func ComputeInto(g *Grid, m mesh.Mesh, blocked []bool) *Grid {
	if g == nil {
		g = &Grid{}
	}
	if g.shared.Load() || g.M != m {
		g.rows = chunks(m.Height, m.Width)
		g.cols = chunks(m.Width, m.Height)
		g.shared.Store(false)
	}
	g.M = m
	for y := range g.rows {
		sweepRow(g.rows[y], blocked, y, m)
	}
	for x := range g.cols {
		sweepCol(g.cols[x], blocked, x, m)
	}
	return g
}

// chunks allocates n chunks of size spans each over one backing array.
func chunks(n, size int) [][]span {
	backing := make([]span, n*size)
	out := make([][]span, n)
	for i := range out {
		out[i] = backing[i*size : (i+1)*size : (i+1)*size]
	}
	return out
}

// sweepRow fills the (E, W) distances of row y.
func sweepRow(row []span, blocked []bool, y int, m mesh.Mesh) {
	base := y * m.Width
	dist := int32(Unbounded)
	for x := m.Width - 1; x >= 0; x-- { // East: scan right-to-left
		dist = step(dist, blocked[base+x])
		row[x].fwd = dist
	}
	dist = Unbounded
	for x := 0; x < m.Width; x++ { // West: scan left-to-right
		dist = step(dist, blocked[base+x])
		row[x].back = dist
	}
}

// sweepCol fills the (N, S) distances of column x.
func sweepCol(col []span, blocked []bool, x int, m mesh.Mesh) {
	dist := int32(Unbounded)
	for y := m.Height - 1; y >= 0; y-- { // North: scan top-to-bottom
		dist = step(dist, blocked[y*m.Width+x])
		col[y].fwd = dist
	}
	dist = Unbounded
	for y := 0; y < m.Height; y++ { // South: scan bottom-to-top
		dist = step(dist, blocked[y*m.Width+x])
		col[y].back = dist
	}
}

// step advances a sweep by one node: zero on a blocked node, one more
// than the previous distance otherwise, saturating at Unbounded.
func step(dist int32, blocked bool) int32 {
	if blocked {
		return 0
	}
	if dist < Unbounded {
		return dist + 1
	}
	return dist
}

// Clone returns a grid with the same levels as g that shares g's
// storage. Either may then be Updated without affecting the other,
// which is how the levels of a changed blocked set are derived while g
// stays in use: the clone costs one header per row and column, and each
// Update allocates only the chunks it resweeps.
func (g *Grid) Clone() *Grid {
	g.shared.Store(true)
	c := &Grid{M: g.M, rows: slices.Clone(g.rows), cols: slices.Clone(g.cols)}
	c.shared.Store(true)
	return c
}

// At returns the safety level of node c.
func (g *Grid) At(c mesh.Coord) Level {
	ew := g.rows[c.Y][c.X]
	ns := g.cols[c.X][c.Y]
	return Level{E: int(ew.fwd), S: int(ns.back), W: int(ew.back), N: int(ns.fwd)}
}

// SafeFor implements Definition 3 generalized to any quadrant: node s
// is safe with respect to destination d when the sections of its row
// and column towards d are clear of fault regions, i.e. when
// |xd-xs| < dist(horizontal dir) and |yd-ys| < dist(vertical dir).
// Destinations sharing a row or column only need the one relevant
// section clear.
func (g *Grid) SafeFor(s, d mesh.Coord) bool {
	lvl := g.At(s)
	dx := d.X - s.X
	dy := d.Y - s.Y
	switch {
	case dx > 0 && dx >= lvl.E:
		return false
	case dx < 0 && -dx >= lvl.W:
		return false
	}
	switch {
	case dy > 0 && dy >= lvl.N:
		return false
	case dy < 0 && -dy >= lvl.S:
		return false
	}
	return true
}

// Update recomputes the levels of the given rows and columns against
// the (updated) blocked grid. It is the incremental counterpart of
// Compute: when blocked nodes are added, only their rows and columns
// change, because E/W components depend solely on the node's row and
// N/S components solely on its column.
func (g *Grid) Update(blocked []bool, rows, cols []int) {
	m := g.M
	shared := g.shared.Load()
	for _, y := range rows {
		if y < 0 || y >= m.Height {
			continue
		}
		if shared {
			g.rows[y] = make([]span, m.Width)
		}
		sweepRow(g.rows[y], blocked, y, m)
	}
	for _, x := range cols {
		if x < 0 || x >= m.Width {
			continue
		}
		if shared {
			g.cols[x] = make([]span, m.Height)
		}
		sweepCol(g.cols[x], blocked, x, m)
	}
}
