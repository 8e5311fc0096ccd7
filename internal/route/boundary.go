package route

import (
	"fmt"

	"extmesh/internal/mesh"
)

// LineKind identifies the boundary line a node belongs to, in the
// normalized orientation where the destination lies northeast of the
// source. L1 is the horizontal line below an obstacle (carrying the
// rule "stay below the line until east of the obstacle" for east-shadow
// destinations); L3 is the vertical line west of an obstacle (carrying
// the matching rule for north-shadow destinations).
type LineKind uint8

// Boundary line kinds relevant to northeast routing.
const (
	LineL1 LineKind = iota + 1
	LineL3
)

// String names the line kind.
func (k LineKind) String() string {
	switch k {
	case LineL1:
		return "L1"
	case LineL3:
		return "L3"
	}
	return "?"
}

// Successor directions of a boundary line at a node, denormalized at
// build time so the per-hop decision never resolves a coordinate.
const (
	succNoneDir  uint8 = iota // the line ends here
	succEastDir               // the next line node is the east neighbor
	succNorthDir              // the next line node is the north neighbor
)

// cellRef is one piece of boundary information during construction:
// the node it is stored at, the line it belongs to (an index into the
// walker's rects), the line kind, and the direction of the next node of
// the line toward the obstacle. The walks emit cellRefs in line order;
// pack regroups them by node.
type cellRef struct {
	cell    int32
	line    int32
	kind    LineKind
	succDir uint8
}

// boundarySet holds, for one mesh orientation, the boundary-line
// information of every node: exactly the limited information the
// paper's distribution protocol installs along the lines, including the
// merged (turned/joined) sections around intervening fault regions.
//
// Obstacle geometry is kept as maximal runs of blocked nodes rather
// than whole rectangles: vertical runs carry L1 lines and horizontal
// runs carry L3 lines. For the rectangular blocks of the block fault
// model the union of per-run rules is equivalent to the per-block rules
// of the paper; for the rectilinear-monotone MCCs the runs follow the
// staircase contour exactly, where a bounding rectangle would
// over-constrain the packet. Maximal runs of one kind are disjoint, so
// a line is identified by its kind and its run's rectangle, which every
// ref stores inline; patch relies on that to drop and re-walk single
// lines without renumbering the others.
//
// Storage is a CSR-style flat layout: node i's refs occupy positions
// off[i]..off[i+1] of the packed parallel arrays, so the per-hop
// lookup in view.step is two adjacent int32 loads (almost always
// finding an empty span) instead of a hash probe, and iterating a
// node's refs walks contiguous memory. The run's rectangle is
// denormalized per ref into three bounds, since a run is one node thick:
// an L1 (vertical) run is column at, rows lo..hi; an L3 (horizontal)
// run is row at, columns lo..hi.
type boundarySet struct {
	m     mesh.Mesh
	lines int // obstacle runs of both kinds, empty lines included

	off []int32 // len m.Size()+1; node i's refs at [off[i], off[i+1])

	// Parallel per-ref arrays, indexed by the off spans.
	kind       []LineKind
	succDir    []uint8 // succNone, succEast or succNorth
	at, lo, hi []int32 // the run's rectangle, inlined
}

// lineWalker collects the refs of the lines it walks over one blocked
// grid, ready for pack.
type lineWalker struct {
	m       mesh.Mesh
	blocked []bool
	rects   []mesh.Rect // obstacle run of each walked line
	refs    []cellRef
}

// buildBoundaries derives the runs of the blocked grid and lays out the
// merged L1/L3 polylines.
func buildBoundaries(m mesh.Mesh, blocked []bool) *boundarySet {
	w := &lineWalker{m: m, blocked: blocked}
	for x := 0; x < m.Width; x++ {
		w.walkColumn(x)
	}
	for y := 0; y < m.Height; y++ {
		w.walkRow(y)
	}
	return w.pack()
}

// walkColumn walks the L1 line of every maximal vertical run in
// column x.
func (w *lineWalker) walkColumn(x int) {
	m := w.m
	for y := 0; y < m.Height; {
		if !w.blocked[y*m.Width+x] {
			y++
			continue
		}
		start := y
		for y < m.Height && w.blocked[y*m.Width+x] {
			y++
		}
		w.walk(LineL1, mesh.Rect{MinX: x, MinY: start, MaxX: x, MaxY: y - 1})
	}
}

// walkRow walks the L3 line of every maximal horizontal run in row y.
func (w *lineWalker) walkRow(y int) {
	m := w.m
	for x := 0; x < m.Width; {
		if !w.blocked[y*m.Width+x] {
			x++
			continue
		}
		start := x
		for x < m.Width && w.blocked[y*m.Width+x] {
			x++
		}
		w.walk(LineL3, mesh.Rect{MinX: start, MinY: y, MaxX: x - 1, MaxY: y})
	}
}

// walk lays out the line of the given kind carried by run r.
func (w *lineWalker) walk(kind LineKind, r mesh.Rect) {
	line := int32(len(w.rects))
	w.rects = append(w.rects, r)
	if kind == LineL1 {
		w.walkL1(line, r)
	} else {
		w.walkL3(line, r)
	}
}

// pack lays the walked refs out in CSR form: a counting sort by node,
// with each line's rectangle inlined.
func (w *lineWalker) pack() *boundarySet {
	n := w.m.Size()
	bs := &boundarySet{m: w.m, lines: len(w.rects), off: make([]int32, n+1)}
	for _, r := range w.refs {
		bs.off[r.cell+1]++
	}
	for i := 0; i < n; i++ {
		bs.off[i+1] += bs.off[i]
	}
	bs.alloc(bs.off[n])
	next := make([]int32, n)
	copy(next, bs.off[:n])
	for _, r := range w.refs {
		d := next[r.cell]
		next[r.cell]++
		bs.put(d, r, w.rects[r.line])
	}
	return bs
}

// alloc sizes the per-ref arrays for k refs.
func (bs *boundarySet) alloc(k int32) {
	bs.kind = make([]LineKind, k)
	bs.succDir = make([]uint8, k)
	bs.at = make([]int32, k)
	bs.lo = make([]int32, k)
	bs.hi = make([]int32, k)
}

// put stores ref r of the line over run rect at position d.
func (bs *boundarySet) put(d int32, r cellRef, rect mesh.Rect) {
	bs.kind[d] = r.kind
	bs.succDir[d] = r.succDir
	if r.kind == LineL1 {
		bs.at[d], bs.lo[d], bs.hi[d] = int32(rect.MinX), int32(rect.MinY), int32(rect.MaxY)
	} else {
		bs.at[d], bs.lo[d], bs.hi[d] = int32(rect.MinY), int32(rect.MinX), int32(rect.MaxX)
	}
}

// copyRefs copies refs [from, to) of src to position d of bs.
func (bs *boundarySet) copyRefs(d int32, src *boundarySet, from, to int32) {
	copy(bs.kind[d:], src.kind[from:to])
	copy(bs.succDir[d:], src.succDir[from:to])
	copy(bs.at[d:], src.at[from:to])
	copy(bs.lo[d:], src.lo[from:to])
	copy(bs.hi[d:], src.hi[from:to])
}

// repack lays out old's refs that keep reports as still valid together
// with the walked refs. Only the nodes in touched — every node holding
// a dropped or a walked ref, ascending, with slot[c] = 1 + c's index in
// touched — need a per-ref look; the spans of all other nodes keep
// their contents and move as whole stretches. Per-node ref order
// carries no meaning (view.step collects every fired line's
// constraints and ORs the successor flags), so kept and walked refs may
// sit in any order within a node.
func (w *lineWalker) repack(old *boundarySet, touched, slot []int32, keep func(j int32) bool) *boundarySet {
	n := int32(w.m.Size())

	// Group the walked refs by touched node: a counting sort over the
	// touched indexes.
	first := make([]int32, len(touched)+1)
	for _, r := range w.refs {
		first[slot[r.cell]]++
	}
	for k := 1; k <= len(touched); k++ {
		first[k] += first[k-1]
	}
	walked := make([]cellRef, len(w.refs))
	for _, r := range w.refs {
		k := slot[r.cell] - 1
		walked[first[k]] = r
		first[k]++
	}
	// first[k] now ends touched[k]'s group, which starts at first[k-1].

	// Offsets: an untouched node's span moves by the net change of the
	// touched nodes before it.
	bs := &boundarySet{m: w.m, off: make([]int32, n+1)}
	shift, from := int32(0), int32(0)
	for k, c := range touched {
		for i := from; i <= c; i++ {
			bs.off[i] = old.off[i] + shift
		}
		count := first[k] - groupStart(first, k)
		for j := old.off[c]; j < old.off[c+1]; j++ {
			if keep(j) {
				count++
			}
		}
		shift += count - (old.off[c+1] - old.off[c])
		from = c + 1
	}
	for i := from; i <= n; i++ {
		bs.off[i] = old.off[i] + shift
	}
	bs.alloc(bs.off[n])

	from = 0
	for k, c := range touched {
		bs.copyRefs(bs.off[from], old, old.off[from], old.off[c])
		d := bs.off[c]
		for j := old.off[c]; j < old.off[c+1]; j++ {
			if keep(j) {
				bs.copyRefs(d, old, j, j+1)
				d++
			}
		}
		for _, r := range walked[groupStart(first, k):first[k]] {
			bs.put(d, r, w.rects[r.line])
			d++
		}
		from = c + 1
	}
	bs.copyRefs(bs.off[from], old, old.off[from], old.off[n])
	return bs
}

// groupStart returns where group k starts given the group ends first.
func groupStart(first []int32, k int) int32 {
	if k == 0 {
		return 0
	}
	return first[k-1]
}

// rect returns the obstacle run of ref j.
func (bs *boundarySet) rect(j int32) mesh.Rect {
	at, lo, hi := int(bs.at[j]), int(bs.lo[j]), int(bs.hi[j])
	if bs.kind[j] == LineL1 {
		return mesh.Rect{MinX: at, MinY: lo, MaxX: at, MaxY: hi}
	}
	return mesh.Rect{MinX: lo, MinY: at, MaxX: hi, MaxY: at}
}

// patch derives the boundary set of blocked from bs, the set of
// oldBlocked, re-walking only the lines the change can reach. A line's
// refs are a function of its run and of the cells its contour walk
// reads, and the walk reads only nodes it visits and their neighbors.
// So a line must be re-walked when its run lies in a row or column
// containing a changed cell (its run may have grown, shrunk, split or
// vanished, and new runs may have appeared there), or when it visits a
// node equal or adjacent to a changed cell. Every other line is copied
// as it is. patch returns bs itself when the grids are equal, and nil
// when the change reaches more than half of bs's lines: the caller then
// builds from scratch, which costs less than such a patch.
func (bs *boundarySet) patch(oldBlocked, blocked []bool) *boundarySet {
	m := bs.m
	w := m.Width
	var changed []int32
	for i, b := range blocked {
		if b != oldBlocked[i] {
			changed = append(changed, int32(i))
		}
	}
	if len(changed) == 0 {
		return bs
	}
	dirtyCol := make([]bool, m.Width)
	dirtyRow := make([]bool, m.Height)
	for _, i := range changed {
		dirtyCol[int(i)%w] = true
		dirtyRow[int(i)/w] = true
	}

	// runDirty reports whether ref j's run lies in a changed column (L1)
	// or row (L3); lineKey returns the first cell of the run and the
	// ref's kind bit in dirtyLine.
	runDirty := func(j int32) bool {
		if bs.kind[j] == LineL1 {
			return dirtyCol[bs.at[j]]
		}
		return dirtyRow[bs.at[j]]
	}
	lineKey := func(j int32) (int32, uint8) {
		if bs.kind[j] == LineL1 {
			return bs.lo[j]*int32(w) + bs.at[j], 1
		}
		return bs.at[j]*int32(w) + bs.lo[j], 2
	}

	// Mark the lines through a changed cell's closed neighborhood, keyed
	// by the first cell of their run: bit 1 for an L1 line, 2 for an L3.
	dirtyLine := make([]uint8, m.Size())
	var redo []lineID
	mark := func(node int32) {
		for j := bs.off[node]; j < bs.off[node+1]; j++ {
			if runDirty(j) {
				continue
			}
			key, bit := lineKey(j)
			if dirtyLine[key]&bit != 0 {
				continue
			}
			dirtyLine[key] |= bit
			redo = append(redo, lineID{kind: bs.kind[j], rect: bs.rect(j)})
		}
	}
	for _, i := range changed {
		x, y := int(i)%w, int(i)/w
		mark(i)
		if x > 0 {
			mark(i - 1)
		}
		if x+1 < m.Width {
			mark(i + 1)
		}
		if y > 0 {
			mark(i - int32(w))
		}
		if y+1 < m.Height {
			mark(i + int32(w))
		}
	}

	// Walk the replaced lines on both grids: the runs in dirty columns
	// (L1) and rows (L3), which may have grown, shrunk, split, vanished
	// or appeared, and the lines marked above. The old walks locate the
	// refs to drop, the new walks produce their replacements.
	walkDirty := func(lw *lineWalker) {
		for x, dirty := range dirtyCol {
			if dirty {
				lw.walkColumn(x)
			}
		}
		for y, dirty := range dirtyRow {
			if dirty {
				lw.walkRow(y)
			}
		}
		for _, l := range redo {
			lw.walk(l.kind, l.rect)
		}
	}
	gone := &lineWalker{m: m, blocked: oldBlocked}
	walkDirty(gone)
	if 2*len(gone.rects) > bs.lines {
		return nil
	}
	walker := &lineWalker{m: m, blocked: blocked}
	walkDirty(walker)
	slot := make([]int32, m.Size())
	for _, refs := range [2][]cellRef{gone.refs, walker.refs} {
		for _, r := range refs {
			slot[r.cell] = 1
		}
	}
	var touched []int32
	for c, in := range slot {
		if in != 0 {
			touched = append(touched, int32(c))
			slot[c] = int32(len(touched))
		}
	}
	keep := func(j int32) bool {
		key, bit := lineKey(j)
		return !runDirty(j) && dirtyLine[key]&bit == 0
	}
	out := walker.repack(bs, touched, slot, keep)
	// The re-walked lines replaced the old ones; the rest carry over.
	out.lines = bs.lines - len(gone.rects) + len(walker.rects)
	return out
}

// lineID names one boundary line: its kind and its obstacle run.
type lineID struct {
	kind LineKind
	rect mesh.Rect
}

// HorizontalRuns returns the maximal horizontal runs of blocked nodes
// (height-1 rectangles). They carry the L3 boundary lines.
func HorizontalRuns(m mesh.Mesh, blocked []bool) []mesh.Rect {
	var runs []mesh.Rect
	for y := 0; y < m.Height; y++ {
		x := 0
		for x < m.Width {
			if !blocked[y*m.Width+x] {
				x++
				continue
			}
			start := x
			for x < m.Width && blocked[y*m.Width+x] {
				x++
			}
			runs = append(runs, mesh.Rect{MinX: start, MinY: y, MaxX: x - 1, MaxY: y})
		}
	}
	return runs
}

// VerticalRuns returns the maximal vertical runs of blocked nodes
// (width-1 rectangles). They carry the L1 boundary lines.
func VerticalRuns(m mesh.Mesh, blocked []bool) []mesh.Rect {
	var runs []mesh.Rect
	for x := 0; x < m.Width; x++ {
		y := 0
		for y < m.Height {
			if !blocked[y*m.Width+x] {
				y++
				continue
			}
			start := y
			for y < m.Height && blocked[y*m.Width+x] {
				y++
			}
			runs = append(runs, mesh.Rect{MinX: x, MinY: start, MaxX: x, MaxY: y - 1})
		}
	}
	return runs
}

// add records that node c carries info for the given line whose next
// node toward the obstacle is succ (outside the mesh when the line
// ends at c).
func (w *lineWalker) add(c mesh.Coord, line int32, kind LineKind, succ mesh.Coord) {
	dir := succNoneDir
	switch {
	case !w.m.Contains(succ):
	case succ == mesh.Coord{X: c.X + 1, Y: c.Y}:
		dir = succEastDir
	case succ == mesh.Coord{X: c.X, Y: c.Y + 1}:
		dir = succNorthDir
	default:
		// The walks only ever hand a line to the east or north
		// neighbor; anything else would be a construction bug.
		panic("route: boundary successor is not an east/north neighbor")
	}
	w.refs = append(w.refs, cellRef{cell: int32(w.m.Index(c)), line: line, kind: kind, succDir: dir})
}

// walkL1 lays out the L1 line of the vertical run r: the node just
// below the run, then the contour extending west. When the line meets
// another fault region it turns south along its east side down to that
// region's own L1 level and continues west, joining the other line
// (the paper's turn/join rule), which the contour walk performs one
// step at a time: go west when the node is free, otherwise slide one
// node south and retry.
func (w *lineWalker) walkL1(line int32, r mesh.Rect) {
	m, blocked := w.m, w.blocked
	cur := mesh.Coord{X: r.MinX, Y: r.MinY - 1}
	if !m.Contains(cur) || blocked[m.Index(cur)] {
		return // run touches the south edge or sits in a pocket
	}
	first := mesh.Coord{X: r.MinX + 1, Y: r.MinY - 1}
	if !m.Contains(first) || blocked[m.Index(first)] {
		first = mesh.Coord{X: -1, Y: -1}
	}
	w.add(cur, line, LineL1, first)
	for {
		west := mesh.Coord{X: cur.X - 1, Y: cur.Y}
		if west.X < 0 {
			return
		}
		if !blocked[m.Index(west)] {
			w.add(west, line, LineL1, cur)
			cur = west
			continue
		}
		south := mesh.Coord{X: cur.X, Y: cur.Y - 1}
		if south.Y < 0 || blocked[m.Index(south)] {
			return // mesh edge or pocket: the line ends
		}
		w.add(south, line, LineL1, cur)
		cur = south
	}
}

// walkL3 lays out the L3 line of the horizontal run r: the node just
// west of the run, then the contour extending south, turning west
// around intervening fault regions: go south when the node is free,
// otherwise slide one node west and retry.
func (w *lineWalker) walkL3(line int32, r mesh.Rect) {
	m, blocked := w.m, w.blocked
	cur := mesh.Coord{X: r.MinX - 1, Y: r.MinY}
	if !m.Contains(cur) || blocked[m.Index(cur)] {
		return // run touches the west edge or sits in a pocket
	}
	first := mesh.Coord{X: r.MinX - 1, Y: r.MinY + 1}
	if !m.Contains(first) || blocked[m.Index(first)] {
		first = mesh.Coord{X: -1, Y: -1}
	}
	w.add(cur, line, LineL3, first)
	for {
		south := mesh.Coord{X: cur.X, Y: cur.Y - 1}
		if south.Y < 0 {
			return
		}
		if !blocked[m.Index(south)] {
			w.add(south, line, LineL3, cur)
			cur = south
			continue
		}
		west := mesh.Coord{X: cur.X - 1, Y: cur.Y}
		if west.X < 0 || blocked[m.Index(west)] {
			return
		}
		w.add(west, line, LineL3, cur)
		cur = west
	}
}

// LineTag is the exported form of one piece of boundary information
// stored at a node: the obstacle run the line belongs to and the line
// kind. It is used to cross-check the distributed information
// dissemination against this package's direct computation.
type LineTag struct {
	Obstacle mesh.Rect
	Kind     LineKind
}

// Lines computes the complete boundary-line information of the grid in
// the native (unreflected) orientation: for every node, the tags of the
// L1/L3 lines passing through it.
func Lines(m mesh.Mesh, blocked []bool) map[mesh.Coord][]LineTag {
	bs := buildBoundaries(m, blocked)
	out := make(map[mesh.Coord][]LineTag)
	for i := 0; i < m.Size(); i++ {
		if tags := bs.tags(i); tags != nil {
			out[m.CoordOf(i)] = tags
		}
	}
	return out
}

// tags returns the line tags stored at node i, nil when there are none.
func (bs *boundarySet) tags(i int) []LineTag {
	start, end := bs.off[i], bs.off[i+1]
	if start == end {
		return nil
	}
	tags := make([]LineTag, 0, end-start)
	for j := start; j < end; j++ {
		tags = append(tags, LineTag{Obstacle: bs.rect(j), Kind: bs.kind[j]})
	}
	return tags
}

// DiffViews compares the orientation views (flipX, flipY) of two
// routers over the same mesh, building them if needed: the reflected
// blocked grids and, node by node, the boundary information stored
// there (kind, obstacle run and successor of every line, in any
// order). It returns nil when they agree and otherwise describes the
// first difference. It exists to check views derived through a Lineage
// against freshly built ones.
func DiffViews(a, b *Router, flipX, flipY bool) error {
	fx, fy := 0, 0
	if flipX {
		fx = 1
	}
	if flipY {
		fy = 1
	}
	va, vb := a.view(fx, fy), b.view(fx, fy)
	if va.m != vb.m {
		return fmt.Errorf("route: views over meshes %v and %v", va.m, vb.m)
	}
	// same reports whether node i carries the same multiset of refs in
	// both views; nodes rarely sit on more than a few lines, so a
	// quadratic match beats sorting.
	type ref struct {
		kind LineKind
		succ uint8
		rect mesh.Rect
	}
	same := func(i int) bool {
		a, b := va.bounds, vb.bounds
		n := a.off[i+1] - a.off[i]
		if n != b.off[i+1]-b.off[i] {
			return false
		}
		if n > 64 {
			count := make(map[ref]int, n)
			for j := a.off[i]; j < a.off[i+1]; j++ {
				count[ref{a.kind[j], a.succDir[j], a.rect(j)}]++
			}
			for k := b.off[i]; k < b.off[i+1]; k++ {
				r := ref{b.kind[k], b.succDir[k], b.rect(k)}
				if count[r] == 0 {
					return false
				}
				count[r]--
			}
			return true
		}
		var used uint64
	next:
		for j := a.off[i]; j < a.off[i+1]; j++ {
			for k := b.off[i]; k < b.off[i+1]; k++ {
				bit := uint64(1) << (k - b.off[i])
				if used&bit == 0 && a.kind[j] == b.kind[k] && a.succDir[j] == b.succDir[k] && a.rect(j) == b.rect(k) {
					used |= bit
					continue next
				}
			}
			return false
		}
		return true
	}
	for i := 0; i < va.m.Size(); i++ {
		c := va.m.CoordOf(i)
		if va.blocked[i] != vb.blocked[i] {
			return fmt.Errorf("route: view (%v,%v) node %v: blocked %v vs %v", flipX, flipY, c, va.blocked[i], vb.blocked[i])
		}
		if !same(i) {
			return fmt.Errorf("route: view (%v,%v) node %v: lines %v vs %v", flipX, flipY, c, va.bounds.tags(i), vb.bounds.tags(i))
		}
	}
	return nil
}
