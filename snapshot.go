package extmesh

import (
	"sync"
	"sync/atomic"

	"extmesh/internal/core"
	"extmesh/internal/fault"
	"extmesh/internal/mesh"
	"extmesh/internal/route"
	"extmesh/internal/safety"
)

// trackerState is the part of a DynamicNetwork's maintained state a
// snapshot is built from, taken under the lock. The grids are the
// tracker's own, handed over copy-on-write (dynamic.Tracker.Share), so
// taking them copies nothing.
type trackerState struct {
	faults       []Coord
	faulty, dead []bool
	levels       *safety.Grid // block-model levels over dead
}

// newSnapshot builds the Network a DynamicNetwork publishes for
// version v. The block model is the tracker's incrementally maintained
// state; the block rectangles, the MCC models and the routers' views
// are built lazily, on first use — the MCC models and the views
// derived through lin from the most recent version that built them.
func newSnapshot(m mesh.Mesh, st trackerState, v uint64, lin *lineage) *Network {
	n := &Network{
		m:         m,
		sc:        fault.ScenarioFromGrid(m, st.faults, st.faulty),
		dead:      st.dead,
		faultGrid: st.faulty,
		faultBits: new(mesh.Bits).FromBools(m, st.faulty),
		version:   v,
		lin:       lin,
	}
	blocks := &core.Model{M: m, Blocked: st.dead, Levels: st.levels}
	n.modelOnce[0].Do(func() { n.models[0] = blocks })
	return n
}

// lineage carries the derived pieces of a DynamicNetwork's snapshots
// from version to version: per MCC model slot the most recently built
// condition model, and per model slot the routers' orientation views.
// It holds only the latest piece of each slot, so besides the pieces of
// the snapshots still in use it keeps at most two models and twelve
// views alive.
type lineage struct {
	mu     sync.Mutex
	models [3]*core.Model // slots 1 and 2 (MCC type one and two)
	vers   [3]uint64

	views [3]route.Lineage

	// How deriveModel obtained each model's safety levels, for tests.
	freshLevels, patchedLevels, sharedLevels atomic.Uint64
}

// deriveModel returns the condition model of MCC slot idx over blocked
// for version v. Its safety levels are the slot's latest model's,
// cloned and resweeped on the rows and columns where the blocked grid
// changed; an unchanged grid shares the latest model outright, and a
// change touching more than half of all rows and columns, or a slot
// with no model yet, computes the levels from scratch.
func (l *lineage) deriveModel(idx int, v uint64, m mesh.Mesh, blocked []bool) *core.Model {
	l.mu.Lock()
	base := l.models[idx]
	l.mu.Unlock()

	md := &core.Model{M: m, Blocked: blocked}
	if base == nil {
		l.freshLevels.Add(1)
		md.Levels = safety.Compute(m, blocked)
	} else {
		rows, cols := changedLines(m, base.Blocked, blocked)
		switch {
		case len(rows) == 0:
			l.sharedLevels.Add(1)
			md = base
		case 2*(len(rows)+len(cols)) > m.Width+m.Height:
			l.freshLevels.Add(1)
			md.Levels = safety.Compute(m, blocked)
		default:
			l.patchedLevels.Add(1)
			md.Levels = base.Levels.Clone()
			md.Levels.Update(blocked, rows, cols)
		}
	}

	l.mu.Lock()
	if l.models[idx] == nil || v >= l.vers[idx] {
		l.models[idx], l.vers[idx] = md, v
	}
	l.mu.Unlock()
	return md
}

// changedLines lists the rows and the columns that hold a cell where
// the blocked grids a and b differ.
func changedLines(m mesh.Mesh, a, b []bool) (rows, cols []int) {
	colSeen := make([]bool, m.Width)
	for y := 0; y < m.Height; y++ {
		row := false
		for x, i := 0, y*m.Width; x < m.Width; x, i = x+1, i+1 {
			if a[i] == b[i] {
				continue
			}
			row = true
			if !colSeen[x] {
				colSeen[x] = true
				cols = append(cols, x)
			}
		}
		if row {
			rows = append(rows, y)
		}
	}
	return rows, cols
}
