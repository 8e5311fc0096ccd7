package extmesh

import (
	"fmt"
	"sync"
	"sync/atomic"

	"extmesh/internal/dynamic"
	"extmesh/internal/mesh"
)

// DynamicNetwork maintains fault regions and extended safety levels
// incrementally while faults keep arriving — the paper's maintenance
// model, in which a disturbance updates only the affected nodes. Use
// it for long-running systems; Snapshot (or Freeze) returns the
// immutable Network with the full API for the current fault set.
//
// Concurrency contract: a DynamicNetwork is safe for concurrent use.
// Every mutation (AddFault, RemoveFault, Apply) and every tracker query
// (InRegion, SafetyLevel, Safe, ...) runs under an internal lock, so
// queries never observe a half-applied update and always reflect every
// mutation that completed before the query began. Mutations serialize
// with each other; a query racing a mutation sees the state either
// before or after it, never in between. Snapshot, and HasMinimalPath
// and Freeze which read through it, follow the same rule: each
// mutation version is published as one immutable Network, built once —
// concurrent first readers of a version wait for a single build — and
// a Network is never served for a version other than the one it was
// built for.
type DynamicNetwork struct {
	// mu guards the tracker and flight. The tracker itself is
	// single-threaded by design; every method of DynamicNetwork that
	// touches it must hold mu.
	mu      sync.Mutex
	tracker *dynamic.Tracker
	width   int
	height  int

	// version counts successful mutations; it is written under mu and
	// read lock-free by the Snapshot fast path.
	version atomic.Uint64

	// snap is the published Network of the newest version built so
	// far; flight is the build in progress for the current version, if
	// any, which concurrent first readers wait on.
	snap   atomic.Pointer[Network]
	flight *snapshotFlight

	// lin carries the derived pieces (MCC models, router views) from
	// each published Network to the next.
	lin lineage

	// builds counts snapshot builds, for tests.
	builds atomic.Uint64
}

// snapshotFlight is one in-progress snapshot build; done closes when n
// is set.
type snapshotFlight struct {
	version uint64
	done    chan struct{}
	n       *Network
}

// NewDynamic returns a dynamic network over an initially fault-free
// width x height mesh.
func NewDynamic(width, height int) (*DynamicNetwork, error) {
	m, err := mesh.New(width, height)
	if err != nil {
		return nil, err
	}
	tr, err := dynamic.New(m)
	if err != nil {
		return nil, err
	}
	return &DynamicNetwork{tracker: tr, width: width, height: height}, nil
}

// AddFault marks c faulty and updates the fault regions and safety
// levels incrementally. It returns an error for out-of-mesh or
// duplicate faults. On success the version advances, so the next
// Snapshot describes the new fault set.
func (d *DynamicNetwork) AddFault(c Coord) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.tracker.AddFault(c); err != nil {
		return err
	}
	d.version.Add(1)
	return nil
}

// RemoveFault repairs a faulty node, shrinking its fault region
// incrementally (only the affected component relabels and only its
// rows and columns resweep). On success the version advances.
func (d *DynamicNetwork) RemoveFault(c Coord) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.tracker.RemoveFault(c); err != nil {
		return err
	}
	d.version.Add(1)
	return nil
}

// HasMinimalPath reports whether a minimal path from s to dst exists
// that avoids the current faulty nodes. It asks the current snapshot,
// whose memoized per-source reachability sweeps are shared by every
// query until the next mutation; the answer always reflects the latest
// completed mutation.
func (d *DynamicNetwork) HasMinimalPath(s, dst Coord) bool {
	n, _ := d.Snapshot()
	return n.HasMinimalPath(s, dst)
}

// LastUpdateCost reports how local the most recent AddFault was: the
// number of nodes that joined fault regions, and the rows and columns
// whose safety levels resweeped.
func (d *DynamicNetwork) LastUpdateCost() (cascade, rows, cols int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tracker.LastUpdateCost()
}

// Faults returns the faults added so far, in arrival order.
func (d *DynamicNetwork) Faults() []Coord {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tracker.Faults()
}

// InRegion reports whether c currently belongs to a fault region
// (block model).
func (d *DynamicNetwork) InRegion(c Coord) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tracker.InRegion(c)
}

// SafetyLevel returns the current extended safety level of c.
func (d *DynamicNetwork) SafetyLevel(c Coord) Level {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tracker.Level(c)
}

// Safe evaluates the base sufficient safe condition on the current
// state.
func (d *DynamicNetwork) Safe(s, dst Coord) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.tracker.InRegion(s) || d.tracker.InRegion(dst) {
		return false
	}
	return d.tracker.Levels().SafeFor(s, dst)
}

// Freeze returns an immutable Network for the current fault set,
// giving access to the full API (MCCs, routing, conditions,
// serialization). It is the Network Snapshot publishes.
func (d *DynamicNetwork) Freeze() (*Network, error) {
	return d.Snapshot()
}

// Width returns the mesh's X extent.
func (d *DynamicNetwork) Width() int { return d.width }

// Height returns the mesh's Y extent.
func (d *DynamicNetwork) Height() int { return d.height }

// Version returns the mutation counter: it increases on every
// successful AddFault/RemoveFault, so two equal Version readings
// bracket an unchanged fault set.
func (d *DynamicNetwork) Version() uint64 {
	return d.version.Load()
}

// RestoreVersion fast-forwards the mutation counter to v. It exists
// for durability layers that persist a network blob together with the
// version it carried when saved: rebuilding from the blob replays only
// the surviving faults, so the rebuilt network's counter restarts at
// the fault count, not at the pre-crash mutation total. Restoring the
// saved version keeps version-keyed state — snapshot publication,
// journal replay, crash-recovery equivalence checks — consistent with
// the full pre-crash history. Moving the counter backwards is rejected:
// it could make a stale published snapshot look current again.
func (d *DynamicNetwork) RestoreVersion(v uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur := d.version.Load(); v < cur {
		return fmt.Errorf("extmesh: cannot restore version %d below current %d", v, cur)
	}
	d.version.Store(v)
	return nil
}

// FaultCount returns the current number of faulty nodes.
func (d *DynamicNetwork) FaultCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tracker.FaultCount()
}

// IsFaulty reports whether c is currently faulty.
func (d *DynamicNetwork) IsFaulty(c Coord) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tracker.IsFaulty(c)
}

// Snapshot returns the immutable Network for the current fault set.
// Each mutation version is built once and published: while no fault
// arrives or recovers, every call returns the same Network (whose own
// lazy caches — models, routers, reachability — therefore stay warm
// across calls), and the calls that race to be a version's first
// reader all wait for one build. This is the serving hot path: a daemon
// answers route and condition queries against the snapshot and pays
// one build per mutation, not per request.
//
// The build is incremental. The block model is copied from the
// maintained state; the MCC models and the routers' boundary lines are
// derived on first use by patching the most recent version that built
// them (DESIGN.md §14).
//
// A Snapshot call racing a mutation returns a Network for either the
// pre- or post-mutation fault set, consistent with the DynamicNetwork
// concurrency contract. The error is always nil; it is kept for API
// stability.
func (d *DynamicNetwork) Snapshot() (*Network, error) {
	if n := d.snap.Load(); n != nil && n.version == d.version.Load() {
		return n, nil
	}
	d.mu.Lock()
	v := d.version.Load()
	if n := d.snap.Load(); n != nil && n.version == v {
		d.mu.Unlock()
		return n, nil
	}
	if f := d.flight; f != nil && f.version == v {
		d.mu.Unlock()
		<-f.done
		if f.n == nil {
			return d.Snapshot() // the build panicked; try again
		}
		return f.n, nil
	}
	f := &snapshotFlight{version: v, done: make(chan struct{})}
	d.flight = f
	st := trackerState{faults: d.tracker.Faults()}
	st.faulty, st.dead, st.levels = d.tracker.Share()
	d.mu.Unlock()

	// Build outside the lock: mutations and tracker queries must not
	// stall behind it. The flight ends on every path, a panic included,
	// so no later reader waits on it forever.
	defer func() {
		d.mu.Lock()
		if d.flight == f {
			d.flight = nil
		}
		if cur := d.snap.Load(); f.n != nil && (cur == nil || cur.version < v) {
			d.snap.Store(f.n)
		}
		d.mu.Unlock()
		close(f.done)
	}()
	d.builds.Add(1)
	f.n = newSnapshot(mesh.Mesh{Width: d.width, Height: d.height}, st, v, &d.lin)
	return f.n, nil
}

// Apply performs a batch of mutations: every node in fail is marked
// faulty and every node in recover is repaired, in order. Mutations
// that cannot apply — failing an already-faulty node, recovering a
// healthy one — are skipped and counted rather than fatal, matching
// the online fault-injection runtime's replay semantics, so a fault
// schedule can be replayed onto a live network idempotently. Nodes
// outside the mesh return an error and abort the batch (applied
// reports how far it got).
func (d *DynamicNetwork) Apply(fail, recover []Coord) (applied, skipped int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := mesh.Mesh{Width: d.width, Height: d.height}
	for _, c := range fail {
		if !m.Contains(c) {
			return applied, skipped, fmt.Errorf("extmesh: fail node %v outside mesh %v", c, m)
		}
		if d.tracker.IsFaulty(c) {
			skipped++
			continue
		}
		if err := d.tracker.AddFault(c); err != nil {
			return applied, skipped, err
		}
		d.version.Add(1)
		applied++
	}
	for _, c := range recover {
		if !m.Contains(c) {
			return applied, skipped, fmt.Errorf("extmesh: recover node %v outside mesh %v", c, m)
		}
		if !d.tracker.IsFaulty(c) {
			skipped++
			continue
		}
		if err := d.tracker.RemoveFault(c); err != nil {
			return applied, skipped, err
		}
		d.version.Add(1)
		applied++
	}
	return applied, skipped, nil
}
