// Package extmesh implements fault-tolerant minimal routing in 2-D
// meshes with limited global fault information, reproducing Wu and
// Jiang, "Extended Minimal Routing in 2-D Meshes with Faulty Blocks"
// (ICDCS 2002 / IJHPCN 2004).
//
// A Network couples a 2-D mesh with a set of faulty nodes. Faults are
// aggregated into rectangular faulty blocks (Wu's model) or into the
// tighter minimal connected components (Wang's MCC model). Each
// non-faulty node carries an extended safety level — its distance to
// the nearest fault region towards East, South, West and North — and
// the library provides:
//
//   - the sufficient safe condition (Theorem 1) and its three
//     extensions (Theorems 1a-1c) that decide, at the source, whether a
//     minimal or sub-minimal path to a destination is guaranteed;
//   - Wu's limited-information routing protocol that realizes those
//     guarantees hop by hop using boundary-line information;
//   - the exact global baselines: minimal-path existence and Wang's
//     necessary-and-sufficient coverage condition.
//
// The zero-configuration entry point:
//
//	net, err := extmesh.New(16, 16, []extmesh.Coord{{X: 5, Y: 5}})
//	if err != nil { ... }
//	a := net.Ensure(extmesh.Coord{X: 0, Y: 0}, extmesh.Coord{X: 12, Y: 9},
//		extmesh.Blocks, extmesh.DefaultStrategy())
//	if a.Verdict == extmesh.Minimal {
//		path, _, err := net.RouteAssured(extmesh.Coord{X: 0, Y: 0},
//			extmesh.Coord{X: 12, Y: 9}, extmesh.Blocks, extmesh.DefaultStrategy())
//		...
//	}
package extmesh

import (
	"fmt"
	"sync"

	"extmesh/internal/core"
	"extmesh/internal/fault"
	"extmesh/internal/mesh"
	"extmesh/internal/route"
	"extmesh/internal/safety"
	"extmesh/internal/wang"
)

// Coord is the address of a mesh node; East is +X and North is +Y.
type Coord = mesh.Coord

// Rect is an inclusive rectangle of nodes, [MinX:MaxX, MinY:MaxY].
type Rect = mesh.Rect

// Level is a node's extended safety level: hops to the nearest fault
// region towards East, South, West and North (Unbounded if none).
type Level = safety.Level

// Unbounded is the safety-level distance reported when no fault region
// lies in a direction.
const Unbounded = safety.Unbounded

// Path is the node sequence a routed packet visits, endpoints included.
type Path = route.Path

// Verdict classifies what a sufficient condition guarantees.
type Verdict = core.Verdict

// Condition outcomes. Unknown means no guarantee (a minimal path may
// still exist: the conditions are sufficient, not necessary).
const (
	Unknown    = core.Unknown
	Minimal    = core.Minimal
	SubMinimal = core.SubMinimal
)

// Assurance is a positive condition result: the guaranteed path kind
// and the waypoints of the witnessing two-phase route.
type Assurance = core.Assurance

// FaultModel selects how faults are aggregated into fault regions.
type FaultModel int

// The two fault models of the paper.
const (
	// Blocks is Wu's faulty-block model: faults plus deactivated nodes
	// form disjoint rectangles.
	Blocks FaultModel = iota + 1
	// MCC is Wang's minimal-connected-component model: a node joins a
	// fault region only if every minimal route through it is doomed,
	// which shrinks the blocks to rectilinear-monotone polygons. The
	// component shape depends on the routing quadrant; methods taking a
	// source and destination pick the right labeling automatically.
	MCC
)

// String names the fault model.
func (fm FaultModel) String() string {
	switch fm {
	case Blocks:
		return "blocks"
	case MCC:
		return "mcc"
	default:
		return "unknown"
	}
}

// Strategy configures which extended sufficient conditions Ensure and
// RouteAssured apply, mirroring the cascades evaluated in the paper.
type Strategy struct {
	// UseExtension1 consults the four neighbors' safety levels
	// (Theorem 1a) and enables sub-minimal guarantees via AllowDetour.
	UseExtension1 bool
	// UseExtension2 consults on-axis safety levels within the clear
	// regions (Theorem 1b). SegmentSize controls how many
	// representatives are available: 1 keeps every node, larger values
	// keep one per segment, and 0 means one per region ("max").
	UseExtension2 bool
	SegmentSize   int
	// UseExtension3 consults pivot nodes placed by recursive 4-way
	// partition of the destination quadrant (Theorem 1c) with
	// PivotLevels levels (the paper uses up to 3).
	UseExtension3 bool
	PivotLevels   int
	// AllowDetour reports extension 1's sub-minimal verdict (one
	// detour, length D(s,d)+2) when no minimal guarantee is found.
	AllowDetour bool
}

// DefaultStrategy enables all three extensions with the paper's
// strategy-4 parameters (segment size 5, partition level 3) and allows
// sub-minimal fallbacks.
func DefaultStrategy() Strategy {
	return Strategy{
		UseExtension1: true,
		UseExtension2: true,
		SegmentSize:   core.StrategySegSize,
		UseExtension3: true,
		PivotLevels:   core.PivotLevels,
		AllowDetour:   true,
	}
}

// Network couples a mesh with a fault set and caches the derived fault
// regions, safety levels and routers. A Network is immutable after New
// and safe for concurrent use.
type Network struct {
	m  mesh.Mesh
	sc *fault.Scenario

	// The block set: built by New, or collected on first use from the
	// fault-region grid dead of a DynamicNetwork snapshot.
	bsOnce sync.Once
	bs     *fault.BlockSet
	dead   []bool

	mccOnce [2]sync.Once
	mccSets [2]*fault.MCCSet // indexed by fault.MCCType - 1

	// Per model slot (0: blocks, 1: MCC type-one, 2: MCC type-two) the
	// fault-region grid, the condition evaluator over it (the grid plus
	// its safety levels) and the router. Routing needs only the grid.
	blockedOnce [3]sync.Once
	blocked     [3][]bool

	modelOnce [3]sync.Once
	models    [3]*core.Model

	routerOnce [3]sync.Once
	routers    [3]*route.Router

	// Set on the Networks a DynamicNetwork publishes (snapshot.go): the
	// mutation version the Network describes and the lineage its MCC
	// models and router views are derived through.
	version uint64
	lin     *lineage

	faultGrid []bool
	faultBits *mesh.Bits

	reachOnce sync.Once
	reach     *wang.ReachCache

	errMu    sync.Mutex
	firstErr error
}

// ReachCacheCapacity bounds the per-source reachability memo behind
// HasMinimalPath and OracleRoute: at most this many distinct query
// roots keep their O(N) grid resident, least-recently-used first out.
const ReachCacheCapacity = 1024

// New builds a network over a width x height mesh with the given
// faulty nodes and constructs the faulty blocks. It returns an error
// for invalid dimensions, out-of-mesh faults or duplicates.
func New(width, height int, faults []Coord) (*Network, error) {
	m, err := mesh.New(width, height)
	if err != nil {
		return nil, err
	}
	sc, err := fault.NewScenario(m, faults)
	if err != nil {
		return nil, err
	}
	n := &Network{m: m, sc: sc, bs: fault.BuildBlocks(sc)}
	n.faultGrid = make([]bool, m.Size())
	for _, f := range sc.Faults {
		n.faultGrid[m.Index(f)] = true
	}
	// The bit-packed twin of faultGrid feeds the word-parallel
	// reachability sweeps behind HasMinimalPath and OracleRoute.
	n.faultBits = new(mesh.Bits).FromBools(m, n.faultGrid)
	return n, nil
}

// Width returns the mesh's X extent.
func (n *Network) Width() int { return n.m.Width }

// Height returns the mesh's Y extent.
func (n *Network) Height() int { return n.m.Height }

// Contains reports whether c addresses a node of the mesh.
func (n *Network) Contains(c Coord) bool { return n.m.Contains(c) }

// Faults returns a copy of the faulty node list.
func (n *Network) Faults() []Coord {
	out := make([]Coord, len(n.sc.Faults))
	copy(out, n.sc.Faults)
	return out
}

// IsFaulty reports whether c is a faulty node.
func (n *Network) IsFaulty(c Coord) bool { return n.sc.IsFaulty(c) }

// Blocks returns the rectangles of the faulty blocks.
func (n *Network) Blocks() []Rect {
	bs := n.blockSet()
	out := make([]Rect, len(bs.Blocks))
	copy(out, bs.Blocks)
	return out
}

// InRegion reports whether c belongs to a fault region under the given
// model. For MCC the type-one labeling (quadrant I/III routing) is
// used; use InRegionFor for a specific pair.
func (n *Network) InRegion(c Coord, fm FaultModel) bool {
	if fm == MCC {
		return n.mcc(fault.TypeOne).InMCC(c)
	}
	return n.blockSet().InBlock(c)
}

// InRegionFor reports whether c belongs to a fault region under the
// given model for routing from s to d (the MCC labeling depends on the
// destination's quadrant).
func (n *Network) InRegionFor(c Coord, fm FaultModel, s, d Coord) bool {
	if fm == MCC {
		return n.mcc(fault.ForQuadrant(mesh.Quadrant(s, d))).InMCC(c)
	}
	return n.blockSet().InBlock(c)
}

// DisabledCount returns the number of healthy nodes swallowed by fault
// regions under the model (for MCC: the type-one labeling).
func (n *Network) DisabledCount(fm FaultModel) int {
	if fm == MCC {
		return n.mcc(fault.TypeOne).DisabledCount()
	}
	return n.blockSet().DisabledCount()
}

// SafetyLevel returns the extended safety level of c under the model
// (for MCC: the type-one labeling, which serves quadrant I/III pairs).
func (n *Network) SafetyLevel(c Coord, fm FaultModel) (Level, error) {
	if !n.m.Contains(c) {
		return Level{}, fmt.Errorf("extmesh: node %v outside mesh", c)
	}
	md, err := n.modelFor(fm, 1)
	if err != nil {
		return Level{}, err
	}
	return md.Levels.At(c), nil
}

// reachCache lazily builds the shared per-root reachability memo over
// the raw fault grid. HasMinimalPath keys it by source, OracleRoute by
// destination; both roots live in the same cache because the sweeps
// run over the same immutable grid.
func (n *Network) reachCache() *wang.ReachCache {
	n.reachOnce.Do(func() {
		n.reach = wang.NewReachCacheBits(n.m, n.faultBits, ReachCacheCapacity)
	})
	return n.reach
}

// HasMinimalPath reports whether a minimal path from s to d exists
// that avoids the faulty nodes — the exact, global-information answer
// (Wang's necessary and sufficient condition). The first query from a
// source pays one full-mesh reachability sweep; every further query
// sharing that source (up to ReachCacheCapacity sources retained) is
// an O(1) lookup, so sweeping many destinations against one fault
// configuration is cheap.
func (n *Network) HasMinimalPath(s, d Coord) bool {
	return n.reachCache().CanReach(s, d)
}

// ReachCacheStats reports the hit/miss counters of the reachability
// memo behind HasMinimalPath and OracleRoute, for observability and
// capacity tuning.
func (n *Network) ReachCacheStats() (hits, misses uint64) {
	return n.reachCache().Stats()
}

// Safe evaluates the base sufficient safe condition (Theorem 1) for
// routing from s to d under the model.
func (n *Network) Safe(s, d Coord, fm FaultModel) bool {
	md, err := n.modelPair(fm, s, d)
	if err != nil {
		return false
	}
	return md.Safe(s, d)
}

// Ensure evaluates the strategy's conditions at s and reports the
// strongest guarantee obtained, with the witnessing waypoints.
func (n *Network) Ensure(s, d Coord, fm FaultModel, st Strategy) Assurance {
	md, err := n.modelPair(fm, s, d)
	if err != nil {
		return Assurance{}
	}
	return md.Evaluate(s, d, n.coreStrategy(st, s, d))
}

// Route routes a packet from s to d with Wu's limited-information
// protocol under the model. The path is minimal whenever the protocol
// succeeds; when the source does not satisfy any sufficient condition
// the protocol may fail with a *StuckError.
func (n *Network) Route(s, d Coord, fm FaultModel) (Path, error) {
	r, err := n.routerPair(fm, s, d)
	if err != nil {
		return nil, err
	}
	return r.Route(s, d)
}

// RouteInto is the append-style Route: the path is appended onto dst —
// which may be nil, or carry capacity retained from earlier routes —
// and the extended slice is returned, the new path occupying
// out[len(dst):]. On error the returned slice keeps dst's length
// (though possibly grown capacity). It is the building block callers
// with their own path storage (batch arenas, the serving planes, the
// simulators) use to route without a per-call allocation.
func (n *Network) RouteInto(dst Path, s, d Coord, fm FaultModel) (Path, error) {
	r, err := n.routerPair(fm, s, d)
	if err != nil {
		return dst, err
	}
	out, err := r.RouteInto(dst, s, d)
	return Path(out), err
}

// RouteAssured combines Ensure and Route: it evaluates the strategy
// and, when a guarantee exists, routes through the witness waypoints
// (the paper's two-phase routing). The returned path has length
// D(s,d) for a Minimal assurance and D(s,d)+2 for a SubMinimal one.
func (n *Network) RouteAssured(s, d Coord, fm FaultModel, st Strategy) (Path, Assurance, error) {
	a := n.Ensure(s, d, fm, st)
	if a.Verdict == Unknown {
		return nil, a, fmt.Errorf("extmesh: no sufficient condition ensures a path %v -> %v", s, d)
	}
	r, err := n.routerPair(fm, s, d)
	if err != nil {
		return nil, a, err
	}
	p, err := r.RouteVia(s, d, a.Via()...)
	if err != nil {
		return nil, a, err
	}
	return p, a, nil
}

// OracleRoute routes with full global fault information; it finds a
// minimal path exactly when HasMinimalPath holds. It is the baseline
// the limited-information protocol is measured against. The
// destination-rooted reachability sweep is memoized, so repeated
// oracle routes toward one destination cost O(path) each after the
// first.
func (n *Network) OracleRoute(s, d Coord) (Path, error) {
	if !n.m.Contains(s) || !n.m.Contains(d) {
		return nil, fmt.Errorf("route: endpoints %v -> %v outside mesh %v", s, d, n.m)
	}
	return route.OracleFrom(n.m, n.faultGrid, n.reachCache().Reach(d), s, d)
}

// OracleRouteInto is the append-style OracleRoute, with RouteInto's
// buffer contract: the path is appended onto dst and the extended
// slice returned; on error the returned slice keeps dst's length.
func (n *Network) OracleRouteInto(dst Path, s, d Coord) (Path, error) {
	if !n.m.Contains(s) || !n.m.Contains(d) {
		return dst, fmt.Errorf("route: endpoints %v -> %v outside mesh %v", s, d, n.m)
	}
	out, err := route.OracleFromInto(dst, n.m, n.reachCache().Reach(d), s, d)
	return Path(out), err
}

// StuckError is returned when the routing protocol runs out of usable
// moves; it is the route package's error type re-exported.
type StuckError = route.StuckError

// AffectedRows returns how many rows intersect a fault region under
// the model; only those rows need safety-level dissemination
// (Theorem 2 gives the analytical expectation).
func (n *Network) AffectedRows(fm FaultModel) int {
	md, err := n.modelFor(fm, 1)
	if err != nil {
		return 0
	}
	return safety.AffectedRows(n.m, md.Blocked)
}

// AffectedCols returns how many columns intersect a fault region under
// the model.
func (n *Network) AffectedCols(fm FaultModel) int {
	md, err := n.modelFor(fm, 1)
	if err != nil {
		return 0
	}
	return safety.AffectedCols(n.m, md.Blocked)
}

// mcc lazily builds the MCC labeling of the given type.
func (n *Network) mcc(t fault.MCCType) *fault.MCCSet {
	i := int(t) - 1
	n.mccOnce[i].Do(func() {
		n.mccSets[i] = fault.BuildMCC(n.sc, t)
	})
	return n.mccSets[i]
}

// blockSet returns the block set, collecting it on first use for a
// DynamicNetwork snapshot.
func (n *Network) blockSet() *fault.BlockSet {
	n.bsOnce.Do(func() {
		if n.bs == nil {
			n.bs = fault.BlocksFromGrid(n.m, n.faultGrid, n.dead)
		}
	})
	return n.bs
}

// blockedGrid lazily builds the fault-region grid of a model slot.
func (n *Network) blockedGrid(fm FaultModel, t fault.MCCType) ([]bool, error) {
	idx, err := modelIndex(fm, t)
	if err != nil {
		return nil, err
	}
	n.blockedOnce[idx].Do(func() {
		switch {
		case fm == MCC:
			n.blocked[idx] = n.mcc(t).BlockedGrid()
		case n.dead != nil:
			n.blocked[idx] = n.dead
		default:
			n.blocked[idx] = n.bs.BlockedGrid()
		}
	})
	return n.blocked[idx], nil
}

// modelIndex maps (FaultModel, MCCType) to the cache slot.
func modelIndex(fm FaultModel, t fault.MCCType) (int, error) {
	switch fm {
	case Blocks:
		return 0, nil
	case MCC:
		return int(t), nil // 1 or 2
	default:
		return 0, fmt.Errorf("extmesh: unknown fault model %d", fm)
	}
}

// recordErr remembers the first error a zero-value-returning accessor
// swallowed, for retrieval through Err.
func (n *Network) recordErr(err error) {
	if err == nil {
		return
	}
	n.errMu.Lock()
	if n.firstErr == nil {
		n.firstErr = err
	}
	n.errMu.Unlock()
}

// Err returns the first error swallowed by an accessor that reports
// zero values on failure (Safe, Ensure, AffectedRows, AffectedCols):
// an unknown fault model or a failed lazy model construction. Those
// methods deterministically return false / Unknown / 0 in that case;
// Err exposes why. It returns nil while every evaluation so far has
// been backed by a successfully built model.
func (n *Network) Err() error {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	return n.firstErr
}

// modelFor lazily builds the condition evaluator for a model slot.
// Construction failures are remembered for Err.
func (n *Network) modelFor(fm FaultModel, t fault.MCCType) (*core.Model, error) {
	idx, err := modelIndex(fm, t)
	if err != nil {
		n.recordErr(err)
		return nil, err
	}
	n.modelOnce[idx].Do(func() {
		blocked, _ := n.blockedGrid(fm, t)
		if n.lin != nil {
			n.models[idx] = n.lin.deriveModel(idx, n.version, n.m, blocked)
			return
		}
		md, err := core.NewModel(n.m, blocked)
		if err == nil {
			n.models[idx] = md
		} else {
			n.recordErr(fmt.Errorf("extmesh: model construction failed: %w", err))
		}
	})
	if n.models[idx] == nil {
		err := fmt.Errorf("extmesh: model construction failed")
		n.recordErr(err)
		return nil, err
	}
	return n.models[idx], nil
}

// modelPair returns the evaluator appropriate for an (s, d) pair.
func (n *Network) modelPair(fm FaultModel, s, d Coord) (*core.Model, error) {
	t := fault.TypeOne
	if fm == MCC {
		t = fault.ForQuadrant(mesh.Quadrant(s, d))
	}
	return n.modelFor(fm, t)
}

// routerPair returns the Wu-protocol router for an (s, d) pair.
func (n *Network) routerPair(fm FaultModel, s, d Coord) (*route.Router, error) {
	t := fault.TypeOne
	if fm == MCC {
		t = fault.ForQuadrant(mesh.Quadrant(s, d))
	}
	return n.router(fm, t)
}

// router lazily builds the Wu-protocol router of a model slot.
func (n *Network) router(fm FaultModel, t fault.MCCType) (*route.Router, error) {
	blocked, err := n.blockedGrid(fm, t)
	if err != nil {
		return nil, err
	}
	idx, _ := modelIndex(fm, t)
	n.routerOnce[idx].Do(func() {
		if n.lin != nil {
			n.routers[idx] = route.NewRouterFrom(n.m, blocked, &n.lin.views[idx], n.version)
		} else {
			n.routers[idx] = route.NewRouter(n.m, blocked)
		}
	})
	return n.routers[idx], nil
}

// coreStrategy translates the public strategy into the internal one,
// generating the pivot set for the destination quadrant.
func (n *Network) coreStrategy(st Strategy, s, d Coord) core.Strategy {
	cs := core.Strategy{
		UseExt1:         st.UseExtension1,
		UseExt2:         st.UseExtension2,
		SegSize:         st.SegmentSize,
		UseExt3:         st.UseExtension3,
		AllowSubMinimal: st.AllowDetour,
	}
	if st.UseExtension3 {
		levels := st.PivotLevels
		if levels <= 0 {
			levels = core.PivotLevels
		}
		region := Rect{
			MinX: min(s.X, d.X), MinY: min(s.Y, d.Y),
			MaxX: max(s.X, d.X), MaxY: max(s.Y, d.Y),
		}
		cs.Pivots = safety.Pivots(region, levels, safety.CenterPivots, nil)
	}
	return cs
}

// SafetyGrid exposes the full extended-safety-level grid under the
// model (for MCC: the type-one labeling), for bulk inspection and
// visualization. The grid is shared; callers must not mutate it.
func (n *Network) SafetyGrid(fm FaultModel) (*safety.Grid, error) {
	md, err := n.modelFor(fm, 1)
	if err != nil {
		return nil, err
	}
	return md.Levels, nil
}

// HasMinimalPathAvoidingBlocks reports whether a minimal path from s
// to d exists that avoids every node of every fault region under the
// given model — the strongest path any region-respecting router can
// produce. For the block model this evaluates Wang's coverage
// condition over the block rectangles; for MCC it runs the exact DP
// over the member grid of the pair's quadrant labeling.
func (n *Network) HasMinimalPathAvoidingBlocks(s, d Coord, fm FaultModel) bool {
	if !n.m.Contains(s) || !n.m.Contains(d) {
		return false
	}
	if fm == Blocks {
		bs := n.blockSet()
		if bs.InBlock(s) || bs.InBlock(d) {
			return false
		}
		return wang.HasMinimalPathBlocks(bs.Blocks, s, d)
	}
	md, err := n.modelPair(fm, s, d)
	if err != nil {
		return false
	}
	return wang.MinimalPathExists(n.m, s, d, md.Blocked)
}

// DFSRoute routes with the header-information baseline the paper
// contrasts its model against: depth-first search with backtracking,
// the packet header carrying the visited set. It delivers whenever the
// endpoints are connected in the fault-region-free subgraph, but the
// walk (which the returned path records, backtracking included) need
// not be minimal.
func (n *Network) DFSRoute(s, d Coord, fm FaultModel) (Path, error) {
	md, err := n.modelPair(fm, s, d)
	if err != nil {
		return nil, err
	}
	return route.DFSRoute(n.m, md.Blocked, s, d)
}
