// Package fault implements the paper's two fault models on a 2-D mesh:
// Wu's rectangular faulty blocks (Definition 1) and Wang's
// minimal-connected-components, MCCs (Definition 2). It also provides
// seeded random fault injection for the simulation workloads.
package fault

import (
	"fmt"
	"math/rand"

	"extmesh/internal/mesh"
)

// Scenario couples a mesh with a set of faulty nodes. It is the input
// to both fault-model constructions.
type Scenario struct {
	M      mesh.Mesh
	Faults []mesh.Coord

	faulty []bool // indexed by mesh.Index
}

// NewScenario validates the fault set against the mesh and returns a
// scenario. Duplicate faults are rejected so that fault counts in the
// simulation are exact.
func NewScenario(m mesh.Mesh, faults []mesh.Coord) (*Scenario, error) {
	if m.Width <= 0 || m.Height <= 0 {
		return nil, fmt.Errorf("fault: invalid mesh %v", m)
	}
	s := &Scenario{M: m}
	if err := s.Reset(faults); err != nil {
		return nil, err
	}
	return s, nil
}

// ScenarioFromGrid returns the scenario of a fault set that is already
// validated: faults lists the faulty nodes and faulty marks them,
// indexed by mesh.Index. Both are retained, not copied, and must not be
// mutated afterwards.
func ScenarioFromGrid(m mesh.Mesh, faults []mesh.Coord, faulty []bool) *Scenario {
	return &Scenario{M: m, Faults: faults, faulty: faulty}
}

// Reset replaces the scenario's fault set in place, reusing the faulty
// grid and fault-list backing so that one scenario can serve many fault
// configurations over the same mesh without reallocating. It performs
// the same validation as NewScenario; on error the scenario is left
// with an empty fault set.
func (s *Scenario) Reset(faults []mesh.Coord) error {
	m := s.M
	if cap(s.faulty) < m.Size() {
		s.faulty = make([]bool, m.Size())
	} else {
		s.faulty = s.faulty[:m.Size()]
		clear(s.faulty)
	}
	s.Faults = append(s.Faults[:0], faults...)
	for _, f := range faults {
		if !m.Contains(f) {
			s.Faults = s.Faults[:0]
			clear(s.faulty)
			return fmt.Errorf("fault: node %v outside mesh %v", f, m)
		}
		i := m.Index(f)
		if s.faulty[i] {
			s.Faults = s.Faults[:0]
			clear(s.faulty)
			return fmt.Errorf("fault: duplicate faulty node %v", f)
		}
		s.faulty[i] = true
	}
	return nil
}

// IsFaulty reports whether c is a faulty node. Nodes outside the mesh
// are not faulty.
func (s *Scenario) IsFaulty(c mesh.Coord) bool {
	if !s.M.Contains(c) {
		return false
	}
	return s.faulty[s.M.Index(c)]
}

// FaultCount returns the number of faulty nodes.
func (s *Scenario) FaultCount() int {
	return len(s.Faults)
}

// RandomFaults draws k distinct faulty nodes uniformly from the mesh,
// skipping nodes for which exclude returns true (exclude may be nil).
// It returns an error if fewer than k eligible nodes exist.
func RandomFaults(m mesh.Mesh, k int, rng *rand.Rand, exclude func(mesh.Coord) bool) ([]mesh.Coord, error) {
	if k < 0 {
		return nil, fmt.Errorf("fault: negative fault count %d", k)
	}
	if k > m.Size() {
		return nil, fmt.Errorf("fault: %d faults exceed mesh size %d", k, m.Size())
	}
	taken := make(map[mesh.Coord]bool, k)
	faults := make([]mesh.Coord, 0, k)
	// Rejection sampling is efficient because the simulations keep the
	// fault density low (<= 200 faults in 40000 nodes). Guard against a
	// pathological exclude with an attempt budget.
	maxAttempts := 100 * (k + 1) * 10
	for attempts := 0; len(faults) < k; attempts++ {
		if attempts > maxAttempts {
			return nil, fmt.Errorf("fault: could not place %d faults (placed %d); exclusion too strict", k, len(faults))
		}
		c := mesh.Coord{X: rng.Intn(m.Width), Y: rng.Intn(m.Height)}
		if taken[c] || (exclude != nil && exclude(c)) {
			continue
		}
		taken[c] = true
		faults = append(faults, c)
	}
	return faults, nil
}

// ClusteredFaults draws k distinct faulty nodes grouped around
// `clusters` uniformly-placed centers: each fault picks a random
// center and a position displaced by a geometric-ish spread in each
// axis. Clustered faults form much larger faulty blocks than uniform
// ones, stressing the block construction and the routing conditions
// beyond the paper's uniform workload. exclude may be nil.
func ClusteredFaults(m mesh.Mesh, k, clusters, spread int, rng *rand.Rand, exclude func(mesh.Coord) bool) ([]mesh.Coord, error) {
	if k < 0 || k > m.Size() {
		return nil, fmt.Errorf("fault: fault count %d out of range", k)
	}
	if clusters <= 0 || spread < 0 {
		return nil, fmt.Errorf("fault: need positive clusters and non-negative spread")
	}
	centers := make([]mesh.Coord, clusters)
	for i := range centers {
		centers[i] = mesh.Coord{X: rng.Intn(m.Width), Y: rng.Intn(m.Height)}
	}
	jitter := func() int {
		// Sum of two uniforms gives a triangular displacement.
		return rng.Intn(spread+1) + rng.Intn(spread+1) - spread
	}
	taken := make(map[mesh.Coord]bool, k)
	faults := make([]mesh.Coord, 0, k)
	maxAttempts := 1000 * (k + 1)
	for attempts := 0; len(faults) < k; attempts++ {
		if attempts > maxAttempts {
			return nil, fmt.Errorf("fault: could not place %d clustered faults (placed %d)", k, len(faults))
		}
		c := centers[rng.Intn(clusters)]
		p := mesh.Coord{X: c.X + jitter(), Y: c.Y + jitter()}
		if !m.Contains(p) || taken[p] || (exclude != nil && exclude(p)) {
			continue
		}
		taken[p] = true
		faults = append(faults, p)
	}
	return faults, nil
}
