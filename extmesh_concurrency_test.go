package extmesh

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestNetworkConcurrentUse exercises the documented thread-safety of
// an immutable Network: lazy caches (MCC sets, models, routers) must
// build exactly once under concurrent access. Run with -race.
func TestNetworkConcurrentUse(t *testing.T) {
	n := paperNetwork(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := Coord{X: 0, Y: 0}
			d := Coord{X: 9 - g%3, Y: 10 - g%2}
			for i := 0; i < 20; i++ {
				_ = n.Safe(s, d, Blocks)
				_ = n.Safe(s, d, MCC)
				_ = n.Ensure(s, d, MCC, DefaultStrategy())
				if _, err := n.Route(s, d, Blocks); err != nil {
					t.Errorf("Route: %v", err)
					return
				}
				if _, err := n.Route(s, d, MCC); err != nil {
					t.Errorf("Route MCC: %v", err)
					return
				}
				_ = n.HasMinimalPath(s, d)
				if _, err := n.SafetyLevel(s, MCC); err != nil {
					t.Errorf("SafetyLevel: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSnapshotSingleFlight races many first readers of each new
// version: every one of them must be handed the same Network, built
// exactly once, and their concurrent first queries — which derive the
// MCC models and router views from the previous version — must agree
// with a fresh build. Run with -race.
func TestSnapshotSingleFlight(t *testing.T) {
	d, err := NewDynamic(48, 48)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for d.FaultCount() < 60 {
		if c := (Coord{X: rng.Intn(48), Y: rng.Intn(48)}); !d.IsFaulty(c) {
			if err := d.AddFault(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	const readers = 16
	for round := 0; round < 30; round++ {
		c := Coord{X: rng.Intn(48), Y: rng.Intn(48)}
		if d.IsFaulty(c) {
			err = d.RemoveFault(c)
		} else {
			err = d.AddFault(c)
		}
		if err != nil {
			t.Fatal(err)
		}
		before := d.builds.Load()
		nets := make([]*Network, readers)
		paths := make([]Path, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		s, dst := Coord{X: 0, Y: 47}, Coord{X: 47, Y: 0}
		for i := range nets {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				n, err := d.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				nets[i] = n
				fm := []FaultModel{Blocks, MCC}[i%2]
				paths[i], _ = n.Route(s, dst, fm)
				n.Ensure(s, dst, fm, DefaultStrategy())
			}(i)
		}
		close(start)
		wg.Wait()
		if got := d.builds.Load() - before; got != 1 {
			t.Fatalf("round %d: %d snapshot builds for one version, want 1", round, got)
		}
		for i, n := range nets {
			if n != nets[0] {
				t.Fatalf("round %d: reader %d got a different Network", round, i)
			}
		}
		if nets[0].version != d.Version() {
			t.Fatalf("round %d: snapshot version %d, network at %d", round, nets[0].version, d.Version())
		}
		ref, err := New(48, 48, d.Faults())
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range paths {
			want, _ := ref.Route(s, dst, []FaultModel{Blocks, MCC}[i%2])
			if !slices.Equal(p, want) {
				t.Fatalf("round %d reader %d: route %v, fresh build %v", round, i, p, want)
			}
		}
	}
}
