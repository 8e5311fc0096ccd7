package route

import (
	"math/rand"
	"testing"

	"extmesh/internal/mesh"
)

// TestLineageDerivedViewsMatchFresh drives a Lineage through random
// sequences of arbitrary blocked grids — single-cell toggles, small
// clusters and wholesale redraws, not only valid block or MCC
// labelings, since the kernel is defined over any grid — and requires
// every derived view to carry exactly the boundary information of a
// fresh build, and its routes to match the fresh router's hop for hop.
func TestLineageDerivedViewsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var fresh, patched, shared uint64
	for trial := 0; trial < 40; trial++ {
		m := mesh.Mesh{Width: 1 + rng.Intn(40), Height: 1 + rng.Intn(40)}
		grid := make([]bool, m.Size())
		density := 0.02 + 0.2*rng.Float64()
		for i := range grid {
			grid[i] = rng.Float64() < density
		}
		var lin Lineage
		for step := uint64(1); step <= 30; step++ {
			next := append([]bool(nil), grid...)
			switch k := rng.Intn(10); {
			case k < 6: // a few single-cell toggles
				for n := 1 + rng.Intn(3); n > 0; n-- {
					i := rng.Intn(m.Size())
					next[i] = !next[i]
				}
			case k < 9: // a small cluster appears or clears
				c := mesh.Coord{X: rng.Intn(m.Width), Y: rng.Intn(m.Height)}
				set := rng.Intn(2) == 0
				for dy := 0; dy < 3; dy++ {
					for dx := 0; dx < 3; dx++ {
						if p := (mesh.Coord{X: c.X + dx, Y: c.Y + dy}); m.Contains(p) {
							next[m.Index(p)] = set
						}
					}
				}
			default: // a redraw that reaches most lines
				for i := range next {
					next[i] = rng.Float64() < density
				}
			}
			grid = next
			derived := NewRouterFrom(m, grid, &lin, step)
			ref := NewRouter(m, grid)
			// Build a random subset of orientations, so the lineage's
			// views come from different versions.
			for o := 0; o < 4; o++ {
				if rng.Intn(3) == 0 {
					continue
				}
				fx, fy := o&1 == 1, o&2 == 2
				if err := DiffViews(derived, ref, fx, fy); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
			}
			for q := 0; q < 20; q++ {
				s := mesh.Coord{X: rng.Intn(m.Width), Y: rng.Intn(m.Height)}
				d := mesh.Coord{X: rng.Intn(m.Width), Y: rng.Intn(m.Height)}
				if grid[m.Index(s)] || grid[m.Index(d)] {
					continue
				}
				got, gErr := derived.Route(s, d)
				want, wErr := ref.Route(s, d)
				if (gErr == nil) != (wErr == nil) || !samePath(got, want) {
					t.Fatalf("trial %d step %d %v->%v: derived %v (%v), fresh %v (%v)", trial, step, s, d, got, gErr, want, wErr)
				}
			}
		}
		f, p, s := lin.Stats()
		fresh, patched, shared = fresh+f, patched+p, shared+s
	}
	if fresh == 0 || patched == 0 || shared == 0 {
		t.Fatalf("derivation paths not all exercised: fresh %d, patched %d, shared %d", fresh, patched, shared)
	}
	t.Logf("views: %d fresh, %d patched, %d shared", fresh, patched, shared)
}

// TestLineageKeepsNewestVersion pins the publication rule: a view
// built for an older version never replaces a newer version's view as
// the lineage's derivation base.
func TestLineageKeepsNewestVersion(t *testing.T) {
	m := mesh.Mesh{Width: 12, Height: 12}
	a := make([]bool, m.Size())
	b := make([]bool, m.Size())
	a[m.Index(mesh.Coord{X: 4, Y: 4})] = true
	b[m.Index(mesh.Coord{X: 8, Y: 2})] = true
	var lin Lineage
	newer := NewRouterFrom(m, b, &lin, 5)
	vNew := newer.view(0, 0)
	older := NewRouterFrom(m, a, &lin, 3)
	older.view(0, 0)
	if got := lin.base(0, 0); got != vNew {
		t.Fatal("an older version's view replaced the newer one as the lineage base")
	}
}

// BenchmarkViewDerive prices one orientation view of a 200x200 blocked
// grid with 200 blocked cells after one cell toggles: built from
// scratch, and patched from the view before the toggle.
func BenchmarkViewDerive(b *testing.B) {
	m := mesh.Mesh{Width: 200, Height: 200}
	rng := rand.New(rand.NewSource(3))
	before := make([]bool, m.Size())
	for k := 0; k < 200; k++ {
		before[rng.Intn(m.Size())] = true
	}
	after := append([]bool(nil), before...)
	toggle := m.Index(mesh.Coord{X: 101, Y: 97})
	after[toggle] = !after[toggle]
	var lin Lineage
	NewRouterFrom(m, before, &lin, 1).view(0, 0)
	base := lin.base(0, 0)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewRouter(m, after).view(0, 0)
		}
	})
	b.Run("patch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var l Lineage
			l.publish(0, 0, 1, base)
			NewRouterFrom(m, after, &l, 2).view(0, 0)
		}
	})
}
