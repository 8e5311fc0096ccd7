package main

import (
	"errors"
	"fmt"
	"net/http"
	"testing"

	"extmesh"
	"extmesh/meshclient"
)

// testNet is the seed-1 benchmark mesh and its inputs.
func testNet(t *testing.T) (*inputs, *extmesh.Network) {
	t.Helper()
	in := newInputs(1)
	n, err := extmesh.New(meshW, meshH, in.faults)
	if err != nil {
		t.Fatal(err)
	}
	return in, n
}

// findRequest returns the first request of the stream whose library
// answer satisfies ok.
func findRequest(t *testing.T, n *extmesh.Network, gen func(int) request, ok func(*request, *result) bool) (int, request, result) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		req := gen(i)
		want := expect(n, &req)
		if ok(&req, &want) {
			return i, req, want
		}
	}
	t.Fatal("no request in the stream has the wanted answer")
	return 0, request{}, result{}
}

// corruptions are the three damaged answers a correct checker must
// reject: a path with one corrupted hop, one flipped existence bit and
// one altered verdict.
func corruptions(t *testing.T, in *inputs, n *extmesh.Network) []corruption {
	single := func(i int) request { return in.single(streamOpen, i) }
	batch := func(i int) request { return in.batch(streamOpen, i) }

	ri, _, route := findRequest(t, n, single, func(r *request, res *result) bool {
		return r.op == opRoute && res.status == http.StatusOK && len(res.path) > 4
	})
	badRoute := route
	badRoute.path = append([]extmesh.Coord(nil), route.path...)
	badRoute.path[2].X++ // still the same length, one hop off the path

	bi, _, bits := findRequest(t, n, batch, func(r *request, res *result) bool { return r.op == opHMPBatch })
	badBits := bits
	badBits.bits = append([]bool(nil), bits.bits...)
	badBits.bits[17] = !badBits.bits[17]

	ei, _, ensure := findRequest(t, n, single, func(r *request, res *result) bool { return r.op == opEnsure })
	badEnsure := ensure
	badEnsure.verdict = extmesh.SubMinimal.String()
	if ensure.verdict == badEnsure.verdict {
		badEnsure.verdict = extmesh.Minimal.String()
	}

	return []corruption{
		{"corrupted hop", single, ri, route, badRoute},
		{"flipped existence bit", batch, bi, bits, badBits},
		{"altered verdict", single, ei, ensure, badEnsure},
	}
}

type corruption struct {
	name string
	gen  func(int) request
	idx  int
	want result
	bad  result
}

// streamGen adapts a one-stream generator to the checker's signature.
func (c corruption) streamGen(_ uint64, i int) request { return c.gen(i) }

func TestCheckerRejectsCorruptedAnswers(t *testing.T) {
	in, n := testNet(t)
	for _, tc := range corruptions(t, in, n) {
		t.Run(tc.name, func(t *testing.T) {
			if d := diff(&tc.want, &tc.bad); d == "" {
				t.Fatal("diff found no difference")
			}
			var good checker
			good.checkStatic([]*extmesh.Network{n}, tc.streamGen, []record{{idx: tc.idx, digest: tc.want.digest()}}, 1)
			if !good.passed() {
				t.Fatalf("the library's own answer failed the run: %v", good.notes)
			}

			var bad checker
			bad.checkStatic([]*extmesh.Network{n}, tc.streamGen, []record{{idx: tc.idx, digest: tc.bad.digest()}}, 1)
			if bad.passed() || bad.mismatches != 1 {
				t.Fatalf("corrupted answer passed: mismatches=%d", bad.mismatches)
			}
		})
	}
}

// TestWindowCheckRejectsCorruptedAnswers runs the same corruptions
// through the version-window check used on a mesh under writes.
func TestWindowCheckRejectsCorruptedAnswers(t *testing.T) {
	in, n := testNet(t)
	evs := in.writes(3)
	for _, tc := range corruptions(t, in, n) {
		t.Run(tc.name, func(t *testing.T) {
			// The read overlaps no write: its window is version 0 only.
			check := func(digest uint64) *checker {
				var c checker
				recs := []record{{idx: tc.idx, digest: digest, sent: 10, recv: 20}}
				ws := windows(recs, []int64{30, 40, 50}, []int64{35, 45, 55})
				if err := c.checkWindows(in.faults, evs, tc.streamGen, ws); err != nil {
					t.Fatal(err)
				}
				return &c
			}
			if c := check(tc.want.digest()); !c.passed() {
				t.Fatalf("the library's own answer failed the run: %v", c.notes)
			}
			if c := check(tc.bad.digest()); c.passed() {
				t.Fatal("corrupted answer passed")
			}
		})
	}
}

// TestWindowCheckAcceptsAnyVersionInWindow pins the window semantics: a
// read overlapping a write may carry either version's answer, and one
// answered after the write was acknowledged may not carry the old one.
func TestWindowCheckAcceptsAnyVersionInWindow(t *testing.T) {
	in, _ := testNet(t)
	evs := in.writes(1)
	after, err := extmesh.New(meshW, meshH, append(append([]extmesh.Coord(nil), in.faults...), evs[0].node))
	if err != nil {
		t.Fatal(err)
	}
	before, err := extmesh.New(meshW, meshH, in.faults)
	if err != nil {
		t.Fatal(err)
	}
	// A route that the new fault changes.
	gen := func(_ uint64, i int) request {
		return request{op: opRoute, model: "blocks", src: extmesh.Coord{X: evs[0].node.X - 3, Y: evs[0].node.Y - 3}, dst: extmesh.Coord{X: evs[0].node.X + i + 3, Y: evs[0].node.Y + 3}}
	}
	idx := -1
	for i := 0; i < 20; i++ {
		req := gen(0, i)
		if !in.blocked[req.src.Y*meshW+req.src.X] && !in.blocked[req.dst.Y*meshW+req.dst.X] {
			a, b := expect(before, &req), expect(after, &req)
			if diff(&a, &b) != "" {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		t.Skip("no nearby route changes with the first write")
	}
	req := gen(0, idx)
	old, cur := expect(before, &req), expect(after, &req)
	run := func(digest uint64, sent, recv int64) bool {
		var c checker
		ws := windows([]record{{idx: idx, digest: digest, sent: sent, recv: recv}}, []int64{100}, []int64{200})
		if err := c.checkWindows(in.faults, evs, gen, ws); err != nil {
			t.Fatal(err)
		}
		return c.passed()
	}
	for _, tc := range []struct {
		name       string
		digest     uint64
		sent, recv int64
		want       bool
	}{
		{"old answer, overlapping", old.digest(), 150, 250, true},
		{"new answer, overlapping", cur.digest(), 150, 250, true},
		{"old answer after the ack", old.digest(), 300, 400, false},
		{"new answer before the write", cur.digest(), 10, 50, false},
	} {
		if got := run(tc.digest, tc.sent, tc.recv); got != tc.want {
			t.Errorf("%s: passed=%v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestFailedCallsAreNotMismatches pins the error classes: a 422 is an
// answer to check, a shed or transport failure is a failed call.
func TestFailedCallsAreNotMismatches(t *testing.T) {
	for _, tc := range []struct {
		err    error
		answer bool
	}{
		{&meshclient.APIError{Status: http.StatusUnprocessableEntity, Message: "stuck"}, true},
		{&meshclient.APIError{Status: http.StatusTooManyRequests, Message: "shed"}, false},
		{fmt.Errorf("wrapped: %w", &meshclient.APIError{Status: http.StatusServiceUnavailable}), false},
		{errors.New("dial tcp: connection refused"), false},
	} {
		res, err := fromErr(tc.err)
		if got := err == nil; got != tc.answer {
			t.Errorf("%v: answer=%v, want %v", tc.err, got, tc.answer)
		}
		if err != nil && !errors.Is(err, errFailed) {
			t.Errorf("%v: failure not classed as errFailed", tc.err)
		}
		if tc.answer && res.status != http.StatusUnprocessableEntity {
			t.Errorf("%v: status %d", tc.err, res.status)
		}
	}
}

// TestInputsDeterministic pins that the seed alone fixes the inputs.
func TestInputsDeterministic(t *testing.T) {
	a, b := newInputs(7), newInputs(7)
	if fmt.Sprint(a.faults, a.hot, a.reserved) != fmt.Sprint(b.faults, b.hot, b.reserved) {
		t.Fatal("same seed, different meshes")
	}
	for i := 0; i < 50; i++ {
		ra, rb := a.single(streamOpen, i), b.single(streamOpen, i)
		if fmt.Sprint(ra) != fmt.Sprint(rb) {
			t.Fatalf("request %d differs", i)
		}
	}
	if fmt.Sprint(newInputs(8).faults) == fmt.Sprint(a.faults) {
		t.Fatal("different seeds, same faults")
	}
}
