package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"sync"

	"extmesh"
	"extmesh/meshclient"
)

// result is one answer in a transport-neutral form, so an answer from
// either client and the library's own answer compare field by field.
type result struct {
	status  int    // 200, or the error status the library's error maps to
	msg     string // error message of a non-200 answer
	hops    int
	path    []extmesh.Coord
	verdict string
	via     []extmesh.Coord
	exists  bool
	items   []result // route batch, one per pair
	bits    []bool   // existence batch, one per destination
}

// digest hashes every field, so a record can keep 8 bytes instead of
// the answer and still be checked after the timed phase.
func (r *result) digest() uint64 {
	h := fnv.New64a()
	r.hashInto(h)
	return h.Sum64()
}

type byteWriter interface{ Write([]byte) (int, error) }

func (r *result) hashInto(h byteWriter) {
	var b [8]byte
	put := func(v int) {
		u := uint64(int64(v))
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	coords := func(cs []extmesh.Coord) {
		put(len(cs))
		for _, c := range cs {
			put(c.X)
			put(c.Y)
		}
	}
	put(r.status)
	put(len(r.msg))
	h.Write([]byte(r.msg))
	put(r.hops)
	coords(r.path)
	put(len(r.verdict))
	h.Write([]byte(r.verdict))
	coords(r.via)
	if r.exists {
		put(1)
	} else {
		put(0)
	}
	put(len(r.items))
	for i := range r.items {
		r.items[i].hashInto(h)
	}
	put(len(r.bits))
	for _, v := range r.bits {
		if v {
			put(1)
		} else {
			put(0)
		}
	}
}

// errFailed marks a call that produced no answer to check: a transport
// failure, a shed request after retries, or a status the library never
// maps an answer to. It counts toward error_frac, never as a wrong
// answer.
var errFailed = errors.New("call failed")

// fromErr classifies a client error. An *APIError with 422 is an
// answer (the library's StuckError for a route, Unknown for an assured
// route); anything else is a failed call.
func fromErr(err error) (result, error) {
	var apiErr *meshclient.APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusUnprocessableEntity {
		return result{status: apiErr.Status, msg: apiErr.Message}, nil
	}
	return result{}, fmt.Errorf("%w: %v", errFailed, err)
}

// expect is the library's answer to req on n, in the form the serving
// planes encode it.
func expect(n *extmesh.Network, req *request) result {
	switch req.op {
	case opRoute:
		p, err := n.Route(req.src, req.dst, req.fm())
		if err != nil {
			return result{status: http.StatusUnprocessableEntity, msg: err.Error()}
		}
		return result{status: http.StatusOK, hops: len(p) - 1, path: p}
	case opRouteAssured:
		p, a, err := n.RouteAssured(req.src, req.dst, req.fm(), extmesh.DefaultStrategy())
		if err != nil {
			return result{status: http.StatusUnprocessableEntity, msg: err.Error()}
		}
		return result{status: http.StatusOK, hops: len(p) - 1, path: p, verdict: a.Verdict.String(), via: a.Via()}
	case opEnsure:
		a := n.Ensure(req.src, req.dst, req.fm(), extmesh.DefaultStrategy())
		return result{status: http.StatusOK, verdict: a.Verdict.String(), via: a.Via()}
	case opHasMinimalPath:
		return result{status: http.StatusOK, exists: n.HasMinimalPath(req.src, req.dst)}
	case opRouteBatch:
		pairs := make([]extmesh.Pair, len(req.pairs))
		for i, p := range req.pairs {
			pairs[i] = extmesh.Pair{Src: p.Src, Dst: p.Dst}
		}
		res := n.RouteMany(pairs, req.fm())
		out := result{status: http.StatusOK, items: make([]result, len(res))}
		for i, rr := range res {
			if rr.Err != nil {
				out.items[i] = result{status: http.StatusUnprocessableEntity, hops: -1, msg: rr.Err.Error()}
				continue
			}
			out.items[i] = result{status: http.StatusOK, hops: len(rr.Path) - 1, path: rr.Path}
		}
		return out
	case opHMPBatch:
		return result{status: http.StatusOK, bits: n.HasMinimalPathAll(req.src, req.dests)}
	}
	panic(fmt.Sprintf("unknown op %d", req.op))
}

// Converters from the client's typed answers.

func fromRoute(rr *meshclient.RouteResult) result {
	return result{status: http.StatusOK, hops: rr.Hops, path: rr.Path}
}

func fromAssured(a *meshclient.Assurance) result {
	return result{status: http.StatusOK, hops: a.Hops, path: a.Path, verdict: a.Verdict, via: a.Via}
}

func fromEnsure(a *meshclient.Assurance) result {
	return result{status: http.StatusOK, verdict: a.Verdict, via: a.Via}
}

func fromBatch(rs []meshclient.BatchRouteResult) result {
	out := result{status: http.StatusOK, items: make([]result, len(rs))}
	for i, r := range rs {
		if r.Error != "" {
			out.items[i] = result{status: http.StatusUnprocessableEntity, hops: r.Hops, msg: r.Error}
			continue
		}
		out.items[i] = result{status: http.StatusOK, hops: r.Hops, path: r.Path}
	}
	return out
}

// diff describes how got departs from want, or returns "" when they
// are equal.
func diff(want, got *result) string {
	switch {
	case want.status != got.status:
		return fmt.Sprintf("status %d, want %d (%q)", got.status, want.status, want.msg)
	case want.msg != got.msg:
		return fmt.Sprintf("error %q, want %q", got.msg, want.msg)
	case want.verdict != got.verdict:
		return fmt.Sprintf("verdict %s, want %s", got.verdict, want.verdict)
	case !equalCoords(want.via, got.via):
		return fmt.Sprintf("via %v, want %v", got.via, want.via)
	case want.exists != got.exists:
		return fmt.Sprintf("exists %v, want %v", got.exists, want.exists)
	case want.hops != got.hops:
		return fmt.Sprintf("hops %d, want %d", got.hops, want.hops)
	case !equalCoords(want.path, got.path):
		for i := range want.path {
			if i >= len(got.path) || got.path[i] != want.path[i] {
				return fmt.Sprintf("path differs at hop %d", i)
			}
		}
		return fmt.Sprintf("path has %d nodes, want %d", len(got.path), len(want.path))
	case len(want.items) != len(got.items):
		return fmt.Sprintf("%d batch results, want %d", len(got.items), len(want.items))
	case len(want.bits) != len(got.bits):
		return fmt.Sprintf("%d existence bits, want %d", len(got.bits), len(want.bits))
	}
	for i := range want.items {
		if d := diff(&want.items[i], &got.items[i]); d != "" {
			return fmt.Sprintf("pair %d: %s", i, d)
		}
	}
	for i := range want.bits {
		if want.bits[i] != got.bits[i] {
			return fmt.Sprintf("existence bit %d is %v, want %v", i, got.bits[i], want.bits[i])
		}
	}
	return ""
}

func equalCoords(a, b []extmesh.Coord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// record is one checked call: which request of which stream it
// answered, and the digest of the answer. Failed calls are not
// recorded. sent and recv (nanoseconds since the run began) place the
// call against the write stream on a mutating mesh.
type record struct {
	stream uint64
	idx    int
	digest uint64
	sent   int64
	recv   int64
}

// checker accumulates mismatches across a run. It keeps the first few
// descriptions for the report.
type checker struct {
	mu         sync.Mutex
	checked    int
	mismatches int
	notes      []string
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mismatches++
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok(n int) {
	c.mu.Lock()
	c.checked += n
	c.mu.Unlock()
}

// compare checks one answer against the library's answer in full.
func (c *checker) compare(what string, want, got *result) {
	if d := diff(want, got); d != "" {
		c.fail("%s: %s", what, d)
		return
	}
	c.ok(1)
}

// checkStatic checks recorded answers from meshes whose faults never
// change: each must equal the library's answer on refs[req.mesh]. The
// work is spread over workers goroutines; a Network is safe for
// concurrent use.
func (c *checker) checkStatic(refs []*extmesh.Network, gen func(stream uint64, i int) request, recs []record, workers int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(recs); k += workers {
				rec := &recs[k]
				req := gen(rec.stream, rec.idx)
				want := expect(refs[req.mesh], &req)
				if want.digest() != rec.digest {
					c.fail("%s request %d of stream %d from %v to %v: answer differs from the library's",
						req.op, rec.idx, rec.stream, req.src, req.dst)
					continue
				}
				c.ok(1)
			}
		}(w)
	}
	wg.Wait()
}

// window is a read against a mesh under writes: the answer must equal
// the library's at some version in [lo, hi] — lo counts the writes
// acknowledged before the read was sent, hi the writes sent before its
// answer arrived.
type window struct {
	rec    *record
	lo, hi int
}

// windows places each read against the write stream's send and ack
// times (same clock as the records).
func windows(recs []record, writeSent, writeAcked []int64) []window {
	ws := make([]window, len(recs))
	for i := range recs {
		r := &recs[i]
		lo := sort.Search(len(writeAcked), func(k int) bool { return writeAcked[k] >= r.sent })
		hi := sort.Search(len(writeSent), func(k int) bool { return writeSent[k] >= r.recv })
		ws[i] = window{rec: r, lo: lo, hi: hi}
	}
	return ws
}

// checkWindows replays the write stream on a local DynamicNetwork and
// checks every read at each version of its window, in one pass over the
// versions. base holds the mesh's faults before the first write.
func (c *checker) checkWindows(base []extmesh.Coord, evs []faultEvent, gen func(stream uint64, i int) request, ws []window) error {
	d, err := extmesh.NewDynamic(meshW, meshH)
	if err != nil {
		return err
	}
	if _, _, err := d.Apply(base, nil); err != nil {
		return err
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].lo < ws[j].lo })
	var pending []window
	next := 0
	maxV := 0
	for _, w := range ws {
		maxV = max(maxV, w.hi)
	}
	for v := 0; v <= maxV; v++ {
		if v > 0 {
			e := evs[v-1]
			if e.fail {
				_, _, err = d.Apply([]extmesh.Coord{e.node}, nil)
			} else {
				_, _, err = d.Apply(nil, []extmesh.Coord{e.node})
			}
			if err != nil {
				return err
			}
		}
		for next < len(ws) && ws[next].lo <= v {
			pending = append(pending, ws[next])
			next++
		}
		if len(pending) == 0 {
			continue
		}
		n, err := d.Snapshot()
		if err != nil {
			return err
		}
		kept := pending[:0]
		for _, w := range pending {
			req := gen(w.rec.stream, w.rec.idx)
			want := expect(n, &req)
			switch {
			case want.digest() == w.rec.digest:
				c.ok(1)
			case w.hi <= v:
				c.fail("%s request %d of stream %d from %v to %v: answer matches no version in [%d, %d]",
					req.op, w.rec.idx, w.rec.stream, req.src, req.dst, w.lo, w.hi)
			default:
				kept = append(kept, w)
			}
		}
		pending = kept
	}
	return nil
}

// passed reports whether every checked answer matched and at least one
// was checked.
func (c *checker) passed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mismatches == 0 && c.checked > 0
}
