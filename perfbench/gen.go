package main

import (
	"extmesh"
	"extmesh/meshclient"
)

// The paper's mesh at the fault density meshbench already uses.
const (
	meshW      = 200
	meshH      = 200
	meshFaults = 200

	// hotSources is the hot source set of the single-query mix: half the
	// 1024-root reach cache, so it fits with room for the cold tail.
	hotSources = 512
	// hotShare is the share of single queries whose source is hot.
	hotShare = 0.9
	// batchSize is the pairs or destinations of one batch request.
	batchSize = 256
	// reservedCells is how many cells the fault-mutation stream may
	// touch. Query endpoints never use them.
	reservedCells = 64
	// batchMeshes is how many static meshes, each with its own faults,
	// batch-binary spreads its batches over. A route batch's cost depends
	// on the fault layout; averaging over four layouts per run keeps
	// one seed's layout from setting the run's figures.
	batchMeshes = 4
)

// op is one query kind the benchmark sends.
type op uint8

const (
	opRoute op = iota
	opRouteAssured
	opEnsure
	opHasMinimalPath
	opRouteBatch
	opHMPBatch
)

var opNames = [...]string{"route", "route-assured", "ensure", "has-minimal-path", "route/batch", "has-minimal-path/batch"}

func (o op) String() string { return opNames[o] }

// batch reports whether the op carries many answers.
func (o op) batch() bool { return o == opRouteBatch || o == opHMPBatch }

// request is one generated query. Single ops use src and dst; the route
// batch uses pairs; the existence batch uses src and dests.
type request struct {
	mesh  int // which static mesh: 0, or up to batchMeshes-1 for batches
	op    op
	model string // "blocks" or "mcc"; empty for existence queries
	src   extmesh.Coord
	dst   extmesh.Coord
	pairs []meshclient.Pair
	dests []extmesh.Coord
}

// answers is how many answers the request delivers.
func (r request) answers() int {
	switch r.op {
	case opRouteBatch:
		return len(r.pairs)
	case opHMPBatch:
		return len(r.dests)
	}
	return 1
}

func (r *request) query() meshclient.Query {
	return meshclient.Query{Src: r.src, Dst: r.dst, Model: r.model}
}

func (r *request) fm() extmesh.FaultModel {
	if r.model == "mcc" {
		return extmesh.MCC
	}
	return extmesh.Blocks
}

// rng is splitmix64: tiny, allocation-free, and cheap to derive one
// independent stream per request index from.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// streamRNG derives the generator of item i of a named stream.
func streamRNG(seed int64, stream uint64, i int) *rng {
	r := &rng{s: uint64(seed)*0x2545f4914f6cdd1d ^ stream<<40 ^ uint64(i)}
	r.next()
	return r
}

// Stream identifiers: each request stream draws from its own sequence,
// so a phase's inputs do not depend on how long an earlier phase ran.
const (
	streamSetup uint64 = iota + 1
	streamOpen
	streamClosed
	streamWrite
	streamWarm
	streamProbe
	streamPostWrite
)

// inputs is everything a workload sends, derived from the seed alone.
type inputs struct {
	seed     int64
	faults   []extmesh.Coord
	meshes   [][]extmesh.Coord // static mesh fault sets; meshes[0] is faults
	blocked  []bool            // faulty or reserved: never a query endpoint
	hot      []extmesh.Coord
	reserved []extmesh.Coord
}

func newInputs(seed int64) *inputs {
	in := &inputs{seed: seed, blocked: make([]bool, meshW*meshH)}
	r := streamRNG(seed, streamSetup, 0)
	pick := func() extmesh.Coord {
		for {
			c := extmesh.Coord{X: r.intn(meshW), Y: r.intn(meshH)}
			if !in.blocked[c.Y*meshW+c.X] {
				in.blocked[c.Y*meshW+c.X] = true
				return c
			}
		}
	}
	for len(in.faults) < meshFaults {
		in.faults = append(in.faults, pick())
	}
	for len(in.reserved) < reservedCells {
		in.reserved = append(in.reserved, pick())
	}
	for len(in.hot) < hotSources {
		c := extmesh.Coord{X: r.intn(meshW), Y: r.intn(meshH)}
		if !in.blocked[c.Y*meshW+c.X] {
			in.hot = append(in.hot, c)
		}
	}
	// The other static meshes draw from their own streams and do not
	// block endpoints: a batch endpoint on one of their faults gets the
	// library's answer for it like any other.
	in.meshes = [][]extmesh.Coord{in.faults}
	for k := 1; k < batchMeshes; k++ {
		r := streamRNG(seed, streamSetup, k)
		seen := make(map[extmesh.Coord]bool, meshFaults)
		var fs []extmesh.Coord
		for len(fs) < meshFaults {
			c := extmesh.Coord{X: r.intn(meshW), Y: r.intn(meshH)}
			if !seen[c] {
				seen[c] = true
				fs = append(fs, c)
			}
		}
		in.meshes = append(in.meshes, fs)
	}
	return in
}

// endpoint draws a uniform query endpoint off the faulty and reserved
// cells.
func (in *inputs) endpoint(r *rng) extmesh.Coord {
	for {
		c := extmesh.Coord{X: r.intn(meshW), Y: r.intn(meshH)}
		if !in.blocked[c.Y*meshW+c.X] {
			return c
		}
	}
}

// single is item i of a single-query stream, with most sources drawn
// from the hot set. Routes and assured routes under both fault models
// make 3/4 of the mix, ensure under both models and existence the rest:
// a path answer costs several times a verdict, and a 50/50 mix of the
// two would put the median in the gap between them, where it jumps.
func (in *inputs) single(stream uint64, i int) request {
	r := streamRNG(in.seed, stream, i)
	var req request
	models := [2]string{"blocks", "mcc"}
	switch k := r.intn(16); {
	case k < 12:
		req.op = [2]op{opRoute, opRouteAssured}[k%2]
		req.model = models[k/2%2]
	case k < 14:
		req.op, req.model = opEnsure, models[k%2]
	default:
		req.op = opHasMinimalPath
	}
	if r.float() < hotShare {
		req.src = in.hot[r.intn(len(in.hot))]
	} else {
		req.src = in.endpoint(r)
	}
	for req.dst = in.endpoint(r); req.dst == req.src; req.dst = in.endpoint(r) {
	}
	return req
}

// batch is item i of a batch stream: one route batch of 256 uniform
// pairs, then three existence batches of one uniform source against 256
// uniform destinations. The route batch costs about ten times an
// existence batch and most of the phase's CPU; its latency rides on the
// server spreading the pairs over both cores, which a busy host breaks
// up, so the 1:3 share keeps the median inside the existence batches.
// Each group of four goes to the next of the batchMeshes static meshes.
func (in *inputs) batch(stream uint64, i int) request {
	r := streamRNG(in.seed, stream, i)
	mesh := i / 4 % batchMeshes
	if i%4 == 0 {
		req := request{mesh: mesh, op: opRouteBatch, model: "blocks", pairs: make([]meshclient.Pair, batchSize)}
		for k := range req.pairs {
			req.pairs[k].Src = in.endpoint(r)
			req.pairs[k].Dst = in.endpoint(r)
		}
		return req
	}
	req := request{mesh: mesh, op: opHMPBatch, src: in.endpoint(r), dests: make([]extmesh.Coord, batchSize)}
	for k := range req.dests {
		req.dests[k] = in.endpoint(r)
	}
	return req
}

// faultEvent is one mutation of the write stream: exactly one reserved
// cell failed or recovered, so every write moves the mesh version by 1.
type faultEvent struct {
	fail bool
	node extmesh.Coord
}

func (e faultEvent) request() meshclient.FaultsRequest {
	if e.fail {
		return meshclient.FaultsRequest{Fail: []extmesh.Coord{e.node}}
	}
	return meshclient.FaultsRequest{Recover: []extmesh.Coord{e.node}}
}

// writes returns the first n events of the seeded fail/recover stream
// over the reserved cells, starting from all of them healthy.
func (in *inputs) writes(n int) []faultEvent {
	r := streamRNG(in.seed, streamWrite, 0)
	down := make([]bool, len(in.reserved))
	evs := make([]faultEvent, n)
	for i := range evs {
		k := r.intn(len(in.reserved))
		down[k] = !down[k]
		evs[i] = faultEvent{fail: down[k], node: in.reserved[k]}
	}
	return evs
}
