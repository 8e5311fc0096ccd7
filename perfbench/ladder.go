package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"extmesh"
	"extmesh/internal/fault"
	"extmesh/internal/journal"
	"extmesh/internal/mesh"
	"extmesh/internal/metrics"
	"extmesh/internal/route"
	"extmesh/internal/serve"
	"extmesh/internal/wang"
	"extmesh/internal/wire"
	"extmesh/meshclient"
)

// traceRun is the traced mode of every workload. It measures, in order:
//
//  1. an untraced open-loop read phase, the baseline of trace.overhead_frac;
//  2. the same phase with a span around every client call, with the
//     workload's writer running if it has one, reading the daemons'
//     counters before and after;
//  3. the in-process ladder: the same seeded request stream replayed
//     through the serve handler (httptest, no socket), the binary frame
//     handler, the extmesh API, the route and wang kernels, the wire
//     codec, and the write stream through DynamicNetwork and journal.
//
// Each layer's cost is then a subtraction of medians along the ladder.
func (b *bench) traceRun(ctx context.Context, top *topology, rd *reads, rate float64, check checkFn, startWriter func(stop <-chan struct{}) *writeLog) error {
	// The writer, if any, runs through both read phases, so the traced
	// phase and its untraced baseline see the same load.
	var w *writeLog
	stopWriter := func() {}
	if startWriter != nil {
		b.visibleUs = nil
		stopW, done := make(chan struct{}), make(chan *writeLog, 1)
		go func() { done <- startWriter(stopW) }()
		var once sync.Once
		stopWriter = func() { once.Do(func() { close(stopW); w = <-done }) }
		defer stopWriter()
	}
	tr := b.tr
	b.tr = nil
	base, baseRecs := b.openReads(ctx, rd, rate, b.phase(0.2))
	b.tr = tr

	before, err := b.readAll(ctx, top)
	if err != nil {
		return err
	}
	cBefore := clientCounts(top.clients())
	att0, fail0 := b.attempted.Load(), b.failed.Load()
	lagMax, stopLag := b.sampleLag(ctx, top)
	t0 := b.clk.now()
	open, recs := b.openReads(ctx, rd, rate, b.phase(0.3))
	t1 := b.clk.now()
	stopLag()
	after, err := b.readAll(ctx, top)
	if err != nil {
		return err
	}
	stopWriter()
	cAfter := clientCounts(top.clients())
	att, fail := b.attempted.Load()-att0, b.failed.Load()-fail0

	// Load generator and client.
	st := open.stats()
	b.reportLoadgen("traced open-loop reads", st)
	b.set("loadgen.lateness_p99_us", st.latenessP99, "us")
	b.set("loadgen.offered_per_s", st.offered, "1/s")
	b.set("loadgen.achieved_per_s", st.achieved, "1/s")
	callUs := median(b.tr.durations("meshclient."))
	b.set("meshclient.call_us", callUs, "us")
	b.set("meshclient.retries", float64(cAfter.Retries-cBefore.Retries), "count")
	b.set("meshclient.shed_seen", float64(cAfter.Shed-cBefore.Shed), "count")
	b.set("meshclient.error_frac", float64(fail)/float64(max(att, 1)), "ratio")
	b.note("meshclient.error_frac base: %d failed of %d attempted", fail, att)
	p50u, p50t := median(base.latencies()), median(open.latencies())
	b.set("trace.overhead_frac", (p50t-p50u)/p50u, "ratio")
	b.note("trace.overhead_frac base: untraced read p50 %.2f us, traced %.2f us", p50u, p50t)

	// Daemon counters over the traced phase.
	answers := float64(len(recs) * rd.gen(streamOpen, 0).answers())
	var served, mallocs, allocB, gcs float64
	var cpu time.Duration
	for i := range before {
		for name := range after[i].m {
			if strings.HasPrefix(name, "http_requests_total_") || name == "binary_requests_total" {
				served += delta(before[i], after[i], name)
			}
		}
		mallocs += after[i].mallocs - before[i].mallocs
		allocB += after[i].allocBytes - before[i].allocBytes
		gcs += after[i].numGC - before[i].numGC
		cpu += after[i].cpu - before[i].cpu
	}
	b.set("serve.allocs_per_op", mallocs/max(served, 1), "count")
	b.set("serve.alloc_bytes_per_op", allocB/max(served, 1), "B")
	b.set("serve.cpu_us_per_answer", float64(cpu.Microseconds())/max(answers, 1), "us")
	b.note("serve per-op base: %.0f requests served, %.0f answers, %s daemon CPU", served, answers, cpu)
	b.set("serve.queued", sumDelta(before, after, "http_queued_total"), "count")
	b.set("serve.shed", sumDelta(before, after, "http_shed_total"), "count")
	b.set("serve.gc_cycles", gcs, "count")
	hits, misses := sumDelta(before, after, "reach_cache_hits_total"), sumDelta(before, after, "reach_cache_misses_total")
	b.set("wang.reach_hit_ratio", hits/max(hits+misses, 1), "ratio")
	b.note("wang.reach_hit_ratio base: %.0f hits of %.0f lookups", hits, hits+misses)

	// Journal and replication, on the daemon that takes the writes.
	writes := 0.0 // acknowledged during the traced phase
	if w != nil {
		for _, at := range w.acked {
			if at >= t0 && at < t1 {
				writes++
			}
		}
	}
	p0, p1 := before[0], after[0]
	if top.daemons[0].dataDir != "" && writes > 0 {
		b.set("journal.appends_per_write", delta(p0, p1, "journal_appends_total")/writes, "count")
		b.set("journal.fsyncs_per_write", delta(p0, p1, "journal_fsyncs_total")/writes, "count")
		b.set("journal.wal_bytes_per_write", float64(p1.walBytes-p0.walBytes)/writes, "B")
	} else {
		b.set("journal.appends_per_write", 0, "count")
		b.set("journal.fsyncs_per_write", 0, "count")
		b.set("journal.wal_bytes_per_write", 0, "B")
	}
	b.note("journal per-write base: %.0f writes", writes)
	b.set("serve.replication.records_sent", sumDelta(before, after, "replication_records_sent_total"), "count")
	b.set("serve.replication.lag_records_max", lagMax(), "count")
	b.set("serve.replication.resyncs", sumDelta(before, after, "replication_resyncs_total"), "count")
	b.set("serve.replication.disconnects", sumDelta(before, after, "replication_disconnects_total"), "count")
	b.set("serve.cluster.promotions", sumDelta(before, after, "cluster_promotions_total"), "count")
	vis := append([]float64(nil), b.visibleUs...)
	if len(vis) > 0 {
		b.set("serve.replication.visible_p50_ms", median(vis)/1e3, "ms")
		b.set("serve.replication.visible_p99_ms", quantile(vis, 0.99)/1e3, "ms")
	} else {
		b.set("serve.replication.visible_p50_ms", 0, "ms")
		b.set("serve.replication.visible_p99_ms", 0, "ms")
	}
	b.note("serve.replication.visible base: %d writes", len(vis))

	var evs []faultEvent
	if w != nil {
		evs = w.evs[:len(w.acked)]
	} else {
		evs = b.in.writes(200)
	}
	if err := b.ladder(ctx, rd, evs, top.daemons[0].dataDir != "", callUs, b.phase(0.4)); err != nil {
		return err
	}
	return check(w, append(baseRecs, recs...))
}

// sampleLag polls the followers' replication_lag_records gauge every
// 50ms until the returned stop is called; the first func reads the
// largest value seen.
func (b *bench) sampleLag(ctx context.Context, top *topology) (func() float64, func()) {
	var mu sync.Mutex
	var most float64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			for _, d := range top.daemons[1:] {
				if c, err := d.read(ctx); err == nil {
					mu.Lock()
					most = max(most, c.m["replication_lag_records"])
					mu.Unlock()
				}
			}
		}
	}()
	return func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return most
		}, func() {
			close(stop)
			<-done
		}
}

// clients is every JSON client the workload's reads and writes go
// through, for the attempt-level counters.
func (t *topology) clients() []*meshclient.Client {
	if t.cluster != nil {
		return append([]*meshclient.Client{t.cluster.Primary()}, t.cluster.ReplicaClients()...)
	}
	return t.nodes
}

// pipeListener hands in-memory connections to ServeBinary, so the
// binary frame handler runs without a socket.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

func (l *pipeListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// ladderMax bounds the replayed requests; the time budget usually ends
// the replay first.
const ladderMax = 4000

// ladder replays the request stream and the write stream in process
// and sets the per-layer metrics measured there.
func (b *bench) ladder(ctx context.Context, rd *reads, evs []faultEvent, journaled bool, callUs float64, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	tr := b.tr

	// extmesh.New, the cost every snapshot rebuild starts with.
	var builds []float64
	var net0 *extmesh.Network
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		n, err := extmesh.New(meshW, meshH, b.in.faults)
		if err != nil {
			return err
		}
		builds = append(builds, float64(time.Since(t0).Nanoseconds())/1e3)
		net0 = n
	}
	b.set("extmesh.build_us", median(builds), "us")

	// The in-process server over the same mesh, with its own registry
	// so its instruments stay out of the process-wide default.
	srv := serve.New(serve.Options{Metrics: metrics.NewRegistry()})
	dn, err := extmesh.NewDynamic(meshW, meshH)
	if err != nil {
		return err
	}
	if _, _, err := dn.Apply(b.in.faults, nil); err != nil {
		return err
	}
	if err := srv.RegisterMesh(rd.mesh, dn); err != nil {
		return err
	}
	handler := srv.Handler()
	bctx, cancel := context.WithCancel(ctx)
	pl := newPipeListener()
	binDone := make(chan error, 1)
	go func() { binDone <- srv.ServeBinary(bctx, pl, time.Second) }()
	defer func() {
		cancel()
		<-binDone
	}()
	conn, err := pl.dial()
	if err != nil {
		return err
	}
	defer conn.Close()

	// The route and reach kernels over the same faults.
	m, err := mesh.New(meshW, meshH)
	if err != nil {
		return err
	}
	sc, err := fault.NewScenario(m, b.in.faults)
	if err != nil {
		return err
	}
	kr := route.NewRouter(m, fault.BuildBlocks(sc).BlockedGrid())
	grid := make([]bool, m.Size())
	for _, f := range b.in.faults {
		grid[m.Index(f)] = true
	}
	bits := new(mesh.Bits).FromBools(m, grid)
	var reach *wang.Reach
	var kbuf []mesh.Coord
	var reqBuf, frame, reenc []byte

	var wireBytes, wireAnswers float64
	replayed := 0
	for i := 0; i < ladderMax && time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		req := rd.gen(streamOpen, i)
		id := int64(1)<<48 | int64(i)

		// serve: the JSON handler in process.
		path, body, err := jsonRequest(rd.mesh, &req)
		if err != nil {
			return err
		}
		hr := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := b.clk.now()
		handler.ServeHTTP(rec, hr)
		hSpan := tr.add(id, 0, "serve.handler", t0, b.clk.now())
		if rec.Code != http.StatusOK && rec.Code != http.StatusUnprocessableEntity {
			return fmt.Errorf("in-process %s answered %d: %s", path, rec.Code, rec.Body)
		}

		// extmesh: the API call, then the kernel under it.
		t0 = b.clk.now()
		expect(net0, &req)
		aSpan := tr.add(id, hSpan, "extmesh."+req.op.String(), t0, b.clk.now())
		switch {
		case req.op == opRoute && req.model == "blocks":
			t0 = b.clk.now()
			kbuf, _ = kr.RouteInto(kbuf[:0], req.src, req.dst)
			tr.add(id, aSpan, "route.route_into", t0, b.clk.now())
		case req.op == opRouteBatch:
			t0 = b.clk.now()
			for _, p := range req.pairs {
				kbuf, _ = kr.RouteInto(kbuf[:0], p.Src, p.Dst)
			}
			tr.add(id, aSpan, "route.route_into_batch", t0, b.clk.now())
		case req.op == opHasMinimalPath || req.op == opHMPBatch:
			t0 = b.clk.now()
			reach = wang.ReachFromBitsInto(reach, m, req.src, bits)
			tr.add(id, aSpan, "wang.sweep", t0, b.clk.now())
		}

		// The binary plane and the wire codec, for ops it carries.
		wreq, ok := wireRequest(rd.mesh, &req)
		if !ok {
			replayed++
			continue
		}
		wreq.ID = uint32(i + 1)
		t0 = b.clk.now()
		reqBuf = wire.AppendRequest(reqBuf[:0], wreq)
		encReq := b.clk.now() - t0
		t0 = b.clk.now()
		if err := wire.WriteFrame(conn, reqBuf); err != nil {
			return err
		}
		if frame, err = wire.ReadFrame(conn, wire.MaxResponseFrame, frame[:0]); err != nil {
			return err
		}
		fSpan := tr.add(id, 0, "serve.binary_frame", t0, b.clk.now())
		t0 = b.clk.now()
		if _, err := wire.DecodeRequest(reqBuf); err != nil {
			return err
		}
		resp, err := wire.DecodeResponse(frame, wreq.Op)
		if err != nil {
			return err
		}
		tr.add(id, fSpan, "wire.decode", t0, b.clk.now())
		t0 = b.clk.now()
		reenc = appendResponse(reenc[:0], wreq.Op, resp)
		tr.add(id, fSpan, "wire.encode", t0-encReq, b.clk.now())
		if !bytes.Equal(reenc, frame) {
			b.chk.fail("wire: %s response re-encodes to different bytes", req.op)
		}
		wireBytes += float64(len(frame) + 4)
		wireAnswers += float64(req.answers())
		replayed++
	}
	b.note("ladder: %d requests replayed in process", replayed)

	handlerUs := median(tr.durations("serve.handler"))
	frameUs := median(tr.durations("serve.binary_frame"))
	b.set("serve.handler_us", handlerUs, "us")
	b.set("serve.handler_self_us", median(tr.selfTimes("serve.handler", "extmesh.")), "us")
	b.set("serve.binary_frame_us", frameUs, "us")
	plane := handlerUs
	if rd.gen(streamOpen, 0).op.batch() {
		plane = frameUs
	}
	b.set("transport.self_us", callUs-plane, "us")
	b.note("transport.self_us base: meshclient.call_us %.2f minus in-process handler %.2f", callUs, plane)
	b.set("wire.encode_us", median(tr.durations("wire.encode")), "us")
	b.set("wire.decode_us", median(tr.durations("wire.decode")), "us")
	b.set("wire.bytes_per_answer", wireBytes/max(wireAnswers, 1), "B")
	for _, op := range []op{opRoute, opEnsure, opHasMinimalPath} {
		b.set("extmesh."+metricName(op)+"_us", orZero(median(exact(tr, "extmesh."+op.String()))), "us")
	}
	b.set("extmesh.route_many_us_per_pair", orZero(median(exact(tr, "extmesh."+opRouteBatch.String())))/batchSize, "us")
	b.set("extmesh.has_minimal_path_all_us_per_dest", orZero(median(exact(tr, "extmesh."+opHMPBatch.String())))/batchSize, "us")
	kernel := exact(tr, "route.route_into")
	for _, d := range exact(tr, "route.route_into_batch") {
		kernel = append(kernel, d/batchSize)
	}
	b.set("route.route_into_us", orZero(median(kernel)), "us")
	b.set("wang.sweep_us", orZero(median(exact(tr, "wang.sweep"))), "us")

	if err := b.ladderWrites(evs, deadline); err != nil {
		return err
	}
	if journaled {
		return b.ladderJournal(evs, deadline)
	}
	b.set("journal.append_us", 0, "us")
	return nil
}

// exact returns the durations of spans named exactly name.
func exact(t *tracer, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// orZero reports a layer the workload's stream does not exercise as 0.
func orZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

func metricName(o op) string {
	switch o {
	case opHasMinimalPath:
		return "has_minimal_path"
	}
	return o.String()
}

// jsonRequest is the path and body meshclient sends for req.
func jsonRequest(mesh string, req *request) (string, []byte, error) {
	path := "/v1/mesh/" + mesh + "/" + req.op.String()
	var v any
	switch req.op {
	case opRouteBatch:
		v = map[string]any{"pairs": req.pairs, "model": req.model, "omit_paths": false}
	case opHMPBatch:
		v = map[string]any{"src": req.src, "dests": req.dests}
	default:
		v = req.query()
	}
	body, err := json.Marshal(v)
	return path, body, err
}

// wireRequest is the binary frame for req; route-assured has none.
func wireRequest(mesh string, req *request) (*wire.Request, bool) {
	var flags uint8
	if req.model == "mcc" {
		flags |= wire.FlagMCC
	}
	w := &wire.Request{Flags: flags, Mesh: mesh, Src: req.src, Dst: req.dst}
	switch req.op {
	case opRoute:
		w.Op = wire.OpRoute
	case opEnsure:
		w.Op = wire.OpEnsure
	case opHasMinimalPath:
		w.Op = wire.OpHasMinimalPath
	case opRouteBatch:
		w.Op = wire.OpRouteBatch
		for _, p := range req.pairs {
			w.Pairs = append(w.Pairs, p.Src, p.Dst)
		}
	case opHMPBatch:
		w.Op = wire.OpHasMinimalPathBatch
		w.Dests = req.dests
	default:
		return nil, false
	}
	return w, true
}

// appendResponse encodes a decoded response again with the wire
// package's encoders, in the layout the binary plane writes.
func appendResponse(b []byte, op uint8, r *wire.Response) []byte {
	if r.Status != wire.StatusOK {
		return wire.AppendError(b, r.ID, r.Status, r.Err)
	}
	b = wire.AppendOKHeader(b, r.ID)
	switch op {
	case wire.OpRoute:
		b = wire.AppendU32(b, uint32(int32(r.Hops)))
		return wire.AppendPath(b, r.Path)
	case wire.OpHasMinimalPath, wire.OpSafe:
		if r.Bool {
			return append(b, 1)
		}
		return append(b, 0)
	case wire.OpEnsure:
		return wire.AppendEnsure(b, r.Ensure.Verdict, r.Ensure.Via)
	case wire.OpRouteBatch:
		b = wire.AppendU16(b, uint16(len(r.Routes)))
		for _, rr := range r.Routes {
			if !rr.OK {
				b = append(b, 0)
				b = wire.AppendU16(b, uint16(len(rr.Err)))
				b = append(b, rr.Err...)
				continue
			}
			b = append(b, 1)
			b = wire.AppendU32(b, uint32(int32(rr.Hops)))
			b = wire.AppendPath(b, rr.Path)
		}
		return b
	case wire.OpHasMinimalPathBatch:
		return wire.AppendBools(b, r.Bits)
	}
	return b
}

// ladderWrites replays the write stream on a DynamicNetwork: the cost
// of one Apply, of the first Snapshot after it (a rebuild) and of a
// later one (the memo), and how many distinct Networks nproc readers
// racing on a fresh version are handed.
func (b *bench) ladderWrites(evs []faultEvent, deadline time.Time) error {
	d, err := extmesh.NewDynamic(meshW, meshH)
	if err != nil {
		return err
	}
	if _, _, err := d.Apply(b.in.faults, nil); err != nil {
		return err
	}
	var applyUs, missUs, hitUs, distinct []float64
	for k, ev := range evs {
		if k >= 200 || (k > 0 && time.Now().After(deadline)) {
			break
		}
		fail, recov := []extmesh.Coord{ev.node}, []extmesh.Coord(nil)
		if !ev.fail {
			fail, recov = nil, fail
		}
		t0 := time.Now()
		if _, _, err := d.Apply(fail, recov); err != nil {
			return err
		}
		applyUs = append(applyUs, float64(time.Since(t0).Nanoseconds())/1e3)

		nets := make([]*extmesh.Network, b.nproc)
		took := make([]float64, b.nproc)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for r := 0; r < b.nproc; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				<-start
				t0 := time.Now()
				nets[r], _ = d.Snapshot()
				took[r] = float64(time.Since(t0).Nanoseconds()) / 1e3
			}(r)
		}
		close(start)
		wg.Wait()
		seen := map[*extmesh.Network]bool{}
		for _, n := range nets {
			seen[n] = true
		}
		distinct = append(distinct, float64(len(seen)))
		missUs = append(missUs, took...)
		t0 = time.Now()
		if _, err := d.Snapshot(); err != nil {
			return err
		}
		hitUs = append(hitUs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	var sum float64
	for _, x := range distinct {
		sum += x
	}
	b.set("extmesh.apply_us", median(applyUs), "us")
	b.set("extmesh.snapshot_miss_us", median(missUs), "us")
	b.set("extmesh.snapshot_hit_us", median(hitUs), "us")
	b.set("extmesh.builds_per_version", sum/float64(len(distinct)), "count")
	b.note("extmesh.builds_per_version base: %d versions, %d concurrent readers each", len(distinct), b.nproc)
	return nil
}

// ladderJournal appends the write stream's records to a fresh journal
// with the daemon's default policy (fsync interval, 100ms).
func (b *bench) ladderJournal(evs []faultEvent, deadline time.Time) error {
	dir, err := os.MkdirTemp(b.tmp, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := journal.Open(dir, journal.Options{Policy: journal.SyncInterval, Metrics: metrics.NewRegistry()})
	if err != nil {
		return err
	}
	defer store.Close()
	if _, err := store.Recover(); err != nil {
		return err
	}
	var us []float64
	for k, ev := range evs {
		if k > 0 && time.Now().After(deadline) {
			break
		}
		rec := journal.Record{Op: journal.OpApply, Name: meshDyn}
		if ev.fail {
			rec.Fail = []extmesh.Coord{ev.node}
		} else {
			rec.Recover = []extmesh.Coord{ev.node}
		}
		t0 := time.Now()
		if _, err := store.Append(rec); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	b.set("journal.append_us", median(us), "us")
	b.note("journal.append_us base: %d appends", len(us))
	return nil
}
