package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"extmesh"
	"extmesh/meshclient"
)

// Arrival rates and shapes. They are constants of the benchmark, never
// derived from a run, so a slower program faces the same offered load.
// Each open loop keeps its senders busy a small share of the time: on a
// shared two-vCPU host, CPU taken by the hypervisor otherwise tips the
// queue behind the two senders and the medians jump between runs.
const (
	jsonReadRate       = 500 // single queries per second (query-json, churn)
	replicatedReadRate = 250 // single queries per second (replicated)
	batchRate          = 100 // batches per second (batch-binary)
	writePhaseRate     = 50  // write-then-read cycles per second (query-json, batch-binary)
	churnWriteRate     = 10  // fault mutations per second beside the reads (churn, replicated)

	// setupRepeats is how many times a run sets the daemons up; setup_s
	// is the median, and the last set-up is the one measured.
	setupRepeats = 5
)

type workload struct {
	name, why string
	run       func(ctx context.Context, b *bench) error
}

var workloads = map[string]workload{
	"query-json":   {"query-json", "static mesh, JSON single queries open-loop through meshclient.Client: the serving layer dominates", runQueryJSON},
	"batch-binary": {"batch-binary", "static mesh, 256-answer batches over the binary plane from uniform sources: the route and reach kernels dominate", runBatchBinary},
	"churn":        {"churn", "query-json's reads against one journaled daemon while one writer mutates the same mesh: snapshot rebuilds and journal appends", runChurn},
	"replicated":   {"replicated", "primary and two failover-managed followers: writes confirmed by replication, reads from the followers", runReplicated},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// topology is the daemons one set-up started and the clients that
// reach them.
type topology struct {
	daemons  []*daemon
	json     *meshclient.Client   // the single daemon, or the primary
	nodes    []*meshclient.Client // every daemon, primary first
	cluster  *meshclient.ClusterClient
	binaries []*meshclient.BinaryClient
	v0       uint64 // version of the mutated mesh before the first write
}

func (t *topology) stop() {
	for _, c := range t.binaries {
		c.Close()
	}
	for _, d := range t.daemons {
		d.stop()
	}
}

// setupRepeated sets the workload up setupRepeats times (once on a
// traced run), tears all but the last down, and reports the median
// set-up time as setup_s.
func (b *bench) setupRepeated(ctx context.Context, setup func(context.Context) (*topology, error)) (*topology, error) {
	repeats := setupRepeats
	if b.traced {
		repeats = 1
	}
	var times []float64
	var top *topology
	for r := 0; r < repeats; r++ {
		if top != nil {
			top.stop()
		}
		start := time.Now()
		var err error
		if top, err = setup(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	b.note("setup_s samples: %v", times)
	if !b.traced {
		b.set("setup_s", median(times), "s")
	}
	return top, nil
}

// Mesh names: static never changes; dyn takes the write stream.
const (
	meshStatic = "static"
	meshDyn    = "dyn"
)

// startSingle starts one daemon, creates the meshes and warms them.
func (b *bench) startSingle(ctx context.Context, spec daemonSpec, warm func(context.Context, *topology) error) (*topology, error) {
	d, err := b.startDaemon(spec)
	if err != nil {
		return nil, err
	}
	top := &topology{daemons: []*daemon{d}}
	if err := d.waitReady(ctx); err != nil {
		top.stop()
		return nil, err
	}
	if top.json, err = b.jsonClient(d.url); err != nil {
		top.stop()
		return nil, err
	}
	top.nodes = []*meshclient.Client{top.json}
	for _, name := range []string{meshStatic, meshDyn} {
		info, err := top.json.CreateMesh(ctx, name, meshW, meshH, b.in.faults)
		if err != nil {
			top.stop()
			return nil, fmt.Errorf("create %s: %w", name, err)
		}
		top.v0 = info.Version
	}
	if err := warm(ctx, top); err != nil {
		top.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return top, nil
}

// warmSingles fills the reach cache with the hot sources and builds
// every router the single-query mix uses, on both meshes.
func (b *bench) warmSingles(ctx context.Context, c singleClient) error {
	for k, h := range b.in.hot {
		dst := b.in.hot[(k+1)%len(b.in.hot)]
		if _, err := c.HasMinimalPath(ctx, meshStatic, meshclient.Query{Src: h, Dst: dst}); err != nil {
			return err
		}
	}
	for _, mesh := range []string{meshStatic, meshDyn} {
		for i := 0; i < 28; i++ {
			req := b.in.single(streamWarm, i)
			if _, err := ask(ctx, c, mesh, &req); err != nil {
				return err
			}
		}
	}
	return nil
}

// reads is one read stream: which mesh, how requests are generated,
// and how one is sent by a given sender.
type reads struct {
	mesh string
	gen  func(stream uint64, i int) request
	send func(ctx context.Context, sender int, req *request) (result, error)
}

// readOne sends read i of stream, records its digest into rec and
// reports the answers it delivered.
func (b *bench) readOne(ctx context.Context, rd *reads, stream uint64, sender, i int, rec *record) (int, bool) {
	req := rd.gen(stream, i)
	sent := b.clk.now()
	res, err := rd.send(ctx, sender, &req)
	recv := b.clk.now()
	if b.tr != nil {
		b.tr.call(stream, i, "meshclient."+req.op.String(), sent, recv)
	}
	b.count(err != nil)
	if err != nil {
		return 0, false
	}
	*rec = record{stream: stream, idx: i, digest: res.digest(), sent: sent, recv: recv}
	return req.answers(), true
}

// openReads runs an open-loop read phase and returns its samples and
// the records of the calls that succeeded.
func (b *bench) openReads(ctx context.Context, rd *reads, rate float64, dur time.Duration) (*openResult, []record) {
	n := int(rate * dur.Seconds())
	recs := make([]record, n)
	ok := make([]bool, n)
	res := openLoop(ctx, b.clk, rate, dur, b.nproc, func(sender, i int) bool {
		_, ok[i] = b.readOne(ctx, rd, streamOpen, sender, i, &recs[i])
		return ok[i]
	})
	out := recs[:0]
	byOp := map[op][]float64{}
	for i, s := range res.samples {
		if ok[i] {
			out = append(out, recs[i])
			o := rd.gen(streamOpen, i).op
			byOp[o] = append(byOp[o], float64(s.done-s.intended)/1e3)
		}
	}
	var line []string
	for o := opRoute; o <= opHMPBatch; o++ {
		if xs := byOp[o]; len(xs) > 0 {
			line = append(line, fmt.Sprintf("%s %.1f us (%d)", o, median(xs), len(xs)))
		}
	}
	b.note("open-loop read p50 by op: %s", strings.Join(line, ", "))
	return res, out
}

// capacity runs the closed-loop phase with nproc clients and sets
// capacity_answers_per_s: the median over the phase's slices of each
// slice's answer rate, scaled by the share of the slice's CPU time the
// hypervisor left the VM (steal, from /proc/stat). A saturating closed
// loop slows in proportion to stolen CPU, and on a shared host steal
// alone moved the unscaled figure by 20% between runs.
func (b *bench) capacity(ctx context.Context, top *topology, rd *reads, dur time.Duration) []record {
	perClient := make([][]record, b.nproc)
	cpu0 := daemonsCPU(top)
	// Sample the hypervisor's steal at the slice boundaries: a slice's
	// rate is scaled to the CPU time the VM actually had in it.
	slice := dur / tailWindows
	steals := make(chan []time.Duration, 1)
	go func() {
		start, s := time.Now(), []time.Duration{hostSteal()}
		for w := 1; w <= tailWindows; w++ {
			time.Sleep(time.Until(start.Add(time.Duration(w) * slice)))
			s = append(s, hostSteal())
		}
		steals <- s
	}()
	answers, calls, failed, rates := closedLoop(ctx, b.nproc, dur, func(c, i int) (int, bool) {
		var rec record
		n, ok := b.readOne(ctx, rd, streamClosed, c, i, &rec)
		if ok {
			perClient[c] = append(perClient[c], rec)
		}
		return n, ok
	})
	cpu, s := daemonsCPU(top)-cpu0, <-steals
	corrected := make([]float64, len(rates))
	var fracs []float64
	for w := range rates {
		frac := min((s[w+1]-s[w]).Seconds()/(slice.Seconds()*float64(b.nproc)), 0.5)
		fracs = append(fracs, 100*frac)
		corrected[w] = rates[w] / (1 - frac)
	}
	b.note("capacity: %d clients, %d calls (%d failed), %d answers in %.2fs; answers/s by slice %.0f; host steal by slice %.1f%%; daemon CPU %s",
		b.nproc, calls, failed, answers, dur.Seconds(), rates, fracs, cpu)
	b.set("capacity_answers_per_s", median(corrected), "1/s")
	var all []record
	for _, r := range perClient {
		all = append(all, r...)
	}
	return all
}

// daemonsCPU is the CPU time the daemons have used so far.
func daemonsCPU(top *topology) time.Duration {
	var sum time.Duration
	for _, d := range top.daemons {
		if c, err := d.cpuTime(); err == nil {
			sum += c
		}
	}
	return sum
}

// hostSteal is the CPU time the hypervisor has taken from this VM.
func hostSteal() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0])
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(v) * time.Second / clockTick
}

// reportLatency prints the sample count, median and p99 of xs
// (microseconds, in time order) and returns the median. The p99 is
// printed, not gated: on a shared two-core VM the 1% tail is set by
// scheduling stalls of 1-15 ms that differ from run to run far more than
// any bound a regression gate could use. It is the median over
// tailWindows consecutive slices, so one stall moves one slice.
func (b *bench) reportLatency(name string, xs []float64) float64 {
	if len(xs) == 0 {
		b.invalid = append(b.invalid, name+" has no samples")
		return math.NaN()
	}
	p99 := windowedQuantile(xs, 0.99)
	whole := quantile(append([]float64(nil), xs...), 0.99)
	p50 := median(xs)
	b.note("%s: %d samples, p50 %.1f us, p99 %.1f us (median of %d slices; %.1f us over the whole phase)",
		name, len(xs), p50, p99, tailWindows, whole)
	return p50
}

// reportLoadgen prints an open-loop phase's generator record and marks
// the run invalid when the generator fell behind.
func (b *bench) reportLoadgen(phase string, st loadgenStats) {
	b.note("%s load: offered %.1f/s, achieved %.1f/s, lateness p99 %.1f us over %d calls", phase, st.offered, st.achieved, st.latenessP99, st.calls)
	if why := st.behind(); why != "" {
		b.invalid = append(b.invalid, phase+": generator fell behind schedule: "+why)
	}
}

// reportRSS sets server_rss_peak_mb, the sum of the daemons' VmHWM.
func (b *bench) reportRSS(top *topology) error {
	var sum int64
	for _, d := range top.daemons {
		rss, err := d.peakRSS()
		if err != nil {
			return err
		}
		sum += rss
	}
	b.set("server_rss_peak_mb", float64(sum)/(1<<20), "MB")
	return nil
}

// writeLog is what the writer did: each write's due, send and ack
// times on the run clock, and its journal sequence number.
type writeLog struct {
	evs              []faultEvent
	due, sent, acked []int64
	seqs             []uint64
	failed           bool
}

func (w *writeLog) latencies() []float64 {
	out := make([]float64, len(w.acked))
	for k := range w.acked {
		out[k] = float64(w.acked[k]-w.due[k]) / 1e3
	}
	return out
}

// afterWrite runs once a write is acknowledged, with its index, its
// acknowledgement time and its journal sequence number.
type afterWrite func(k int, acked int64, seq uint64)

// checkFn checks a run's answers once its timed phases are over: the
// write log and the records of the reads.
type checkFn func(w *writeLog, recs []record) error

// applyFn applies one write and returns the mesh version and journal
// sequence number it was acknowledged at.
type applyFn func(ctx context.Context, ev faultEvent) (version, seq uint64, err error)

// writer applies the write stream open-loop at rate until stop
// closes or max writes are done. after runs once each write is
// acknowledged (a post-write read, a visibility poll) and may delay the
// next write, which is then timed from its due time. The writer stops
// at the first failed write: past it the mesh version is ambiguous.
func (b *bench) writer(ctx context.Context, stop <-chan struct{}, rate float64, max int, v0 uint64, apply applyFn, after afterWrite) *writeLog {
	w := &writeLog{evs: b.in.writes(max)}
	start := b.clk.now() + int64(time.Millisecond)
	interval := float64(time.Second) / rate
	for k := 0; k < max; k++ {
		due := start + int64(float64(k)*interval)
		select {
		case <-stop:
			return w
		default:
		}
		if ctx.Err() != nil {
			return w
		}
		b.clk.sleepUntil(due)
		sent := b.clk.now()
		version, seq, err := apply(ctx, w.evs[k])
		acked := b.clk.now()
		b.count(err != nil)
		if err != nil {
			b.note("write %d failed: %v", k, err)
			w.failed = true
			return w
		}
		if want := v0 + uint64(k) + 1; version != want {
			b.chk.fail("write %d acknowledged at mesh version %d, want %d", k, version, want)
		}
		w.due, w.sent, w.acked, w.seqs = append(w.due, due), append(w.sent, sent), append(w.acked, acked), append(w.seqs, seq)
		if after != nil {
			after(k, acked, seq)
		}
	}
	return w
}

// applyJSON applies writes through a single daemon's JSON client.
func applyJSON(c *meshclient.Client) applyFn {
	return func(ctx context.Context, ev faultEvent) (uint64, uint64, error) {
		res, err := c.ApplyFaults(ctx, meshDyn, ev.request())
		if err != nil {
			return 0, 0, err
		}
		return res.Version, 0, nil
	}
}

// checkWrites runs the version-window check over reads of the mutated
// mesh, then compares the mesh's final fault list with a local replay
// of the writes that were acknowledged.
func (b *bench) checkWrites(ctx context.Context, top *topology, w *writeLog, rd *reads, recs []record) error {
	if w.failed {
		b.invalid = append(b.invalid, "a write failed; the mutated mesh's history is ambiguous")
	}
	evs := w.evs[:len(w.acked)]
	if err := b.chk.checkWindows(b.in.faults, evs, rd.gen, windows(recs, w.sent, w.acked)); err != nil {
		return err
	}
	want := replay(b.in.faults, evs)
	for _, c := range top.nodes {
		st, err := c.GetMesh(ctx, meshDyn)
		if err != nil {
			return fmt.Errorf("final state: %w", err)
		}
		if got := sortedCoords(st.Faults); fmt.Sprint(got) != fmt.Sprint(want) {
			b.chk.fail("final fault list of %s differs from the replayed write stream (%d faults, want %d)", meshDyn, len(got), len(want))
		} else {
			b.chk.ok(1)
		}
	}
	return nil
}

// replay applies evs to base and returns the sorted fault set.
func replay(base []extmesh.Coord, evs []faultEvent) []extmesh.Coord {
	set := make(map[extmesh.Coord]bool, len(base)+len(evs))
	for _, c := range base {
		set[c] = true
	}
	for _, e := range evs {
		set[e.node] = e.fail
	}
	var out []extmesh.Coord
	for c, down := range set {
		if down {
			out = append(out, c)
		}
	}
	return sortedCoords(out)
}

func sortedCoords(cs []extmesh.Coord) []extmesh.Coord {
	out := append([]extmesh.Coord(nil), cs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Y != out[j].Y {
			return out[i].Y < out[j].Y
		}
		return out[i].X < out[j].X
	})
	return out
}

// probeFinal checks a fixed set of probe queries on the mutated mesh
// exactly against the library at its final fault set.
func (b *bench) probeFinal(ctx context.Context, c singleClient, w *writeLog) error {
	ref, err := extmesh.New(meshW, meshH, replay(b.in.faults, w.evs[:len(w.acked)]))
	if err != nil {
		return err
	}
	for i := 0; i < 64; i++ {
		req := b.in.single(streamProbe, i)
		got, err := ask(ctx, c, meshDyn, &req)
		b.count(err != nil)
		if err != nil {
			continue
		}
		want := expect(ref, &req)
		b.chk.compare(fmt.Sprintf("final probe %d (%s)", i, req.op), &want, &got)
	}
	return nil
}

// staticRefs are the library's networks over the first n static
// meshes' faults.
func (b *bench) staticRefs(n int) ([]*extmesh.Network, error) {
	refs := make([]*extmesh.Network, n)
	for k := range refs {
		var err error
		if refs[k], err = extmesh.New(meshW, meshH, b.in.meshes[k]); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// staticName is the name of static mesh k.
func staticName(k int) string {
	if k == 0 {
		return meshStatic
	}
	return fmt.Sprintf("%s%d", meshStatic, k)
}

// --- query-json ---------------------------------------------------------

func runQueryJSON(ctx context.Context, b *bench) error {
	top, err := b.setupRepeated(ctx, func(ctx context.Context) (*topology, error) {
		return b.startSingle(ctx, daemonSpec{name: "single"}, func(ctx context.Context, t *topology) error {
			return b.warmSingles(ctx, t.json)
		})
	})
	if err != nil {
		return err
	}
	rd := &reads{mesh: meshStatic, gen: b.in.single, send: func(ctx context.Context, _ int, req *request) (result, error) {
		return ask(ctx, top.json, meshStatic, req)
	}}
	post := &reads{mesh: meshDyn, gen: b.in.single, send: func(ctx context.Context, _ int, req *request) (result, error) {
		return ask(ctx, top.json, meshDyn, req)
	}}
	return b.staticWorkload(ctx, top, 1, rd, post, jsonReadRate)
}

// staticWorkload is query-json and batch-binary: open-loop reads of the
// static mesh, the closed-loop capacity phase, then a write phase on the
// dyn mesh in which each acknowledged write is followed by one read of
// it. The phases run one after another, so the read metrics see no
// writes.
func (b *bench) staticWorkload(ctx context.Context, top *topology, meshes int, rd, post *reads, rate float64) error {
	refs, err := b.staticRefs(meshes)
	if err != nil {
		return err
	}
	check := func(w *writeLog, recs []record) error {
		b.chk.checkStatic(refs, rd.gen, recs, b.nproc)
		return nil
	}
	if b.traced {
		return b.traceRun(ctx, top, rd, rate, check, nil)
	}
	open, recs := b.openReads(ctx, rd, rate, b.phase(0.30))
	b.reportLoadgen("open-loop reads", open.stats())
	// Printed, not gated: see README.md, "End-to-end metrics".
	b.reportLatency("read", open.latencies())
	recs = append(recs, b.capacity(ctx, top, rd, b.phase(0.25))...)

	var postUs []float64
	var postRecs []record
	writes := int(writePhaseRate * b.phase(0.45).Seconds())
	w := b.writer(ctx, nil, writePhaseRate, writes, top.v0, applyJSON(top.json), func(k int, acked int64, _ uint64) {
		var rec record
		if _, ok := b.readOne(ctx, post, streamPostWrite, 0, k, &rec); ok {
			postUs = append(postUs, float64(rec.recv-acked)/1e3)
			postRecs = append(postRecs, rec)
		}
	})
	// Printed, not gated: see README.md, "End-to-end metrics".
	b.reportLatency("write", w.latencies())
	b.set("post_write_read_p50_us", b.reportLatency("post_write_read", postUs), "us")
	if err := b.reportRSS(top); err != nil {
		return err
	}
	if err := check(w, recs); err != nil {
		return err
	}
	return b.checkWrites(ctx, top, w, post, postRecs)
}

// maxWrites bounds a concurrent writer's stream: more than the run can
// apply at churnWriteRate.
func (b *bench) maxWrites() int { return int(churnWriteRate*b.seconds) + 16 }
