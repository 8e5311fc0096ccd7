package main

import (
	"context"
	"sort"
)

// --- churn --------------------------------------------------------------

// runChurn sends query-json's read mix and rate to the dyn mesh of one
// journaled daemon while a single writer mutates that same mesh. Every
// write invalidates the per-version snapshot, so the reads after it
// rebuild; every write also pays a journal append.
func runChurn(ctx context.Context, b *bench) error {
	top, err := b.setupRepeated(ctx, func(ctx context.Context) (*topology, error) {
		return b.startSingle(ctx, daemonSpec{name: "journaled", journaled: true}, func(ctx context.Context, t *topology) error {
			return b.warmSingles(ctx, t.json)
		})
	})
	if err != nil {
		return err
	}
	b.note("journal: -data-dir with the daemon's default -fsync interval (100ms)")
	rd := &reads{mesh: meshDyn, gen: b.in.single, send: func(ctx context.Context, _ int, req *request) (result, error) {
		return ask(ctx, top.json, meshDyn, req)
	}}
	check := func(w *writeLog, recs []record) error {
		if err := b.checkWrites(ctx, top, w, rd, recs); err != nil {
			return err
		}
		return b.probeFinal(ctx, top.json, w)
	}
	return b.mutatingWorkload(ctx, top, rd, jsonReadRate, applyJSON(top.json), nil, check)
}

// mutatingWorkload is churn and replicated: the writer runs through the
// open-loop and capacity read phases. post_write_read is the open-loop
// read sent first after each acknowledgement.
func (b *bench) mutatingWorkload(ctx context.Context, top *topology, rd *reads, rate float64, apply applyFn, after afterWrite, check checkFn) error {
	if b.traced {
		return b.traceRun(ctx, top, rd, rate, check, func(stop <-chan struct{}) *writeLog {
			return b.writer(ctx, stop, churnWriteRate, b.maxWrites(), top.v0, apply, after)
		})
	}
	stop := make(chan struct{})
	done := make(chan *writeLog, 1)
	go func() { done <- b.writer(ctx, stop, churnWriteRate, b.maxWrites(), top.v0, apply, after) }()
	open, recs := b.openReads(ctx, rd, rate, b.phase(0.65))
	b.reportLoadgen("open-loop reads", open.stats())
	// Printed, not gated: see README.md, "End-to-end metrics".
	b.reportLatency("read", open.latencies())
	recs = append(recs, b.capacity(ctx, top, rd, b.phase(0.35))...)
	close(stop)
	w := <-done

	// Printed, not gated: see README.md, "End-to-end metrics".
	b.reportLatency("write", w.latencies())
	b.set("post_write_read_p50_us", b.reportLatency("post_write_read", postWriteReads(open, w)), "us")
	if err := b.reportRSS(top); err != nil {
		return err
	}
	if len(b.visibleUs) > 0 {
		vis := append([]float64(nil), b.visibleUs...)
		b.note("replica visibility: %d samples, p50 %.4f ms, p99 %.4f ms", len(vis), median(vis)/1e3, quantile(vis, 0.99)/1e3)
	}
	if top.cluster != nil {
		b.note("cluster client: %+v", top.cluster.Counts())
	}
	return check(w, recs)
}

// postWriteReads is, for each acknowledged write, the latency of the
// first open-loop read sent after the acknowledgement.
func postWriteReads(open *openResult, w *writeLog) []float64 {
	byDue := append([]sample(nil), open.samples...)
	sort.Slice(byDue, func(i, j int) bool { return byDue[i].sent < byDue[j].sent })
	var out []float64
	for _, acked := range w.acked {
		k := sort.Search(len(byDue), func(i int) bool { return byDue[i].sent >= acked })
		if k < len(byDue) && !byDue[k].failed {
			out = append(out, float64(byDue[k].done-byDue[k].intended)/1e3)
		}
	}
	return out
}
