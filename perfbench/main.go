// Command perfbench is the repository benchmark. It starts real
// meshserved daemons over loopback, drives one workload against them
// from this process, checks every answer against the extmesh library,
// and prints the end-to-end metrics — or, with -trace 1, the per-layer
// metrics of a traced replay — as one JSON object on the last line of
// standard output. See README.md for the workloads and metrics, and
// run.sh for how it is built and started.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run: its configuration, the daemons it started and
// what it measured.
type bench struct {
	root, daemonBin, tmp string
	seed                 int64
	seconds              float64
	traced               bool
	nproc                int
	clk                  clock
	in                   *inputs
	transport            *http.Transport
	tr                   *tracer // nil on untraced runs

	mu      sync.Mutex
	daemons []*daemon

	chk       checker
	attempted atomic.Int64
	failed    atomic.Int64
	invalid   []string  // reasons the run's load was not the one intended
	visibleUs []float64 // replica visibility per write (replicated)
	metrics   map[string]metric
}

// set records a metric. A value that is not a number means the metric
// had no samples; the run is then invalid, not reported as 0.
func (b *bench) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.invalid = append(b.invalid, name+" has no value")
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// note prints a line of the human-readable report.
func (b *bench) note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// phase returns the given share of the run's measuring time.
func (b *bench) phase(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

// count tallies one attempted operation and whether it failed.
func (b *bench) count(failed bool) {
	b.attempted.Add(1)
	if failed {
		b.failed.Add(1)
	}
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 16, "measuring time of the run")
	trace := fs.Int("trace", 0, "1 runs the traced layer ladder and reports per-layer metrics")
	root := fs.String("root", ".", "checkout root (build outputs go under .bench_build)")
	daemonBin := fs.String("daemon", "", "meshserved binary built from the checkout")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *daemonBin == "" || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -daemon and -workload one of %s\n", workloadNames())
		return 2
	}
	// The generator shares two cores with the daemons; a lazier collector
	// keeps its own GC out of the measured latencies.
	debug.SetGCPercent(400)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tmp, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	nproc := runtime.NumCPU()
	b := &bench{
		root: *root, daemonBin: *daemonBin, tmp: tmp,
		seed: *seed, seconds: *seconds, traced: *trace == 1, nproc: nproc,
		clk: clock{t0: time.Now()}, in: newInputs(*seed),
		transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			ResponseHeaderTimeout: 10 * time.Second,
			MaxConnsPerHost:       nproc,
			MaxIdleConnsPerHost:   nproc,
			IdleConnTimeout:       90 * time.Second,
		},
		metrics: make(map[string]metric),
	}
	if b.traced {
		b.tr = newTracer(b.clk)
	}
	defer b.cleanup()
	b.describeEnv()
	b.note("workload %s: %s", wl.name, wl.why)

	err = wl.run(ctx, b)
	if err == nil {
		err = ctx.Err() // interrupted: the phases were cut short
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	if b.tr != nil {
		path, err := b.tr.write(filepath.Join(b.root, ".bench_build", "trace"), fmt.Sprintf("%s-seed%d.json", wl.name, b.seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		b.note("spans: %d written to %s", b.tr.len(), path)
	}
	return b.finish()
}

// finish prints the verdict, the metrics and the result line.
func (b *bench) finish() int {
	for _, n := range b.chk.notes {
		b.note("MISMATCH %s", n)
	}
	for _, r := range b.invalid {
		b.note("INVALID %s", r)
	}
	correct := b.chk.passed() && len(b.invalid) == 0
	attempted, failed := b.attempted.Load(), b.failed.Load()
	b.note("answers checked against the library: %d, mismatches: %d", b.chk.checked, b.chk.mismatches)
	b.note("operations attempted: %d, failed: %d, error_frac: %.6f", attempted, failed, float64(failed)/float64(max(attempted, 1)))
	names := make([]string, 0, len(b.metrics))
	for name := range b.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := b.metrics[name]
		b.note("%-40s %14.4f %s", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(attempted, 1), failed, b.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// cleanup stops every daemon, waits for it and removes the run's
// temporary directory. It runs on every exit path of run.
func (b *bench) cleanup() {
	b.mu.Lock()
	ds := b.daemons
	b.daemons = nil
	b.mu.Unlock()
	for _, d := range ds {
		d.stop()
	}
	b.transport.CloseIdleConnections()
	os.RemoveAll(b.tmp)
}
