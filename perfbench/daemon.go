package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one meshserved process started by the benchmark.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	url     string // HTTP base URL
	binAddr string // binary listener, if enabled
	dataDir string
	log     *syncBuffer
	done    chan struct{} // closed once the process has been reaped
}

// syncBuffer is the daemon's combined output, written by the exec
// copier goroutine and read on failure.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// freeAddr reserves a loopback port by listening and closing. Another
// process could take it in between; a daemon that fails to bind makes
// the run fail loudly rather than measure the wrong thing.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// daemonSpec is how to start one daemon.
type daemonSpec struct {
	name      string
	binary    bool // serve the binary plane too
	journaled bool // -data-dir with the default fsync policy
	extra     []string
}

// startDaemon execs meshserved. The process is killed if this process
// dies (Pdeathsig), so no daemon outlives a crashed benchmark.
func (b *bench) startDaemon(spec daemonSpec) (*daemon, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{name: spec.name, url: "http://" + httpAddr, log: &syncBuffer{}, done: make(chan struct{})}
	args := []string{"-addr", httpAddr, "-quiet"}
	if spec.binary {
		if d.binAddr, err = freeAddr(); err != nil {
			return nil, err
		}
		args = append(args, "-binary-addr", d.binAddr)
	}
	if spec.journaled {
		d.dataDir, err = os.MkdirTemp(b.tmp, spec.name+"-")
		if err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", d.dataDir)
	}
	args = append(args, spec.extra...)
	d.cmd = exec.Command(b.daemonBin, args...)
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", spec.name, err)
	}
	go func() {
		d.cmd.Wait()
		close(d.done)
	}()
	b.mu.Lock()
	b.daemons = append(b.daemons, d)
	b.mu.Unlock()
	return d, nil
}

// stop kills the daemon, waits until it has exited and removes its data
// directory. It is safe to call more than once.
func (d *daemon) stop() {
	if d.cmd.Process != nil {
		d.cmd.Process.Kill()
		<-d.done
	}
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir)
	}
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/readyz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during start-up:\n%s", d.name, d.log)
		case <-ctx.Done():
			return fmt.Errorf("%s never became ready: %v\n%s", d.name, ctx.Err(), d.log)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// counters is one reading of a daemon's own instruments: its /metrics
// exposition, the Go memstats from /debug/vars, and the CPU time and
// peak RSS the kernel accounts to the process.
type counters struct {
	m          map[string]float64
	mallocs    float64
	allocBytes float64
	numGC      float64
	cpu        time.Duration
	walBytes   int64
}

func (d *daemon) read(ctx context.Context) (counters, error) {
	c := counters{m: make(map[string]float64)}
	body, err := get(ctx, d.url+"/metrics")
	if err != nil {
		return c, err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			c.m[name] = v
		}
	}
	body, err = get(ctx, d.url+"/debug/vars")
	if err != nil {
		return c, err
	}
	var vars struct {
		Memstats struct {
			Mallocs    float64
			TotalAlloc float64
			NumGC      float64
		} `json:"memstats"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return c, fmt.Errorf("%s /debug/vars: %w", d.name, err)
	}
	c.mallocs, c.allocBytes, c.numGC = vars.Memstats.Mallocs, vars.Memstats.TotalAlloc, vars.Memstats.NumGC
	if c.cpu, err = d.cpuTime(); err != nil {
		return c, err
	}
	if d.dataDir != "" {
		wals, _ := filepath.Glob(filepath.Join(d.dataDir, "wal-*.log"))
		for _, w := range wals {
			if fi, err := os.Stat(w); err == nil {
				c.walBytes += fi.Size()
			}
		}
	}
	return c, nil
}

// delta is the named counter's growth from a to b.
func delta(a, b counters, name string) float64 { return b.m[name] - a.m[name] }

func get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return buf.Bytes(), nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for user space.
const clockTick = 100

// cpuTime is the daemon's user plus system CPU time.
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", d.name)
	}
	ut, _ := strconv.ParseInt(rest[11], 10, 64)
	st, _ := strconv.ParseInt(rest[12], 10, 64)
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// peakRSS is the daemon's VmHWM in bytes.
func (d *daemon) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", d.name)
}
