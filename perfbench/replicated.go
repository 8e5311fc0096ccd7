package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"extmesh/meshclient"
)

// --- replicated ---------------------------------------------------------

// clusterNodes is the cluster size: a primary and two followers.
const clusterNodes = 3

// failoverTimeout is far above any latency of a run, so no follower
// ever promotes itself while the benchmark measures.
const failoverTimeout = "30s"

// maxStaleness is how many journal records a follower's answer may lag
// the newest sequence number the cluster client has seen.
const maxStaleness = 8

func runReplicated(ctx context.Context, b *bench) error {
	top, err := b.setupRepeated(ctx, b.startCluster)
	if err != nil {
		return err
	}
	refs, err := b.staticRefs(1)
	if err != nil {
		return err
	}
	rd := &reads{mesh: meshStatic, gen: b.in.single, send: func(ctx context.Context, _ int, req *request) (result, error) {
		return ask(ctx, top.cluster, meshStatic, req)
	}}
	apply := func(ctx context.Context, ev faultEvent) (uint64, uint64, error) {
		body, err := json.Marshal(ev.request())
		if err != nil {
			return 0, 0, err
		}
		resp, err := top.cluster.DoWrite(ctx, http.MethodPost, "/v1/mesh/"+meshDyn+"/faults", body, false)
		if err != nil {
			return 0, 0, err
		}
		var res meshclient.FaultsResult
		if err := json.Unmarshal(resp.Body, &res); err != nil {
			return 0, 0, fmt.Errorf("decode write answer: %w", err)
		}
		return res.Version, resp.JournalSeq, nil
	}
	// After each acknowledged write, poll both followers until they
	// answer at its journal sequence number.
	b.visibleUs = nil
	after := func(k int, acked int64, seq uint64) {
		for _, f := range top.nodes[1:] {
			if err := waitSeq(ctx, f, seq, 2*time.Second); err != nil {
				b.count(true)
				b.note("write %d never became visible: %v", k, err)
				return
			}
		}
		b.visibleUs = append(b.visibleUs, float64(b.clk.now()-acked)/1e3)
	}
	base, err := b.readAll(ctx, top)
	if err != nil {
		return err
	}
	check := func(w *writeLog, recs []record) error {
		b.chk.checkStatic(refs, rd.gen, recs, b.nproc)
		for _, f := range top.nodes[1:] {
			if len(w.seqs) > 0 {
				if err := waitSeq(ctx, f, w.seqs[len(w.seqs)-1], 5*time.Second); err != nil {
					return err
				}
			}
		}
		if err := b.checkWrites(ctx, top, w, rd, nil); err != nil {
			return err
		}
		if err := b.checkExports(ctx, top); err != nil {
			return err
		}
		end, err := b.readAll(ctx, top)
		if err != nil {
			return err
		}
		promotions := sumDelta(base, end, "cluster_promotions_total")
		resyncs := sumDelta(base, end, "replication_resyncs_total")
		b.note("cluster: %.0f promotions, %.0f resyncs during the run", promotions, resyncs)
		if promotions != 0 || resyncs != 0 {
			b.chk.fail("cluster promoted %.0f times and resynced %.0f times; want 0 and 0", promotions, resyncs)
		}
		return nil
	}
	return b.mutatingWorkload(ctx, top, rd, replicatedReadRate, apply, after, check)
}

// startCluster starts a primary and two followers as a failover-managed
// cluster, waits for both followers to attach, creates the meshes
// through the cluster client and warms every node.
func (b *bench) startCluster(ctx context.Context) (*topology, error) {
	reps := make([]string, clusterNodes)
	for i := range reps {
		var err error
		if reps[i], err = freeAddr(); err != nil {
			return nil, err
		}
	}
	top := &topology{}
	for i := 0; i < clusterNodes; i++ {
		var peers []string
		for j, r := range reps {
			if j != i {
				peers = append(peers, r)
			}
		}
		args := []string{
			"-replication-addr", reps[i],
			"-peers", strings.Join(peers, ","),
			"-node-id", fmt.Sprintf("n%d", i),
			"-failover-timeout", failoverTimeout,
			"-failover-rank", fmt.Sprint(i),
		}
		if i > 0 {
			args = append(args, "-replicate-from", reps[0])
		}
		d, err := b.startDaemon(daemonSpec{name: fmt.Sprintf("n%d", i), journaled: true, extra: args})
		if err != nil {
			top.stop()
			return nil, err
		}
		top.daemons = append(top.daemons, d)
	}
	for _, d := range top.daemons {
		if err := d.waitReady(ctx); err != nil {
			top.stop()
			return nil, err
		}
		c, err := b.jsonClient(d.url)
		if err != nil {
			top.stop()
			return nil, err
		}
		top.nodes = append(top.nodes, c)
	}
	top.json = top.nodes[0]
	if err := waitFollowers(ctx, top.daemons[0], clusterNodes-1); err != nil {
		top.stop()
		return nil, err
	}
	var err error
	// The reads target the static mesh, so they need not see this
	// client's own writes to the other one: a follower may lag by a few
	// records. Under read-your-writes a follower one record behind is
	// rejected, and three such answers evict it from the rotation for 2s,
	// which moved capacity by a fifth from run to run.
	top.cluster, err = meshclient.NewCluster(meshclient.ClusterOptions{
		Primary:             top.daemons[0].url,
		Replicas:            []string{top.daemons[1].url, top.daemons[2].url},
		MaxStalenessRecords: maxStaleness,
		Node:                meshclient.Options{Transport: b.transport},
	})
	if err != nil {
		top.stop()
		return nil, err
	}
	for _, name := range []string{meshStatic, meshDyn} {
		info, err := top.cluster.CreateMesh(ctx, name, meshW, meshH, b.in.faults)
		if err != nil {
			top.stop()
			return nil, fmt.Errorf("create %s: %w", name, err)
		}
		top.v0 = info.Version
	}
	for _, f := range top.nodes[1:] {
		if err := waitSeq(ctx, f, top.cluster.Watermark(), 10*time.Second); err != nil {
			top.stop()
			return nil, err
		}
	}
	for _, c := range top.nodes {
		if err := b.warmSingles(ctx, c); err != nil {
			top.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return top, nil
}

// waitFollowers polls the primary's /replication until n followers
// are attached.
func waitFollowers(ctx context.Context, d *daemon, n int) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		body, err := get(ctx, d.url+"/replication")
		if err == nil {
			var st struct {
				Followers []json.RawMessage `json:"followers"`
			}
			if json.Unmarshal(body, &st) == nil && len(st.Followers) >= n {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("primary has fewer than %d followers after 20s:\n%s", n, d.log)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkExports requires every node's export of the mutated mesh to be
// byte-identical.
func (b *bench) checkExports(ctx context.Context, top *topology) error {
	var first []byte
	for i, c := range top.nodes {
		resp, err := c.Do(ctx, http.MethodGet, "/v1/mesh/"+meshDyn, nil, true)
		if err != nil {
			return fmt.Errorf("export from n%d: %w", i, err)
		}
		if i == 0 {
			first = resp.Body
			continue
		}
		if !bytes.Equal(first, resp.Body) {
			b.chk.fail("n%d's export of %s differs from the primary's", i, meshDyn)
			continue
		}
		b.chk.ok(1)
	}
	return nil
}

// readAll reads every daemon's counters.
func (b *bench) readAll(ctx context.Context, top *topology) ([]counters, error) {
	out := make([]counters, len(top.daemons))
	for i, d := range top.daemons {
		var err error
		if out[i], err = d.read(ctx); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sumDelta is a counter's growth summed over daemons.
func sumDelta(a, b []counters, name string) float64 {
	var s float64
	for i := range a {
		s += delta(a[i], b[i], name)
	}
	return s
}
