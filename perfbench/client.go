package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"extmesh/meshclient"
)

// singleClient is the single-query surface the JSON and cluster clients
// share; the binary client has it too.
type singleClient interface {
	Route(ctx context.Context, mesh string, q meshclient.Query) (*meshclient.RouteResult, error)
	Ensure(ctx context.Context, mesh string, q meshclient.Query) (*meshclient.Assurance, error)
	HasMinimalPath(ctx context.Context, mesh string, q meshclient.Query) (bool, error)
}

// jsonClient is a meshclient.Client on the run's shared transport,
// which caps connections per daemon at nproc. Retries, backoff and the
// breaker keep the client's defaults: failures after them count
// toward error_frac.
func (b *bench) jsonClient(base string) (*meshclient.Client, error) {
	return meshclient.New(meshclient.Options{BaseURL: base, Transport: b.transport})
}

func (b *bench) binaryClient(addr string) (*meshclient.BinaryClient, error) {
	return meshclient.NewBinary(meshclient.BinaryOptions{Addr: addr})
}

// ask sends one single query and returns the answer in checkable form.
func ask(ctx context.Context, c singleClient, mesh string, req *request) (result, error) {
	q := req.query()
	switch req.op {
	case opRoute:
		rr, err := c.Route(ctx, mesh, q)
		if err != nil {
			return fromErr(err)
		}
		return fromRoute(rr), nil
	case opRouteAssured:
		a, err := routeAssured(ctx, c, mesh, q)
		if err != nil {
			return fromErr(err)
		}
		return fromAssured(a), nil
	case opEnsure:
		a, err := c.Ensure(ctx, mesh, q)
		if err != nil {
			return fromErr(err)
		}
		return fromEnsure(a), nil
	case opHasMinimalPath:
		ok, err := c.HasMinimalPath(ctx, mesh, q)
		if err != nil {
			return fromErr(err)
		}
		return result{status: http.StatusOK, exists: ok}, nil
	}
	return result{}, fmt.Errorf("op %s is not a single query", req.op)
}

// routeAssured calls the route-assured endpoint. The cluster client has
// no typed method for it, so the cluster read goes through DoRead, the
// same replica rotation and staleness bound its typed reads use.
func routeAssured(ctx context.Context, c singleClient, mesh string, q meshclient.Query) (*meshclient.Assurance, error) {
	switch c := c.(type) {
	case *meshclient.Client:
		return c.RouteAssured(ctx, mesh, q)
	case *meshclient.ClusterClient:
		body, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		resp, err := c.DoRead(ctx, http.MethodPost, "/v1/mesh/"+url.PathEscape(mesh)+"/route-assured", body)
		if err != nil {
			return nil, err
		}
		var a meshclient.Assurance
		if err := json.Unmarshal(resp.Body, &a); err != nil {
			return nil, fmt.Errorf("decode route-assured: %w", err)
		}
		return &a, nil
	}
	return nil, fmt.Errorf("%T has no route-assured", c)
}

// askBatch sends one batch over the binary plane.
func askBatch(ctx context.Context, c *meshclient.BinaryClient, mesh string, req *request) (result, error) {
	switch req.op {
	case opRouteBatch:
		rs, err := c.RouteBatch(ctx, mesh, req.pairs, req.model, false)
		if err != nil {
			return fromErr(err)
		}
		return fromBatch(rs), nil
	case opHMPBatch:
		bits, err := c.HasMinimalPathBatch(ctx, mesh, req.src, req.dests)
		if err != nil {
			return fromErr(err)
		}
		return result{status: http.StatusOK, bits: bits}, nil
	}
	return result{}, fmt.Errorf("op %s is not a batch", req.op)
}

// clientCounts sums the attempt-level counters of JSON clients.
func clientCounts(cs []*meshclient.Client) meshclient.Counts {
	var sum meshclient.Counts
	for _, c := range cs {
		n := c.Counts()
		sum.Requests += n.Requests
		sum.Retries += n.Retries
		sum.Shed += n.Shed
	}
	return sum
}

// pollSeq reads the journal sequence number a node answers at, from
// the cheapest /v1 endpoint (the mesh list).
func pollSeq(ctx context.Context, c *meshclient.Client) (uint64, error) {
	resp, err := c.Do(ctx, http.MethodGet, "/v1/mesh", nil, true)
	if err != nil {
		return 0, err
	}
	if !resp.HasJournalSeq {
		return 0, fmt.Errorf("no X-Journal-Seq on the mesh list")
	}
	return resp.JournalSeq, nil
}

// waitSeq polls until the node answers at seq or later.
func waitSeq(ctx context.Context, c *meshclient.Client, seq uint64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		got, err := pollSeq(ctx, c)
		if err == nil && got >= seq {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node still at seq %d (err %v), want %d", got, err, seq)
		}
		time.Sleep(time.Millisecond)
	}
}
