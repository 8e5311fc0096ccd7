package main

import (
	"context"
	"fmt"

	"extmesh/meshclient"
)

// --- batch-binary -------------------------------------------------------

func runBatchBinary(ctx context.Context, b *bench) error {
	top, err := b.setupRepeated(ctx, func(ctx context.Context) (*topology, error) {
		return b.startSingle(ctx, daemonSpec{name: "single", binary: true}, func(ctx context.Context, t *topology) error {
			for k := 1; k < batchMeshes; k++ {
				if _, err := t.json.CreateMesh(ctx, staticName(k), meshW, meshH, b.in.meshes[k]); err != nil {
					return fmt.Errorf("create %s: %w", staticName(k), err)
				}
			}
			// One binary connection per sender, nproc in all.
			for s := 0; s < b.nproc; s++ {
				c, err := b.binaryClient(t.daemons[0].binAddr)
				if err != nil {
					return err
				}
				t.binaries = append(t.binaries, c)
			}
			return b.warmBatches(ctx, t.binaries[0])
		})
	})
	if err != nil {
		return err
	}
	static := &reads{mesh: meshStatic, gen: b.in.batch, send: func(ctx context.Context, sender int, req *request) (result, error) {
		return askBatch(ctx, top.binaries[sender], staticName(req.mesh), req)
	}}
	// A write phase cycle is a write and one read of the written mesh; the
	// read is an existence batch, which fits the cycle where a route batch
	// of uniform pairs would not.
	post := &reads{mesh: meshDyn, gen: func(s uint64, i int) request { return b.in.batch(s, 4*i+3) },
		send: func(ctx context.Context, sender int, req *request) (result, error) {
			return askBatch(ctx, top.binaries[sender], meshDyn, req)
		}}
	return b.staticWorkload(ctx, top, batchMeshes, static, post, batchRate)
}

// warmBatches builds the routers and views the batch stream uses on
// every mesh. Sources are uniform, so no reach-cache warm-up would
// survive; none is attempted.
func (b *bench) warmBatches(ctx context.Context, c *meshclient.BinaryClient) error {
	meshes := []string{meshDyn}
	for k := 0; k < batchMeshes; k++ {
		meshes = append(meshes, staticName(k))
	}
	for _, mesh := range meshes {
		for i := 0; i < 4; i++ {
			req := b.in.batch(streamWarm, i)
			if _, err := askBatch(ctx, c, mesh, &req); err != nil {
				return err
			}
		}
	}
	return nil
}
