// Package benchfixture builds the MODIS-shaped workload the chunk-identity
// micro-benchmarks probe: a 3-D array (time × longitude × latitude) over a
// 36×31×16 chunk grid on a 4-node k-d tree cluster. It is shared between
// the go-test benchmarks (internal/cluster) and `elasticbench -json`, so
// the recorded perf trajectory always measures exactly the workload the
// in-repo benchmarks do.
package benchfixture

import (
	"math/rand"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/transport"
)

// NumChunks and CellsPerChunk size the benchmark chunk set.
const (
	NumChunks     = 360
	CellsPerChunk = 20
)

// Schema returns the 3-D MODIS-like band array.
func Schema() *array.Schema {
	return array.MustSchema("Band1",
		[]array.Attribute{{Name: "v", Type: array.Float64}},
		[]array.Dimension{
			{Name: "time", Start: 0, End: array.Unbounded, ChunkInterval: 1},
			{Name: "longitude", Start: 0, End: 123, ChunkInterval: 4},
			{Name: "latitude", Start: 0, End: 63, ChunkInterval: 4},
		})
}

// Cluster builds the benchmark cluster with the band schema defined.
func Cluster(nodes int) (*cluster.Cluster, error) {
	return TransportCluster(nodes, 1, nil)
}

// TransportCluster builds the benchmark cluster shape with a node
// transport and replication factor — the transport-probe variant. A nil
// transport (the cluster's default Loopback) and replication <= 1
// reproduce Cluster exactly. Callers passing a socket transport should
// Close the cluster when done.
func TransportCluster(nodes, replication int, tr transport.Transport) (*cluster.Cluster, error) {
	if replication < 1 {
		replication = 1
	}
	c, err := cluster.New(cluster.Config{
		InitialNodes:      nodes,
		NodeCapacity:      64 << 20,
		ReplicationFactor: replication,
		Transport:         tr,
		Partitioner: func(initial []partition.NodeID) (partition.Partitioner, error) {
			return partition.NewKdTree(initial, partition.Geometry{
				Extents:     []int64{36, 31, 16},
				SpatialDims: []int{1, 2},
			}, false)
		},
	})
	if err != nil {
		return nil, err
	}
	if err := c.DefineArray(Schema()); err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

// Chunks scatters n chunks with `cells` occupied cells each over distinct
// 3-D grid slots, deterministically (seed 99).
func Chunks(n, cells int) []*array.Chunk {
	s := Schema()
	rng := rand.New(rand.NewSource(99))
	used := map[[3]int64]bool{}
	var out []*array.Chunk
	for len(out) < n {
		slot := [3]int64{rng.Int63n(36), rng.Int63n(31), rng.Int63n(16)}
		if used[slot] {
			continue
		}
		used[slot] = true
		cc := array.ChunkCoord{slot[0], slot[1], slot[2]}
		ch := array.NewChunkCap(s, cc, cells)
		origin := s.ChunkOrigin(cc)
		for k := 0; k < cells; k++ {
			cell := array.Coord{origin[0], origin[1] + int64(k%4), origin[2] + int64((k/4)%4)}
			ch.AppendCell(cell, []array.CellValue{{Float: rng.Float64()}})
		}
		out = append(out, ch)
	}
	return out
}

// ClusterAndChunks is the standard benchmark setup: a 4-node cluster plus
// the default chunk set (not yet inserted).
func ClusterAndChunks() (*cluster.Cluster, []*array.Chunk, error) {
	c, err := Cluster(4)
	if err != nil {
		return nil, nil, err
	}
	return c, Chunks(NumChunks, CellsPerChunk), nil
}
