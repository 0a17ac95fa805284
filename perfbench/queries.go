package main

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/query"
)

// suiteQuery is one query of a use case's benchmark suite, called on its
// own so each operator is timed separately. The operators and arguments
// are exactly those query.MODISSuite and query.AISSuite use.
type suiteQuery struct {
	label string // the suite's PerQuery key
	op    string // the operator, the per-layer metric name
	spj   bool   // counted in SuiteResult.SPJ, else Science
	run   func(c *cluster.Cluster) (query.Result, error)
}

// modisQueries returns MODISSuite's six queries for the given cycle.
func modisQueries(c *cluster.Cluster, cycle int) ([]suiteQuery, error) {
	s, ok := c.Schema("Band1")
	if !ok {
		return nil, fmt.Errorf("modis queries: Band1 not defined")
	}
	maxTime := int64(cycle+1)*s.Dims[0].ChunkInterval - 1
	sel := query.FullRegion(s, maxTime)
	sel.Hi[1] = s.Dims[1].Start + s.Dims[1].Extent()/4 - 1
	sel.Hi[2] = s.Dims[2].Start + s.Dims[2].Extent()/4 - 1
	timeLo := int64(0)
	if cycle >= 2 {
		timeLo = int64(cycle-2) * s.Dims[0].ChunkInterval
	}
	north := query.FullRegion(s, maxTime)
	north.Lo[0] = timeLo
	north.Lo[2] = 66
	south := query.FullRegion(s, maxTime)
	south.Lo[0] = timeLo
	south.Hi[2] = -67
	amazon := query.FullRegion(s, maxTime)
	amazon.Lo[1], amazon.Hi[1] = -78, -44
	amazon.Lo[2], amazon.Hi[2] = -20, 6
	groupBy := query.GroupBySpec{
		Array:      "Band1",
		Regions:    []query.Region{north, south},
		GroupDims:  []int{0},
		GroupScale: []int64{s.Dims[0].ChunkInterval},
		Attr:       "radiance",
	}
	t := int64(cycle)
	return []suiteQuery{
		{"selection", "select_region", true, func(c *cluster.Cluster) (query.Result, error) {
			return query.SelectRegion(c, "Band1", sel, []string{"radiance"})
		}},
		{"sort", "quantile", true, func(c *cluster.Cluster) (query.Result, error) {
			return query.Quantile(c, "Band1", "radiance", 0.5, 0.1)
		}},
		{"join", "join_bands", true, func(c *cluster.Cluster) (query.Result, error) {
			return query.JoinBands(c, "Band1", "Band2", "radiance", t)
		}},
		{"statistics", "group_by_aggregate", false, func(c *cluster.Cluster) (query.Result, error) {
			return query.GroupByAggregate(c, groupBy)
		}},
		{"modeling", "kmeans", false, func(c *cluster.Cluster) (query.Result, error) {
			return query.KMeans(c, "Band1", "radiance", amazon, 4, 4)
		}},
		{"projection", "window_aggregate", false, func(c *cluster.Cluster) (query.Result, error) {
			return query.WindowAggregate(c, "Band1", "radiance", t, 2)
		}},
	}, nil
}

// aisQueries returns AISSuite's six queries for the given cycle. The
// selection box is the densest Broadcast chunk of the cycle's slab, found
// once here from the healthy cluster's primaries, as AISSuite finds it on
// every call.
func aisQueries(c *cluster.Cluster, cycle int) ([]suiteQuery, error) {
	s, ok := c.Schema("Broadcast")
	if !ok {
		return nil, fmt.Errorf("ais queries: Broadcast not defined")
	}
	t := int64(cycle)
	var port array.ChunkCoord
	var best int64 = -1
	for _, id := range c.Nodes() {
		n, _ := c.Node(id)
		for _, ch := range n.Chunks() {
			if ch.Schema.Name != "Broadcast" || ch.Coords[0] != t {
				continue
			}
			if size := ch.SizeBytes(); size > best || (size == best && ch.Coords.Less(port)) {
				port, best = ch.Coords.Clone(), size
			}
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("ais queries: no Broadcast chunks in slab %d", t)
	}
	lo, hi := s.ChunkBounds(port)
	sel := query.FullRegion(s, int64(cycle+1)*s.Dims[0].ChunkInterval-1)
	sel.Lo[1], sel.Hi[1] = lo[1], hi[1]
	sel.Lo[2], sel.Hi[2] = lo[2], hi[2]
	groupBy := query.GroupBySpec{
		Array:      "Broadcast",
		GroupDims:  []int{1, 2},
		GroupScale: []int64{2 * s.Dims[1].ChunkInterval, 2 * s.Dims[2].ChunkInterval},
		FilterAttr: "speed",
		FilterMin:  1,
	}
	return []suiteQuery{
		{"selection", "select_region", true, func(c *cluster.Cluster) (query.Result, error) {
			return query.SelectRegion(c, "Broadcast", sel, []string{"speed", "ship_id"})
		}},
		{"sort", "distinct_sorted", true, func(c *cluster.Cluster) (query.Result, error) {
			return query.DistinctSorted(c, "Broadcast", "ship_id")
		}},
		{"join", "join_replicated", true, func(c *cluster.Cluster) (query.Result, error) {
			return query.JoinReplicated(c, "Broadcast", "ship_id", "Vessel", t)
		}},
		{"statistics", "group_by_aggregate", false, func(c *cluster.Cluster) (query.Result, error) {
			return query.GroupByAggregate(c, groupBy)
		}},
		{"modeling", "knn", false, func(c *cluster.Cluster) (query.Result, error) {
			return query.KNN(c, "Broadcast", t, 40, 8)
		}},
		{"projection", "collision_projection", false, func(c *cluster.Cluster) (query.Result, error) {
			return query.CollisionProjection(c, "Broadcast", t, 15, 1.5)
		}},
	}, nil
}

// queryOps lists every operator the suites use, in metric order.
var queryOps = []string{
	"select_region", "quantile", "join_bands", "group_by_aggregate", "kmeans",
	"window_aggregate", "distinct_sorted", "join_replicated", "knn", "collision_projection",
}
