// Package elastic is the public face of this repository: a from-scratch Go
// reproduction of Duggan & Stonebraker, "Incremental Elasticity for Array
// Databases" (SIGMOD 2014).
//
// The library implements an elastically growing shared-nothing array
// database: SciDB-style n-dimensional chunked arrays, eight elastic data
// placement schemes (Append, Consistent Hash, Extendible Hash, Hilbert
// Curve, Incremental Quadtree, K-d Tree, Round Robin, Uniform Range), the
// leading-staircase PD provisioner with its two workload tuners, the
// paper's two benchmark workloads (MODIS remote sensing and AIS vessel
// tracks), and a deterministic simulated-time cost substrate that stands in
// for the paper's physical 8-node cluster.
//
// # Ingest pipeline
//
// Ingest is batch-first. Placement schemes implement the Placer contract —
// PlaceBatch maps a whole batch of chunks to destination nodes in one call
// — and the cluster splits ingest into an explicit plan → execute pipeline:
// PlanInsert validates the batch (schemas, duplicates, destinations) and
// reserves its chunks in a sharded catalog, returning an IngestPlan;
// ExecutePlan then performs the per-destination-node writes in parallel.
// Cluster.Insert runs both phases in one call and is safe for concurrent
// use — parallel batches interleave against the catalog shards without
// double-placing a chunk.
//
// # Rebalancing
//
// The elasticity surface follows the same plan → execute contract:
// Cluster.PlanScaleOut provisions nodes, revises the placement table and
// returns a RebalancePlan whose per-receiver batches, predicted wire
// bytes and Eq 7 duration are readable before committing;
// Cluster.PlanMigrate validates an externally planned move set the same
// way (the co-access advisor's Advise returns one, plus predicted
// before/after remote traffic, without moving anything). ExecuteRebalance
// ships each receiver's chunks as one batch over the cluster transport,
// receivers in parallel, atomically; Discard backs a plan out. ScaleOut and Migrate
// remain as thin plan+execute wrappers.
//
// # Fault tolerance
//
// Config.ReplicationFactor >= 2 keeps R copies of every primary chunk on
// distinct nodes. Cluster.FailNode marks a node Down: planning routes
// around it, queries fail chunk reads over to surviving replicas
// (returning *query.ErrPartialResult naming the lost chunks only when no
// copy survives), and Cluster.PlanRecover produces an inspectable
// RebalancePlan that promotes surviving replicas to primaries and
// re-replicates onto healthy nodes — executed by the same
// ExecuteRebalance, whose per-receiver transfers retry transient store
// faults with exponential backoff before falling back to atomic
// rollback. Cluster.RecoverNode readmits a repaired node.
//
// # Parallel queries
//
// The benchmark operators run their chunk scans on a worker-pool
// executor. Config.Parallelism caps the pool (0 = GOMAXPROCS); results
// are byte-identical at every level — the executor folds per-item
// partials in canonical order and merges integer cost charges at the
// pool barrier — so parallelism is purely a wall-clock knob, never a
// result perturbation. See ARCHITECTURE.md.
//
// # Quick start
//
//	gen, _ := elastic.NewAIS(elastic.AISConfig{Cycles: 6})
//	eng, _ := elastic.NewEngine(gen, elastic.Config{
//	        PartitionerKind: elastic.KindKdTree,
//	        InitialNodes:    2,
//	        NodeCapacity:    8 << 20,
//	        RunQueries:      true,
//	})
//	stats, _ := eng.Run()
//	for _, s := range stats {
//	        fmt.Printf("cycle %d: %d nodes, rsd %.0f%%\n", s.Cycle, s.NodesAfter, s.RSD*100)
//	}
//
// The deeper layers are importable directly for finer control:
// repro/internal/{array, partition, cluster, provision, workload, query,
// experiments}. This package re-exports the types a typical user needs.
package elastic

import (
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/partition"
	"repro/internal/provision"
	"repro/internal/query"
	"repro/internal/supervisor"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Core engine types (the paper's contribution assembled).
type (
	// Engine drives a cyclic workload against an elastic cluster.
	Engine = core.Engine
	// Config assembles an elastic array database run.
	Config = core.Config
	// CycleStats records one workload cycle's three phases and the
	// provisioning action (Equation 1's inputs).
	CycleStats = core.CycleStats
)

// Cluster substrate types.
type (
	// Cluster is the shared-nothing array database.
	Cluster = cluster.Cluster
	// IngestPlan is a validated batch placement, produced by
	// Cluster.PlanInsert and run by Cluster.ExecutePlan.
	IngestPlan = cluster.IngestPlan
	// RebalancePlan is a validated, per-receiver-grouped set of chunk
	// relocations, produced by Cluster.PlanScaleOut / Cluster.PlanMigrate
	// and run by Cluster.ExecuteRebalance.
	RebalancePlan = cluster.RebalancePlan
	// ReceiverBatch is one receiving node's share of a rebalance plan.
	ReceiverBatch = cluster.ReceiverBatch
	// ScaleOutResult reports what a cluster expansion did.
	ScaleOutResult = cluster.ScaleOutResult
	// CostModel holds the simulated-time unit costs (δ, t, CPU).
	CostModel = cluster.CostModel
	// Duration is simulated elapsed time in seconds.
	Duration = cluster.Duration
	// PlacementEvent is one committed placement change on the cluster's
	// change feed (chunk added, moved or removed, with owner and size).
	PlacementEvent = cluster.PlacementEvent
	// PlacementEventKind classifies a placement change.
	PlacementEventKind = cluster.PlacementEventKind
	// PlacementListener receives committed placement event batches from
	// Cluster.SubscribePlacement.
	PlacementListener = cluster.PlacementListener
	// NodeHealth is a node's availability state (Healthy or Down),
	// driven by Cluster.FailNode / Cluster.RecoverNode.
	NodeHealth = cluster.NodeHealth
	// FaultStore wraps a chunk store with programmable write faults —
	// the chaos-testing hook behind the rebalance retry path.
	FaultStore = cluster.FaultStore
	// RebalanceResult reports a rebalance's predicted wire cost (Eq 7)
	// next to what the transport actually measured.
	RebalanceResult = cluster.RebalanceResult
)

// Transport types: the pluggable inter-node data plane (Config.Transport).
type (
	// Transport is the node-to-node data plane contract: chunk-batch
	// push, chunk fetch, and holdings announcements.
	Transport = transport.Transport
	// Loopback is the in-process transport backend — pointer delivery,
	// zero wire cost — and the one a cluster runs on when
	// Config.Transport is nil.
	Loopback = transport.Loopback
	// TCP is the socket transport backend: every node a served endpoint,
	// chunk batches streamed over the ABAT codec with bounded memory.
	TCP = transport.TCP
	// TCPOptions tunes the TCP backend (listen address, ring and segment
	// sizes).
	TCPOptions = transport.TCPOptions
	// FaultTransport wraps a transport with programmable faults —
	// latency, dropped connections, torn streams — the wire-level
	// counterpart of FaultStore.
	FaultTransport = transport.FaultTransport
	// LinkMode selects which verbs a blocked link refuses (data,
	// announce, or both) for FaultTransport partition injection.
	LinkMode = transport.LinkMode
	// Announcement is a node's self-reported holdings summary (with its
	// heartbeat sequence number), delivered to the coordinator over the
	// transport.
	Announcement = transport.Announcement
	// BatchKind labels what a pushed chunk batch is (ingest, rebalance,
	// replica placement).
	BatchKind = transport.BatchKind
	// TransportStats counts a transport's pushes, fetches and bytes.
	TransportStats = transport.Stats
	// RemoteError is a remote handler's refusal of a request —
	// non-transient, not retried.
	RemoteError = transport.RemoteError
)

// NewLoopback returns the in-process transport backend.
func NewLoopback() *Loopback { return transport.NewLoopback() }

// NewTCP returns the socket transport backend.
func NewTCP(opts TCPOptions) *TCP { return transport.NewTCP(opts) }

// NewFaultTransport wraps a transport with programmable wire faults.
func NewFaultTransport(inner Transport) *FaultTransport {
	return transport.NewFaultTransport(inner)
}

// IsTransient reports whether a transport error is worth retrying
// (dropped connection, torn stream) rather than a remote refusal.
func IsTransient(err error) bool { return transport.IsTransient(err) }

// ErrCorruptStream marks a chunk stream that failed to decode in flight;
// transient, match with errors.Is.
var ErrCorruptStream = transport.ErrCorruptStream

// Placement change kinds published on the cluster's feed.
const (
	PlacementAdd    = cluster.PlacementAdd
	PlacementMove   = cluster.PlacementMove
	PlacementRemove = cluster.PlacementRemove
)

// Node health states.
const (
	NodeHealthy = cluster.NodeHealthy
	NodeDown    = cluster.NodeDown
	NodeSuspect = cluster.NodeSuspect
)

// Link-block modes for FaultTransport partition injection.
const (
	LinkData     = transport.LinkData
	LinkAnnounce = transport.LinkAnnounce
	LinkAll      = transport.LinkAll
)

// ErrStalePlan is ExecuteRebalance's rejection of a plan whose topology
// epoch moved between planning and execution; match with errors.Is and
// plan again.
var ErrStalePlan = cluster.ErrStalePlan

// Self-healing types: heartbeat failure detection plus supervised
// auto-recovery (Config.Supervise).
type (
	// Supervisor subscribes to the failure detector's verdicts and runs
	// FailNode → PlanRecover → ExecuteRebalance (and RecoverNode on
	// return) automatically, with bounded retries, backoff + jitter and
	// flap-damped readmission.
	Supervisor = supervisor.Supervisor
	// SupervisorOptions tunes a Supervisor (heartbeat/poll cadence, retry
	// budget, quarantine windows, detector thresholds).
	SupervisorOptions = supervisor.Options
	// SupervisorEvent is one entry in the supervisor's decision log.
	SupervisorEvent = supervisor.Event
	// SupervisorEventKind classifies a supervisor decision.
	SupervisorEventKind = supervisor.EventKind
	// Detector is the coordinator-side failure detector: heartbeat
	// inter-arrival timing to Healthy/Suspect/Down verdicts.
	Detector = detector.Detector
	// DetectorOptions tunes suspicion thresholds and the clock.
	DetectorOptions = detector.Options
	// DetectorState is a watched node's liveness verdict.
	DetectorState = detector.State
	// ManualClock is the injectable test clock that makes detector and
	// supervisor behaviour fully deterministic.
	ManualClock = detector.ManualClock
)

// Supervisor decision kinds, in lifecycle order.
const (
	EventSuspect        = supervisor.EventSuspect
	EventSuspectCleared = supervisor.EventSuspectCleared
	EventDown           = supervisor.EventDown
	EventFailed         = supervisor.EventFailed
	EventRecovered      = supervisor.EventRecovered
	EventRetry          = supervisor.EventRetry
	EventGaveUp         = supervisor.EventGaveUp
	EventAlive          = supervisor.EventAlive
	EventQuarantined    = supervisor.EventQuarantined
	EventReadmitted     = supervisor.EventReadmitted
)

// Detector verdicts.
const (
	DetectorHealthy = detector.Healthy
	DetectorSuspect = detector.Suspect
	DetectorDown    = detector.Down
)

// NewSupervisor attaches a self-healing supervisor to a transport-backed
// cluster (call Start to begin, Stop when done). Engines attach one via
// Config.Supervise instead.
func NewSupervisor(c *Cluster, opts SupervisorOptions) (*Supervisor, error) {
	return supervisor.New(c, opts)
}

// NewManualClock returns a deterministic test clock pinned at start for
// DetectorOptions.Clock.
func NewManualClock(start time.Time) *ManualClock { return detector.NewManualClock(start) }

// ErrInjected marks write faults injected by a FaultStore; match with
// errors.Is.
var ErrInjected = cluster.ErrInjected

// ErrPartialResult is returned by degraded queries when chunks are owned
// by Down nodes and no surviving replica holds a copy.
type ErrPartialResult = query.ErrPartialResult

// Co-access advisor types (the paper's §8 future-work prototype).
type (
	// LiveAdvisor is the continuous co-access advisor: a graph maintained
	// incrementally from the placement change feed, advising in O(what
	// changed) instead of rebuilding per call. Attach one with
	// Config.AdviseArrays (Engine.Advisor) or NewLiveAdvisor.
	LiveAdvisor = advisor.Live
	// CoAccessAdvice is an advisor recommendation: a validated rebalance
	// plan plus predicted before/after remote co-access traffic.
	CoAccessAdvice = advisor.Advice
)

// Partitioning types.
type (
	// Partitioner is an elastic data-placement scheme.
	Partitioner = partition.Partitioner
	// Placer is the batch placement contract every scheme implements
	// (PlaceBatch over a whole ingest batch).
	Placer = partition.Placer
	// Assignment is one chunk → node decision of a batch placement.
	Assignment = partition.Assignment
	// PartitionerOptions tunes a scheme.
	PartitionerOptions = partition.Options
	// Geometry describes the chunk grid the spatial schemes divide.
	Geometry = partition.Geometry
	// Features is a scheme's Table 1 row.
	Features = partition.Features
	// NodeID identifies a cluster node.
	NodeID = partition.NodeID
)

// Provisioning types.
type (
	// Controller is the leading staircase PD control loop.
	Controller = provision.Controller
	// CostParams feeds the analytical scale-out cost model (Eqs 5–9).
	CostParams = provision.CostParams
)

// Workload types.
type (
	// Generator produces the chunk batches of a cyclic workload.
	Generator = workload.Generator
	// MODISConfig sizes the remote-sensing workload.
	MODISConfig = workload.MODISConfig
	// AISConfig sizes the ship-tracking workload.
	AISConfig = workload.AISConfig
)

// Partitioner kinds accepted by Config.PartitionerKind, in the order the
// paper's figures list the schemes.
const (
	KindAppend     = partition.KindAppend
	KindConsistent = partition.KindConsistent
	KindExtendible = partition.KindExtendible
	KindHilbert    = partition.KindHilbert
	KindQuadtree   = partition.KindQuadtree
	KindKdTree     = partition.KindKdTree
	KindRoundRobin = partition.KindRoundRobin
	KindUniform    = partition.KindUniform
)

// NewEngine validates the configuration and assembles the elastic array
// database over the generator's workload.
func NewEngine(gen Generator, cfg Config) (*Engine, error) { return core.NewEngine(gen, cfg) }

// NewLiveAdvisor subscribes a continuous co-access advisor to the
// cluster's placement change feed over the named arrays. The first
// Advise/Refresh pays one full graph build; every later committed ingest
// and rebalance patches the graph in place.
func NewLiveAdvisor(c *Cluster, arrays []string) (*LiveAdvisor, error) {
	return advisor.NewLive(c, arrays)
}

// AdviseCoAccess builds a co-access graph from scratch and returns a
// bounded migration recommendation — the one-shot, rebuild-per-call
// advisor. Long-lived deployments should hold a LiveAdvisor instead.
func AdviseCoAccess(c *Cluster, arrays []string, maxMoves int, slack float64) (*CoAccessAdvice, error) {
	return advisor.Advise(c, arrays, maxMoves, slack)
}

// NewMODIS builds the synthetic MODIS remote-sensing workload (§3.1).
func NewMODIS(cfg MODISConfig) (*workload.MODIS, error) { return workload.NewMODIS(cfg) }

// NewAIS builds the synthetic AIS vessel-track workload (§3.2).
func NewAIS(cfg AISConfig) (*workload.AIS, error) { return workload.NewAIS(cfg) }

// NewController builds a leading-staircase controller with sample count s,
// planning horizon p and per-node capacity c (Eqs 2–4).
func NewController(s, p int, nodeCapacity float64) (*Controller, error) {
	return provision.NewController(s, p, nodeCapacity)
}

// TuneS fits the controller's sample count to an observed demand curve by
// what-if analysis (Algorithm 1).
func TuneS(history []float64, psi int) (int, []float64, error) {
	return provision.TuneS(history, psi)
}

// TuneP scores candidate planning horizons with the analytical cost model
// (Eqs 5–9) and returns the cheapest.
func TuneP(params CostParams, candidates []int) (int, map[int]float64, error) {
	return provision.TuneP(params, candidates)
}

// PartitionerKinds returns all scheme keys in figure order.
func PartitionerKinds() []string { return partition.Kinds() }

// DefaultCostModel mirrors a 2014-era cluster at full scale;
// ScaledCostModel matches the scaled-down synthetic workloads (see
// cluster.ByteScaleDown).
func DefaultCostModel() CostModel { return cluster.DefaultCostModel() }

// ScaledCostModel returns the cost model the experiments use.
func ScaledCostModel() CostModel { return cluster.ScaledCostModel() }

// TotalNodeSeconds sums Equation 1 over a run: Σ N_i (I_i + r_i + w_i).
func TotalNodeSeconds(stats []CycleStats) float64 { return core.TotalNodeSeconds(stats) }
