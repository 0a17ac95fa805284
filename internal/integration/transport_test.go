package integration

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/transport"
)

// stage is one checkpoint of a run: the cluster's state fingerprint and
// the MODIS suite's answers.
type stage struct {
	State   map[string]string     `json:"state"`
	Answers map[string][2]float64 `json:"answers"`
}

// loadGolden decodes a checked-in reference outcome from testdata/ into v.
// The references were recorded from the transportless in-process cluster
// before that code path was removed; every backend must reproduce them
// exactly.
func loadGolden(t *testing.T, name string, v any) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// drillGolden is the kill-a-node drill's reference: the victim and the
// degraded, recovered and readmitted checkpoints.
type drillGolden struct {
	Victim     partition.NodeID `json:"victim"`
	Degraded   stage            `json:"degraded"`
	Recovered  stage            `json:"recovered"`
	Readmitted stage            `json:"readmitted"`
}

// clusterFingerprint hashes every node's full data state — primaries and
// replicas, payload bytes included — so two clusters that took different
// wire paths can be compared byte for byte.
func clusterFingerprint(t *testing.T, c *cluster.Cluster) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, id := range c.Nodes() {
		node, _ := c.Node(id)
		for _, info := range node.ChunkInfos() {
			ch, ok := node.Chunk(info.Ref)
			if !ok {
				t.Fatalf("node %d lists %s but cannot serve it", id, info.Ref)
			}
			enc, err := array.EncodeChunk(ch)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(enc)
			out[fmt.Sprintf("%d/primary/%s", id, info.Ref)] = hex.EncodeToString(sum[:])
		}
		for _, rep := range node.Replicas() {
			enc, err := array.EncodeChunk(rep)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(enc)
			out[fmt.Sprintf("%d/replica/%s", id, rep.Ref())] = hex.EncodeToString(sum[:])
		}
	}
	return out
}

func requireSameState(t *testing.T, label string, want, got map[string]string) {
	t.Helper()
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("%s: state diverges at %s: baseline %q, got %q", label, k, want[k], got[k])
		}
	}
}

func requireSameAnswers(t *testing.T, label string, want, got map[string][2]float64) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: no baseline answers to compare against", label)
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: query %s = %v, baseline %v", label, name, g, w)
		}
	}
}

// TestMODISSuiteOverTCPMatchesInProcess ingests the full MODIS workload
// once per transport backend — the default, loopback, TCP — and requires
// the in-process reference's byte-identical cluster state and identical
// benchmark-suite answers everywhere. Over TCP every ingest write crosses
// a real socket and every halo/join pull is a wire fetch, so this pins the
// whole stack: same bytes stored, same answers computed.
func TestMODISSuiteOverTCPMatchesInProcess(t *testing.T) {
	var want stage
	loadGolden(t, "modis_suite.golden.json", &want)

	for _, backend := range []struct {
		name string
		tr   transport.Transport
	}{
		{"default", nil},
		{"loopback", transport.NewLoopback()},
		{"tcp", transport.NewTCP(transport.TCPOptions{})},
	} {
		t.Run(backend.name, func(t *testing.T) {
			c, cyc := modisClusterOver(t, 2, backend.tr, 0)
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			requireSameState(t, backend.name, want.State, clusterFingerprint(t, c))
			requireSameAnswers(t, backend.name, want.Answers, suiteAnswers(t, c, cyc))
		})
	}
}

// TestMODISKillANodeDrillOverTCP replays the kill-a-node drill on the
// default transport and with every batch on real sockets, and pins each
// stage — degraded, recovered, readmitted — to the in-process reference
// drill byte for byte, answers included.
func TestMODISKillANodeDrillOverTCP(t *testing.T) {
	var want drillGolden
	loadGolden(t, "modis_drill.golden.json", &want)
	drill := func(t *testing.T, tr transport.Transport) []stage {
		c, cycle := modisClusterOver(t, 2, tr, 0)
		victim := drillVictim(t, c)
		if victim != want.Victim {
			t.Fatalf("drill picked victim %d, reference %d", victim, want.Victim)
		}
		if err := c.FailNode(victim); err != nil {
			t.Fatal(err)
		}
		var stages []stage
		snap := func() {
			stages = append(stages, stage{clusterFingerprint(t, c), suiteAnswers(t, c, cycle)})
		}
		snap() // degraded
		plan, err := c.PlanRecover(victim)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ExecuteRebalance(plan); err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("post-recovery validate: %v", err)
		}
		snap() // recovered
		if _, err := c.RecoverNode(victim); err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("post-readmit validate: %v", err)
		}
		snap() // readmitted
		return stages
	}

	wantStages := []stage{want.Degraded, want.Recovered, want.Readmitted}
	names := []string{"degraded", "recovered", "readmitted"}
	for _, backend := range []struct {
		name string
		tr   transport.Transport
	}{
		{"default", nil},
		{"tcp", transport.NewTCP(transport.TCPOptions{})},
	} {
		t.Run(backend.name, func(t *testing.T) {
			got := drill(t, backend.tr)
			for i, name := range names {
				requireSameState(t, name, wantStages[i].State, got[i].State)
				requireSameAnswers(t, name, wantStages[i].Answers, got[i].Answers)
			}
		})
	}
}

// TestMODISChaosDropsConvergeByteIdentical is the chaos run (meant for
// -race): the whole workload plus a scale-out and a kill-a-node drill over
// a FaultTransport-wrapped TCP backend randomly dropping 30% of pushes.
// Whole-batch retry must absorb every injected fault, and because retried
// batches are receiver-atomic the surviving state must be byte-identical
// to the fault-free in-process reference run of the same script.
func TestMODISChaosDropsConvergeByteIdentical(t *testing.T) {
	script := func(t *testing.T, tr transport.Transport, retries int) *cluster.Cluster {
		c, _ := modisClusterOver(t, 2, tr, retries)
		if _, err := c.ScaleOut(2); err != nil {
			t.Fatal(err)
		}
		victim := drillVictim(t, c)
		if err := c.FailNode(victim); err != nil {
			t.Fatal(err)
		}
		plan, err := c.PlanRecover(victim)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ExecuteRebalance(plan); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RecoverNode(victim); err != nil {
			t.Fatal(err)
		}
		return c
	}

	var want stage
	loadGolden(t, "modis_chaos.golden.json", &want)

	faults := transport.NewFaultTransport(transport.NewTCP(transport.TCPOptions{}))
	faults.SetDropRate(0.3, 7)
	chaos := script(t, faults, 10)
	faults.SetDropRate(0, 0) // disarm before verification reads

	if err := chaos.Validate(); err != nil {
		t.Fatalf("post-chaos validate: %v", err)
	}
	if faults.Injected() == 0 {
		t.Error("chaos run injected no faults; drop rate never fired")
	}
	requireSameState(t, "chaos", want.State, clusterFingerprint(t, chaos))
}
