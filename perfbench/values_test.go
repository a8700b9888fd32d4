package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"iamdb"
	"iamdb/internal/ycsb"
)

func TestCheckCatchesCorruption(t *testing.T) {
	g := newValues(42, 64)
	v := g.appendValue(nil, 7, 3)
	if err := g.check(7, v, 3, 3); err != nil {
		t.Fatalf("intact value rejected: %v", err)
	}
	for _, pos := range []int{0, 8, valueHeader, len(v) - 1} {
		bad := append([]byte(nil), v...)
		bad[pos] ^= 0x01
		if g.check(7, bad, 3, 3) == nil {
			t.Errorf("flipped byte %d not caught", pos)
		}
	}
	if g.check(7, v[:len(v)-1], 3, 3) == nil {
		t.Error("short value not caught")
	}
	if g.check(7, v, 4, 5) == nil {
		t.Error("stale version not caught")
	}
	if g.check(8, v, 3, 3) == nil {
		t.Error("another record's value not caught")
	}
	if newValues(43, 64).check(7, v, 3, 3) == nil {
		t.Error("value of another seed not caught")
	}
}

// TestReadsCatchCorruptedValue plants one corrupted value in a real DB
// and demands that a Get, a scan across it and the post-phase
// verification each count it as failed.
func TestReadsCatchCorruptedValue(t *testing.T) {
	w := workload{name: "test", clients: 1, records: 50, valueSize: 64, getFrac: 0.5, scanFrac: 0.5,
		opts: iamdb.Options{MemtableSize: 4 << 10, CacheSize: 64 << 10}}
	b := newBench(w, 1, t.TempDir())
	s, _, err := b.setup(false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()

	const victim = 7
	c := b.newClient(s.db, 0, false)
	c.get(victim)
	c.scan(victim, 3)
	if c.failed != 0 {
		t.Fatalf("intact DB: %d failures: %v", c.failed, c.errs)
	}
	bad := b.vals.appendValue(nil, victim, 1)
	bad[len(bad)-1] ^= 0x01
	if err := s.db.Put(ycsb.KeyName(victim), bad); err != nil {
		t.Fatal(err)
	}
	c.get(victim)
	if c.failed != 1 {
		t.Errorf("Get of the corrupted value: %d failures, want 1", c.failed)
	}
	c.scan(victim, 3)
	if c.failed != 2 {
		t.Errorf("scan over the corrupted value: %d failures, want 2", c.failed)
	}
	if _, failed, _ := b.verify(s.db); failed == 0 {
		t.Error("verification missed the corrupted value")
	}
}

// TestRunsReportDeclaredMetrics runs a small workload untraced and
// traced and demands that each reports exactly the metrics
// BENCHMARK.json declares, correctly, with the traced run's device
// bytes reconciled against Metrics().IO and no span dropped.
func TestRunsReportDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the code %q", i, w.Name, workloads[i].name)
		}
	}

	w := workload{name: "test", clients: 2, records: 200, valueSize: 256, getFrac: 0.5,
		zipf: true, proves: func(*phase) error { return nil },
		opts: iamdb.Options{MemtableSize: 16 << 10, CacheSize: 64 << 10, ValueThreshold: 128}}
	for _, tc := range []struct {
		run  func(*bench, time.Duration) (*result, error)
		want []struct{ Name, Unit string }
	}{
		{(*bench).runUntraced, decl.EndToEnd},
		{(*bench).runTraced, decl.PerLayer},
	} {
		res, err := tc.run(newBench(w, 3, t.TempDir()), 300*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("run not correct: %+v", res)
		}
		if len(res.Metrics) != len(tc.want) {
			t.Errorf("run reports %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("metric %s: got %+v, declared unit %s", m.Name, got, m.Unit)
			}
		}
	}
}
