package main

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// tiny is the reduced size the tests run every workload at.
var tiny = size{
	setups: 2, speedSample: 5 * time.Millisecond,
	t4Generations: 2, t4Rounds: 20, t4Reps: 1,
	daemonGenerations: 2, daemonRounds: 10, daemonJobsPerClient: minJobsPerClient,
	hofJobsPerSubmitter: 1, hofGenerations: 20,
}

// TestWorkloadsEmitDeclaredMetrics runs every workload untraced and traced
// at the reduced size and checks that each emits exactly the metrics
// BENCHMARK.json declares for its mode, with their units, and that every
// correctness check of the workload ran and passed.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json declares workloads %v, the benchmark runs %v", names, ours)
	}
	declared := [2]map[string]string{{}, {}}
	for _, m := range spec.EndToEnd {
		declared[0][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		declared[1][m.Name] = m.Unit
	}

	for _, w := range workloads {
		for trace, want := range declared {
			c := runConfig{seed: 7, budget: 200 * time.Millisecond, trace: trace == 1, size: tiny}
			rec, err := runOne(t.Context(), w, c, t.TempDir())
			if err != nil {
				t.Errorf("%s trace=%d: %v", w.name, trace, err)
				continue
			}
			got := map[string]string{}
			for name, v := range rec.Metrics {
				got[name] = v.Unit
			}
			for name, unit := range want {
				if got[name] != unit {
					t.Errorf("%s trace=%d: metric %s has unit %q, BENCHMARK.json declares %q", w.name, trace, name, got[name], unit)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%d: emits %s, which BENCHMARK.json does not declare", w.name, trace, name)
				}
			}
			expected := w.checks
			if trace == 1 {
				expected = w.tracedChecks
			}
			for _, check := range expected {
				if rec.Checks[check] == 0 {
					t.Errorf("%s trace=%d: check %s never ran", w.name, trace, check)
				}
			}
			if !rec.Correct || rec.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%t attempted=%d failed=%d problems %v", w.name, trace, rec.Correct, rec.Attempted, rec.Failed, rec.Problems)
			}
		}
	}
}

// TestDaemonKeepsServiceWALMetrics guards the measured daemon: the
// service must still own the file store's fsync hook and expose the WAL
// families, which a benchmark wrapping the store or replacing the hook
// would silently take away.
func TestDaemonKeepsServiceWALMetrics(t *testing.T) {
	hc := newHTTPClient()
	d, err := startDaemon(t.Context(), t.TempDir(), hc)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	cl := daemonClient{hc: hc, base: d.base, rnd: rand.New(rand.NewPCG(1, 2))}
	if _, ok := cl.runJob(t.Context(), nextJob(cl.rnd, tiny, 0, 0), tiny); !ok {
		t.Fatalf("job failed: %v", cl.problems)
	}
	body, err := get(t.Context(), hc, d.base+"/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fam := parseExposition(body)
	if fam["adhocd_wal_fsync_seconds_count"] < 1 {
		t.Errorf("adhocd_wal_fsync_seconds observed no fsync after a job: %v", fam["adhocd_wal_fsync_seconds_count"])
	}
	if fam["adhocd_wal_appends_total"] < 1 {
		t.Errorf("adhocd_wal_appends_total = %v after a job", fam["adhocd_wal_appends_total"])
	}
}
