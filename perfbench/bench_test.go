package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"dropback"
)

const testSeed = 7

// trainEHash runs the workload's TrainE configuration once.
func trainEHash(t *testing.T, in trainInputs, mode trainMode) uint64 {
	t.Helper()
	run, err := trainOnce(in, in.config(mode))
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	checkTraining(rep, mode.String(), run.res, len(run.epochs))
	if rep.failed > 0 {
		t.Fatalf("%v TrainE run failed its checks: %v", mode, rep.problems)
	}
	return run.hash
}

// TestTracedLoopMatchesTrainE: the loop the traced run rebuilds from the
// modules' public calls is the same program as TrainE — it ends on the same
// parameters, bit for bit, on train-dense and train-sparse.
func TestTracedLoopMatchesTrainE(t *testing.T) {
	in := makeTrainInputs(testSeed)
	for _, mode := range []trainMode{modeDense, modeSparse} {
		want := trainEHash(t, in, mode)
		tr := newTracer()
		m, st, err := rebuiltLoop(in, mode, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := paramHash(m); got != want {
			t.Errorf("%v: traced loop hash %016x, TrainE %016x", mode, got, want)
		}
		if tr.count() == 0 || st.steps[0] != liveEpochs*in.stepsPerEpoch() || st.steps[1] != frozenEpochs*in.stepsPerEpoch() {
			t.Errorf("%v: %d spans, %v live/frozen steps", mode, tr.count(), st.steps)
		}
	}
}

// TestWorkloadsEndOnDenseHash: at workload scale, train-sparse and both
// nodes of train-dist2 end with train-dense's parameters for the same seed.
func TestWorkloadsEndOnDenseHash(t *testing.T) {
	in := makeTrainInputs(testSeed)
	dense := trainEHash(t, in, modeDense)
	if sparse := trainEHash(t, in, modeSparse); sparse != dense {
		t.Errorf("train-sparse hash %016x, train-dense %016x", sparse, dense)
	}
	nodes, err := distOnce(in, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	checkDist(rep, "train-dist2", nodes, dropback.MNIST100100(in.modelSeed).Set.Total(), in.stepsPerEpoch())
	if rep.failed > 0 {
		t.Errorf("train-dist2 failed its checks: %v", rep.problems)
	}
	for r, n := range nodes {
		if n.run.hash != dense {
			t.Errorf("train-dist2 node %d hash %016x, train-dense %016x", r, n.run.hash, dense)
		}
	}
}

// TestBenchmarkJSONDeclaresEveryMetric: BENCHMARK.json at the repository
// root names exactly the workloads and metrics this program reports, with
// the same units.
func TestBenchmarkJSONDeclaresEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
		}
	}
	for _, tab := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		reported []struct{ name, unit string }
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tab.declared) != len(tab.reported) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", tab.what, len(tab.declared), len(tab.reported))
			continue
		}
		for i, d := range tab.declared {
			if r := tab.reported[i]; d.Name != r.name || d.Unit != r.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", tab.what, i, d.Name, d.Unit, r.name, r.unit)
			}
		}
	}
}
