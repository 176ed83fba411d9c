package main

import (
	"fmt"
	"reflect"
	"testing"
)

var serveWorkloads = []string{wDense, wTrees, wRouted, wChurn}

// fingerprint is everything of a plan the program under test gets to see.
func fingerprint(t *testing.T, name string, seed uint64) (models []string, batches [][][]float64, ops [][]op) {
	t.Helper()
	p, err := buildServePlan(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range p.Models {
		models = append(models, fmt.Sprintf("%s w=%d %v", m, m.Weight, m.Params))
	}
	for c := 0; c < 2; c++ {
		s := newOpStream(p, seed, c)
		var seq []op
		for i := 0; i < 1000; i++ {
			seq = append(seq, s.next())
		}
		ops = append(ops, seq)
	}
	return models, p.Batches, ops
}

// The same seed must give the same inputs: model list, query batches and each
// client's first 1 000 ops. Another seed must change the batches and the ops
// but not the models, which are the workload's definition: their fitted
// shape sets what a forward pass costs.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range serveWorkloads {
		m1, b1, o1 := fingerprint(t, name, 11)
		m2, b2, o2 := fingerprint(t, name, 11)
		if !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(o1, o2) {
			t.Errorf("%s: two plans from seed 11 differ", name)
		}
		m3, b3, o3 := fingerprint(t, name, 12)
		if !reflect.DeepEqual(m1, m3) {
			t.Errorf("%s: seeds 11 and 12 train different models", name)
		}
		if reflect.DeepEqual(b1, b3) {
			t.Errorf("%s: seeds 11 and 12 query the same batches", name)
		}
		if reflect.DeepEqual(o1, o3) {
			t.Errorf("%s: seeds 11 and 12 issue the same ops", name)
		}
		if reflect.DeepEqual(o1[0], o1[1]) {
			t.Errorf("%s: clients 0 and 1 issue the same ops", name)
		}
	}
}

// The workload definitions the README states.
func TestPlanShapes(t *testing.T) {
	want := map[string]struct{ models, rows, cols int }{
		wDense:  {8, 256, 32},
		wTrees:  {6, 256, 32},
		wRouted: {28, 1, 16},
		wChurn:  {32, 32, 16},
	}
	for name, w := range want {
		p, err := buildServePlan(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Models) != w.models || p.BatchRows != w.rows || p.Train.D() != w.cols {
			t.Errorf("%s: %d models, %d-row batches, %d features; want %d, %d, %d",
				name, len(p.Models), p.BatchRows, p.Train.D(), w.models, w.rows, w.cols)
		}
		if len(p.Batches) != batchesPerWorkload || len(p.Batches[0]) != w.rows {
			t.Errorf("%s: %d batches of %d rows", name, len(p.Batches), len(p.Batches[0]))
		}
	}

	// The churn mix: exactly one op in 12 trains, the four templates in
	// rotation, and the rest predict over all models.
	p, _ := buildServePlan(wChurn, 1)
	s := newOpStream(p, 1, 0)
	trains, seen := map[int]int{}, map[int]bool{}
	for i := 0; i < 12*400; i++ {
		if o := s.next(); o.Kind == opTrain {
			trains[o.Model]++
		} else {
			seen[o.Model] = true
		}
	}
	for tmpl := range p.Churn {
		if trains[tmpl] != 100 {
			t.Errorf("churn: template %d trained %d times in 4800 ops, want 100", tmpl, trains[tmpl])
		}
	}
	if len(seen) != len(p.Models) {
		t.Errorf("churn: predicts reached %d of %d models", len(seen), len(p.Models))
	}
}

// Every sweep sample must come out the same for the same seed too.
func TestSampleRefsDeterministic(t *testing.T) {
	refs := make([]measurementRef, 100)
	for i := range refs {
		refs[i] = measurementRef{platform: "p", dataset: i % 3, idx: i}
	}
	a, b := sampleRefs(refs, 5, "oracle", 16), sampleRefs(refs, 5, "oracle", 16)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed drew different samples")
	}
	if c := sampleRefs(refs, 6, "oracle", 16); reflect.DeepEqual(a, c) {
		t.Error("different seeds drew the same sample")
	}
}
