package main

import (
	"fmt"
	"strconv"

	"mlaasbench/internal/client"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/synth"
)

// Workload names, in the order a full run interleaves them.
const (
	wSweep  = "sweep_quick"
	wDense  = "serve_dense"
	wTrees  = "serve_trees"
	wRouted = "serve_small_routed"
	wChurn  = "serve_churn"
)

var workloadNames = []string{wSweep, wDense, wTrees, wRouted, wChurn}

// workloadWhy is the one-line reason each workload exists; BENCHMARK.json and
// the README repeat it.
var workloadWhy = map[string]string{
	wSweep:  "the paper's own campaign: fit-dominated sweep of every platform over corpus datasets, no HTTP; shows work moved from predict into fit",
	wDense:  "256-row binary predicts on dense-math models (mlp, knn, linear family): linalg kernels, wire decode and allocation dominate, tree code idle",
	wTrees:  "256-row binary predicts on tree ensembles: pointer-chasing traversal dominates, linalg idle; bypass for kernel work, target for compiled trees",
	wRouted: "1-row JSON predicts through the router over two admission-gated replicas: per-request overhead is the whole request, forward pass is noise",
	wChurn:  "32-row predicts over 32 models through an 8-model LRU with a disk tier, one op in 12 a train on a fresh seed: RAM hit vs disk rehit vs refit, writes beside reads",
}

const (
	batchesPerWorkload = 8
	// seedMask keeps model seeds exactly representable in a JSON number.
	seedMask = 1<<52 - 1
	// definitionSeed roots what belongs to a workload's definition rather
	// than to one run of it: the training data and the resident models'
	// training seeds. The cost of a forward pass follows the fitted model —
	// a forest's depth moved its predict time 2.4x across ten generated
	// datasets — so a run seed that refitted different models would measure
	// the draw, not the code.
	definitionSeed = synth.CorpusSeed
)

// modelSpec describes one model the way a user of the web API would: a
// platform, a classifier off its surface and overrides on its defaults.
type modelSpec struct {
	Platform   string
	Classifier string // the family its forward pass runs; "" on the black-box platforms, which hide it
	Feat       string // pipeline.Feat syntax, "" for none
	Params     map[string]any
	Seed       uint64
	// Weight is the model's relative draw frequency in the op stream.
	Weight int
}

func (m modelSpec) String() string {
	s := m.Platform + "/" + m.Classifier
	if m.Classifier == "" {
		s = m.Platform + "/auto"
	}
	if m.Feat != "" {
		s += "+" + m.Feat
	}
	return s + "#" + strconv.FormatUint(m.Seed, 10)
}

// config resolves the spec against the platform surface exactly as the
// service's train handler does, so the in-process oracle fits the model the
// server fits.
func (m modelSpec) config(p platforms.Platform) (pipeline.Config, error) {
	if m.Classifier == "" {
		return pipeline.Config{}, nil
	}
	cfg, err := p.Surface().DefaultConfig(m.Classifier)
	if err != nil {
		return pipeline.Config{}, err
	}
	if m.Feat != "" {
		f, err := pipeline.ParseFeat(m.Feat)
		if err != nil {
			return pipeline.Config{}, err
		}
		cfg.Feat = f
	}
	for k, v := range m.Params {
		if _, ok := cfg.Params[k]; !ok {
			return pipeline.Config{}, fmt.Errorf("%s: parameter %q not on the %s surface", m, k, m.Platform)
		}
		cfg.Params[k] = v
	}
	return cfg, nil
}

// servePlan is everything a serve workload fixes before any server exists:
// the training data, the resident models, the query batches and the op mix.
type servePlan struct {
	Name      string
	Train     *dataset.Dataset
	Models    []modelSpec
	Batches   [][][]float64 // batchesPerWorkload × BatchRows × d
	BatchRows int
	Codec     client.Codec
	// Routed puts a cluster.Router over two admission-gated replicas.
	Routed bool
	// CacheModels bounds the server's model LRU (0 = service default) and
	// Store attaches the disk tier beneath it.
	CacheModels int
	Store       bool
	// Every TrainEvery-th op of a client is a Train on a fresh seed instead
	// of a predict, rotating through Churn's templates (0 = never).
	TrainEvery int
	Churn      []modelSpec
}

func serveSpec(name string, gen synth.Generator, n, d int) synth.Spec {
	return synth.Spec{Name: "bench-" + name, Gen: gen, N: n, D: d, Imbalance: 0.5}
}

// buildServePlan derives a serve workload's inputs. The dataset and the
// models are the workload's definition; the seed picks the query batches
// here and every client's op sequence in newOpStream.
func buildServePlan(name string, seed uint64) (*servePlan, error) {
	root := rng.New(definitionSeed).Split("plan/" + name)
	p := &servePlan{Name: name, Codec: client.CodecBinary}
	var spec synth.Spec
	local := func(clf, feat string, weight int, params map[string]any) modelSpec {
		return modelSpec{Platform: "local", Classifier: clf, Feat: feat, Params: params, Weight: weight}
	}
	ms := func(clf string, params map[string]any) modelSpec {
		return modelSpec{Platform: "microsoft", Classifier: clf, Params: params, Weight: 2}
	}
	switch name {
	case wDense:
		spec = serveSpec("clusters", synth.GenClusters, 2000, 32)
		p.BatchRows = 256
		const scaler = "scaler:standard"
		// kNN costs ~30x the others per batch; at half their draw rate it
		// stays under half the busy time and its 1/15 share of ops puts
		// p95 inside the kNN mode rather than on its edge. The MLP's
		// forward pass does not depend on how long it trained, so eight
		// epochs keep its fit out of the set-up time.
		p.Models = []modelSpec{
			local("mlp", scaler, 2, map[string]any{"max_iter": 8}), local("knn", scaler, 1, nil),
			local("logreg", scaler, 2, nil), local("svm", scaler, 2, nil),
			local("lda", "", 2, nil), local("naivebayes", "", 2, nil),
			ms("perceptron", nil), ms("bpm", nil),
		}
	case wTrees:
		spec = serveSpec("clusters", synth.GenClusters, 2000, 32)
		p.BatchRows = 256
		p.Models = []modelSpec{
			local("randomforest", "", 2, map[string]any{"n_estimators": 100}),
			local("bagging", "", 2, map[string]any{"n_estimators": 100}),
			local("boosted", "", 2, map[string]any{"n_estimators": 150}),
			local("dtree", "", 2, nil),
			ms("boosted", map[string]any{"n_estimators": 100}),
			ms("jungle", map[string]any{"n_dags": 32}),
		}
	case wRouted:
		spec = serveSpec("linear", synth.GenLinear, 2000, 16)
		p.BatchRows = 1
		p.Codec = client.CodecJSON
		p.Routed = true
		for _, plat := range platforms.Names() {
			pl, err := platforms.New(plat)
			if err != nil {
				return nil, err
			}
			// Four models per platform: the first four classifiers of the
			// surface, or four seeds of the only (or hidden) one.
			clfs := pl.Surface().Classifiers
			for i := 0; i < 4; i++ {
				m := modelSpec{Platform: plat, Weight: 1}
				if len(clfs) > 0 {
					m.Classifier = clfs[i%len(clfs)].Name
				}
				p.Models = append(p.Models, m)
			}
		}
	case wChurn:
		spec = serveSpec("moons", synth.GenMoons, 1500, 16)
		p.BatchRows = 32
		p.CacheModels = 8
		p.Store = true
		// One op in 12, on a fixed cadence rather than by coin flip, so the
		// share of slow ops is the same in every window. The slowest 5 % of
		// ops are then the forest and logreg fits and the upper part of the
		// dtree fits: p95 sits inside the dtree-fit mode. At one op in 20 it
		// sat on the edge between the predicts and the trains and moved
		// 10–13 % from run to run.
		p.TrainEvery = 12
		p.Churn = []modelSpec{
			local("logreg", "", 1, nil), local("dtree", "", 1, nil),
			local("randomforest", "", 1, nil), local("knn", "", 1, nil),
		}
		for i := 0; i < 8; i++ {
			p.Models = append(p.Models, p.Churn...)
		}
	default:
		return nil, fmt.Errorf("unknown serve workload %q", name)
	}
	for i := range p.Models {
		p.Models[i].Seed = root.Split("model/"+strconv.Itoa(i)).Uint64() & seedMask
	}

	ds := synth.GenerateClean(spec, synth.Full, definitionSeed)
	sp := ds.StratifiedSplit(0.8, root.Split("split"))
	p.Train = sp.Train
	br := rng.New(seed).Split("batches/" + name)
	p.Batches = make([][][]float64, batchesPerWorkload)
	for b := range p.Batches {
		rows := make([][]float64, p.BatchRows)
		for i := range rows {
			rows[i] = sp.Test.X[br.Intn(sp.Test.N())]
		}
		p.Batches[b] = rows
	}
	return p, nil
}

// Op kinds.
const (
	opPredict = iota
	opTrain
)

// op is one client request: a predict of Batches[Batch] on Models[Model], or
// a train of Churn[Model] on Seed.
type op struct {
	Kind  int
	Model int
	Batch int
	Seed  uint64
}

// opStream is one closed-loop client's op sequence, a pure function of the
// run seed and the client index. next does not allocate.
type opStream struct {
	r     *rng.RNG
	plan  *servePlan
	total int
	n     int // ops drawn so far
}

func newOpStream(p *servePlan, seed uint64, clientIdx int) *opStream {
	s := &opStream{r: rng.New(seed).Split("client/" + strconv.Itoa(clientIdx)), plan: p}
	for _, m := range p.Models {
		s.total += m.Weight
	}
	return s
}

func (s *opStream) next() op {
	s.n++
	if every := s.plan.TrainEvery; every > 0 && s.n%every == 0 {
		return op{Kind: opTrain, Model: s.n / every % len(s.plan.Churn), Seed: s.r.Uint64() & seedMask}
	}
	pick := s.r.Intn(s.total)
	model := 0
	for pick >= s.plan.Models[model].Weight {
		pick -= s.plan.Models[model].Weight
		model++
	}
	return op{Kind: opPredict, Model: model, Batch: s.r.Intn(batchesPerWorkload)}
}
