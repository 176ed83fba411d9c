package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"mlaasbench/internal/client"
	"mlaasbench/internal/cluster"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/service"
	"mlaasbench/internal/store"
	"mlaasbench/internal/telemetry"
	"mlaasbench/internal/wire"
)

// clients is the closed-loop width: every caller waits for its reply before
// sending the next request, as the paper's measurement scripts did. Generator
// and servers share the machine, so more callers than cores would measure
// the scheduler.
func clients() int { return min(runtime.NumCPU(), 4) }

// timing is one timed set-up call, tagged with what it fitted or sent.
type timing struct {
	Platform string
	Family   string
	FeatKind string
	Ms       float64
	FeatMs   float64 // the FEAT fit alone, traced runs only
}

// trained is a model a churn Train op created during the run.
type trained struct {
	tmpl int
	seed uint64
	id   string
}

// serveFixture is a running serve workload: servers, client, the ids the
// servers gave the plan's models, and the oracle's expected labels.
type serveFixture struct {
	plan    *servePlan
	svcs    []*service.Server
	router  *cluster.Router
	servers []*httptest.Server
	cl      *client.Client
	clReg   *telemetry.Registry
	dsID    map[string]string
	ids     []string
	expect  [][][]int         // model × batch → labels
	churn   []pipeline.Config // plan.Churn resolved, for Train ops
	rec     *recorder         // nil on untraced runs

	// Kept on traced runs only: a resident second copy of every model would
	// grow the heap the servers' GC paces itself by.
	oracle   []platforms.FittedModel
	feats    []*pipeline.FittedTransform
	payloads [][]byte // batch → encoded request body

	storeDir string
	setupS   float64
	uploads  []timing
	trains   []timing
	fits     []timing
}

func (f *serveFixture) close() {
	for _, s := range f.servers {
		s.Close()
	}
	if f.storeDir != "" {
		_ = os.RemoveAll(f.storeDir) // scratch artifacts; nothing to report if it fails
	}
}

func quiet(string, ...any) {}

// startServe builds a serve workload's plan from its seed and sets it up.
// Set-up time is what a user of the API would wait for: generating the data,
// starting the servers, uploading, training every model and one checked
// predict per model.
func startServe(ctx context.Context, name string, seed uint64, rec *recorder, workDir string) (*serveFixture, error) {
	start := time.Now()
	plan, err := buildServePlan(name, seed)
	if err != nil {
		return nil, err
	}
	planS := time.Since(start).Seconds()
	f, err := newServeFixture(ctx, plan, rec, workDir)
	if err != nil {
		return nil, err
	}
	f.setupS += planS
	return f, nil
}

// newServeFixture sets a plan up and times it. The oracle's own in-process
// fits run between the trains and the checked predicts and are left out of
// the set-up time.
func newServeFixture(ctx context.Context, plan *servePlan, rec *recorder, workDir string) (_ *serveFixture, err error) {
	start := time.Now()
	f := &serveFixture{plan: plan, rec: rec, dsID: map[string]string{}}
	defer func() {
		if err != nil {
			f.close()
		}
	}()

	serve := func(spanName string, h http.Handler) string {
		if rec != nil {
			h = tracedHandler(rec, spanName, h)
		}
		s := httptest.NewServer(h)
		f.servers = append(f.servers, s)
		return s.URL
	}
	newReplica := func() *service.Server {
		s := service.NewServer(quiet).WithRegistry(telemetry.NewRegistry())
		f.svcs = append(f.svcs, s)
		return s
	}
	var base string
	switch {
	case plan.Routed:
		var urls []string
		for i := 0; i < 2; i++ {
			// The gate's fast path runs on every request and never sheds
			// under a closed loop this narrow.
			s := newReplica().WithAdmission(4*runtime.NumCPU(), service.DefaultAdmissionQueue)
			urls = append(urls, serve(spanHandler, s.Handler()))
		}
		if f.router, err = cluster.NewRouter(urls); err != nil {
			return nil, err
		}
		base = serve(spanRouter, f.router.Handler())
	default:
		s := newReplica()
		if plan.CacheModels > 0 {
			s.WithModelCache(plan.CacheModels)
		}
		if plan.Store {
			if f.storeDir, err = os.MkdirTemp(workDir, "store-"); err != nil {
				return nil, err
			}
			st, err := store.Open(f.storeDir)
			if err != nil {
				return nil, err
			}
			s.WithStore(st)
			if _, err := s.WarmFromStore(); err != nil {
				return nil, err
			}
		}
		base = serve(spanHandler, s.Handler())
	}

	f.clReg = telemetry.NewRegistry()
	f.cl = client.New(base).WithCodec(plan.Codec)
	f.cl.Telemetry = f.clReg
	if rec != nil {
		f.cl.WithTransport(tracedTransport{rec: rec, next: client.NewTransport()})
	}

	plats := map[string]platforms.Platform{}
	cfgs := make([]pipeline.Config, len(plan.Models))
	f.ids = make([]string, len(plan.Models))
	for i, m := range plan.Models {
		p := plats[m.Platform]
		if p == nil {
			if p, err = platforms.New(m.Platform); err != nil {
				return nil, err
			}
			plats[m.Platform] = p
			t := time.Now()
			if f.dsID[m.Platform], err = f.cl.Upload(ctx, m.Platform, plan.Train); err != nil {
				return nil, fmt.Errorf("upload to %s: %w", m.Platform, err)
			}
			f.uploads = append(f.uploads, timing{Platform: m.Platform, Ms: msSince(t)})
		}
		if cfgs[i], err = m.config(p); err != nil {
			return nil, err
		}
		t := time.Now()
		if f.ids[i], err = f.cl.Train(ctx, m.Platform, f.dsID[m.Platform], cfgs[i], m.Seed); err != nil {
			return nil, fmt.Errorf("train %s: %w", m, err)
		}
		f.trains = append(f.trains, timing{Platform: m.Platform, Family: m.Classifier, Ms: msSince(t)})
	}
	userWait := time.Since(start)
	for _, m := range plan.Churn {
		cfg, err := m.config(plats[m.Platform])
		if err != nil {
			return nil, err
		}
		f.churn = append(f.churn, cfg)
	}

	f.expect = make([][][]int, len(plan.Models))
	for i, m := range plan.Models {
		fit := timing{Platform: m.Platform, Family: m.Classifier, FeatKind: cfgs[i].Feat.Kind}
		var ft *pipeline.FittedTransform
		if rec != nil && m.Feat != "" {
			t := time.Now()
			if ft, _, err = pipeline.FitFeat(cfgs[i].Feat, plan.Train); err != nil {
				return nil, err
			}
			fit.FeatMs = msSince(t)
		}
		t := time.Now()
		fm, err := plats[m.Platform].Fit(cfgs[i], plan.Train, m.Seed)
		if err != nil {
			return nil, fmt.Errorf("oracle fit %s: %w", m, err)
		}
		fit.Ms = msSince(t)
		f.fits = append(f.fits, fit)
		f.expect[i] = make([][]int, len(plan.Batches))
		for b, rows := range plan.Batches {
			f.expect[i][b] = fm.Predict(rows)
		}
		if rec != nil {
			f.oracle = append(f.oracle, fm)
			f.feats = append(f.feats, ft)
		}
	}
	if rec != nil {
		for _, rows := range plan.Batches {
			f.payloads = append(f.payloads, encodeRequest(plan.Codec, rows))
		}
	}

	start = time.Now()
	for i, m := range plan.Models {
		got, err := f.cl.Predict(ctx, m.Platform, f.ids[i], plan.Batches[0])
		if err != nil {
			return nil, fmt.Errorf("warm-up predict %s: %w", m, err)
		}
		if !slices.Equal(got, f.expect[i][0]) {
			return nil, fmt.Errorf("warm-up predict %s: labels differ from the in-process fit", m)
		}
	}
	f.setupS = (userWait + time.Since(start)).Seconds()
	return f, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

func encodeRequest(codec client.Codec, rows [][]float64) []byte {
	if codec == client.CodecBinary {
		return wire.EncodeMatrixStream(nil, rows, 0)
	}
	b, err := json.Marshal(service.PredictRequest{Instances: rows})
	if err != nil {
		panic(err) // finite floats always marshal
	}
	return b
}

// caller is one closed-loop client's state, allocated before the window so
// the loop itself adds nothing to the heap.
type caller struct {
	stream  *opStream
	h       *hist
	ok      int64
	failed  int64
	busy    time.Duration // Σ op latency, successful or not
	trained []trained     // ring of the newest churn trains
	nTrain  int
}

func (f *serveFixture) newCallers(seed uint64, n int) []*caller {
	cs := make([]*caller, n)
	for i := range cs {
		cs[i] = &caller{stream: newOpStream(f.plan, seed, i), trained: make([]trained, 64)}
	}
	return cs
}

// phase is the outcome of one timed stretch of closed-loop load.
type phase struct {
	ok, failed    int64
	h             *hist
	busy          time.Duration
	before, after usage
}

// run drives every caller for d and returns what they did. Ops in flight at
// the deadline finish; the wall time runs to the last reply.
func (f *serveFixture) run(ctx context.Context, cs []*caller, d time.Duration) phase {
	for _, c := range cs {
		c.h, c.ok, c.failed, c.busy = newHist(), 0, 0, 0
	}
	runtime.GC()
	p := phase{h: newHist(), before: readUsage()}
	deadline := p.before.at.Add(d)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				f.do(ctx, c, c.stream.next())
			}
		}(c)
	}
	wg.Wait()
	p.after = readUsage()
	for _, c := range cs {
		p.ok += c.ok
		p.failed += c.failed
		p.busy += c.busy
		p.h.merge(c.h)
	}
	return p
}

// do issues one op and checks it. A predict must return the oracle's labels;
// a train must return a model id, and a sample of the trained models is
// checked against the oracle after the window (checkTrained).
func (f *serveFixture) do(ctx context.Context, c *caller, o op) {
	if o.Kind == opTrain {
		m := f.plan.Churn[o.Model]
		t := time.Now()
		id, err := f.cl.Train(ctx, m.Platform, f.dsID[m.Platform], f.churn[o.Model], o.Seed)
		d := time.Since(t)
		c.busy += d
		if err != nil || id == "" {
			c.failed++
			return
		}
		c.trained[c.nTrain%len(c.trained)] = trained{tmpl: o.Model, seed: o.Seed, id: id}
		c.nTrain++
		c.ok++
		c.h.record(d)
		return
	}
	m := f.plan.Models[o.Model]
	rows := f.plan.Batches[o.Batch]
	opSpan := -1
	if f.rec != nil {
		f.rec.nextOp()
		opSpan = f.rec.start(spanOp, m.Classifier, 0)
	}
	t := time.Now()
	got, err := f.cl.Predict(ctx, m.Platform, f.ids[o.Model], rows)
	d := time.Since(t)
	if f.rec != nil {
		f.rec.end(opSpan)
	}
	c.busy += d
	if err != nil || !slices.Equal(got, f.expect[o.Model][o.Batch]) {
		c.failed++
		return
	}
	c.ok++
	c.h.record(d)
	if opSpan >= 0 {
		f.replay(opSpan, o)
	}
}

// replay repeats, outside the request, the work the client and the handler
// did inside it — encode, decode, forward pass, encode, decode — on the same
// bytes, and records each as a replayed child of the span that contained it.
func (f *serveFixture) replay(opSpan int, o op) {
	rec, codec := f.rec, f.plan.Codec
	m := f.plan.Models[o.Model]
	rows := f.plan.Batches[o.Batch]
	payload := f.payloads[o.Batch]
	tag := string(codec)
	handler := rec.lastNamed(spanHandler)

	rec.replay(opSpan, spanEncodeReq, tag, len(rows), func() { encodeRequest(codec, rows) })
	rec.replay(handler, spanDecodeReq, tag, len(rows), func() {
		if codec == client.CodecBinary {
			_, _ = wire.DecodeMatrixStream(bytes.NewReader(payload))
		} else {
			var req service.PredictRequest
			_ = json.Unmarshal(payload, &req)
		}
	})
	var labels []int
	pred := rec.replay(handler, spanPredict, m.Classifier, len(rows), func() { labels = f.oracle[o.Model].Predict(rows) })
	if ft := f.feats[o.Model]; ft != nil {
		rec.replay(pred, spanFeatApply, ft.Feat().Kind, len(rows), func() { ft.Apply(rows) })
	}
	var body []byte
	rec.replay(handler, spanEncodeResp, tag, len(rows), func() {
		if codec == client.CodecBinary {
			body = wire.AppendLabelsFrame(nil, labels, wire.FlagLast)
		} else {
			body, _ = json.Marshal(service.PredictResponse{Labels: labels})
		}
	})
	rec.replay(opSpan, spanDecodeResp, tag, len(rows), func() {
		if codec == client.CodecBinary {
			_, _ = wire.DecodeLabelsStream(bytes.NewReader(body))
		} else {
			var resp service.PredictResponse
			_ = json.Unmarshal(body, &resp)
		}
	})
}

// checkTrained fits a seeded sample of the models the run's Train ops
// created in-process and compares the server's labels for them. It returns
// how many it checked and how many differed.
func (f *serveFixture) checkTrained(ctx context.Context, cs []*caller, seed uint64, sample int) (checked, failed int64) {
	var all []trained
	for _, c := range cs {
		all = append(all, c.trained[:min(c.nTrain, len(c.trained))]...)
	}
	if len(all) == 0 {
		return 0, 0
	}
	r := rng.New(seed).Split("check-trained")
	for i := 0; i < sample; i++ {
		tr := all[r.Intn(len(all))]
		m := f.plan.Churn[tr.tmpl]
		checked++
		p, err := platforms.New(m.Platform)
		if err != nil {
			failed++
			continue
		}
		fm, err := p.Fit(f.churn[tr.tmpl], f.plan.Train, tr.seed)
		if err != nil {
			failed++
			continue
		}
		got, err := f.cl.Predict(ctx, m.Platform, tr.id, f.plan.Batches[0])
		if err != nil || !slices.Equal(got, fm.Predict(f.plan.Batches[0])) {
			failed++
		}
	}
	return checked, failed
}

// flipOneLabel corrupts one expected label, for the self-test that proves
// the comparison is live.
func (f *serveFixture) flipOneLabel() { f.expect[0][0][0] ^= 1 }
