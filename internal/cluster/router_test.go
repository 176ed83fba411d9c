package cluster_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlaasbench/internal/client"
	"mlaasbench/internal/cluster"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/service"
	"mlaasbench/internal/store"
	"mlaasbench/internal/synth"
	"mlaasbench/internal/telemetry"
)

func clusterSplit(t *testing.T) dataset.Split {
	t.Helper()
	ds := synth.GenerateClean(synth.Spec{Name: "cluster", Gen: synth.GenLinear, N: 120, D: 4, Noise: 0.2}, synth.Quick, 1)
	return ds.StratifiedSplit(0.7, rng.New(2))
}

// newFleet starts n in-process replicas and a router over them,
// returning the router's test server and the replica servers (index ==
// ring position is not guaranteed; match by URL).
func newFleet(t *testing.T, n, replication int) (*httptest.Server, *cluster.Router, []*httptest.Server) {
	t.Helper()
	reps, _ := newReplicas(t, n)
	front, rt := newFront(t, reps, replication)
	return front, rt, reps
}

// newReplicas starts n in-process replicas, each recording into its own
// registry.
func newReplicas(t *testing.T, n int) ([]*httptest.Server, []*telemetry.Registry) {
	t.Helper()
	var reps []*httptest.Server
	var regs []*telemetry.Registry
	for i := 0; i < n; i++ {
		reg := telemetry.NewRegistry()
		srv := httptest.NewServer(service.NewServer(func(string, ...any) {}).WithRegistry(reg).Handler())
		t.Cleanup(srv.Close)
		reps = append(reps, srv)
		regs = append(regs, reg)
	}
	return reps, regs
}

// newFront starts a router over reps and returns its test server.
func newFront(t *testing.T, reps []*httptest.Server, replication int) (*httptest.Server, *cluster.Router) {
	t.Helper()
	var urls []string
	for _, r := range reps {
		urls = append(urls, r.URL)
	}
	rt, err := cluster.NewRouter(urls, cluster.WithReplication(replication))
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return front, rt
}

// TestRouterBinaryPredictMatchesDirect drives the full public API through
// the router on the binary wire codec and checks the predictions are
// byte-identical to a single-process server: the ring decides where the
// deterministic computation runs, never what it computes.
func TestRouterBinaryPredictMatchesDirect(t *testing.T) {
	sp := clusterSplit(t)
	ctx := context.Background()
	cfg := pipeline.Config{Classifier: "logreg", Params: map[string]any{}}

	// Oracle: one plain server, no cluster.
	solo := httptest.NewServer(service.NewServer(func(string, ...any) {}).WithRegistry(telemetry.NewRegistry()).Handler())
	defer solo.Close()
	sc := client.New(solo.URL)
	dsID, err := sc.Upload(ctx, "local", sp.Train)
	if err != nil {
		t.Fatal(err)
	}
	mID, err := sc.Train(ctx, "local", dsID, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.Predict(ctx, "local", mID, sp.Test.X)
	if err != nil {
		t.Fatal(err)
	}

	front, rt, _ := newFleet(t, 3, 2)
	c := client.New(front.URL).WithCodec(client.CodecBinary)
	rdsID, err := c.Upload(ctx, "local", sp.Train)
	if err != nil {
		t.Fatal(err)
	}
	rmID, err := c.Train(ctx, "local", rdsID, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.PredictBatched(ctx, "local", rmID, sp.Test.X, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cluster predictions differ from single-process predictions")
	}
	// The hot path must have reached a replica through the router.
	if n := counterTotal(rt.Registry(), telemetry.RouterRequestsTotal); n == 0 {
		t.Fatal("router proxied no requests")
	}
}

// counterTotal sums a counter family across label sets.
func counterTotal(reg *telemetry.Registry, name string) int64 {
	var total int64
	for _, s := range reg.Snapshot().Counters {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// TestRouterFailoverKillOneOfThree is the acceptance failover drill:
// three replicas, a trained model replicated on two of them, one owner
// killed — every subsequent predict must still succeed, served by the
// surviving owner after the router fails over.
func TestRouterFailoverKillOneOfThree(t *testing.T) {
	sp := clusterSplit(t)
	ctx := context.Background()
	front, rt, reps := newFleet(t, 3, 2)
	byURL := map[string]*httptest.Server{}
	for _, r := range reps {
		byURL[r.URL] = r
	}

	c := client.New(front.URL).WithCodec(client.CodecBinary)
	dsID, err := c.Upload(ctx, "local", sp.Train)
	if err != nil {
		t.Fatal(err)
	}
	mID, err := c.Train(ctx, "local", dsID, pipeline.Config{Classifier: "logreg", Params: map[string]any{}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Predict(ctx, "local", mID, sp.Test.X)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the model's PRIMARY owner — the replica the router would route
	// to first — so every subsequent predict must fail over to the
	// surviving owner.
	owners := rt.ModelOwners("local", mID)
	if len(owners) != 2 {
		t.Fatalf("model owners %v, want 2", owners)
	}
	victim := owners[0]
	byURL[victim].CloseClientConnections()
	byURL[victim].Close()

	for i := 0; i < 50; i++ {
		got, err := c.Predict(ctx, "local", mID, sp.Test.X)
		if err != nil {
			t.Fatalf("predict %d with one replica down: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("predict %d: labels changed after failover", i)
		}
	}
	if n := counterTotal(rt.Registry(), telemetry.RouterFailoversTotal); n == 0 {
		t.Fatal("primary owner died but the failover counter never moved")
	}
	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h cluster.RouterHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.AvailableReplicas == 3 {
		t.Fatal("router still counts the killed replica available")
	}
}

// TestRouterLazyRepair proves a replica that missed a dataset and model
// (down at upload/train time) gets them replayed on first need: the
// healthy owner dies, the stale owner heals itself, and the predict
// still answers with identical labels.
func TestRouterLazyRepair(t *testing.T) {
	sp := clusterSplit(t)
	ctx := context.Background()

	// Replica B hides behind a gate that 503s everything until opened —
	// to the prober and router it is down, so uploads and trains miss it.
	apiA := service.NewServer(func(string, ...any) {}).WithRegistry(telemetry.NewRegistry())
	srvA := httptest.NewServer(apiA.Handler())
	defer srvA.Close()
	apiB := service.NewServer(func(string, ...any) {}).WithRegistry(telemetry.NewRegistry())
	var bOpen atomic.Bool
	srvB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !bOpen.Load() {
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		apiB.Handler().ServeHTTP(w, r)
	}))
	defer srvB.Close()

	rt, err := cluster.NewRouter([]string{srvA.URL, srvB.URL}, cluster.WithReplication(2))
	if err != nil {
		t.Fatal(err)
	}
	stop := rt.StartProber(50 * time.Millisecond)
	defer stop()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	waitAvailable(t, front.URL, 1)

	c := client.New(front.URL)
	dsID, err := c.Upload(ctx, "local", sp.Train)
	if err != nil {
		t.Fatal(err)
	}
	mID, err := c.Train(ctx, "local", dsID, pipeline.Config{Classifier: "logreg", Params: map[string]any{}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Predict(ctx, "local", mID, sp.Test.X)
	if err != nil {
		t.Fatal(err)
	}

	// B comes up; A dies. The only owner left never saw the dataset.
	bOpen.Store(true)
	waitAvailable(t, front.URL, 2)
	srvA.CloseClientConnections()
	srvA.Close()

	got, err := c.Predict(ctx, "local", mID, sp.Test.X)
	if err != nil {
		t.Fatalf("predict after repair: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("repaired replica served different labels")
	}
	if n := counterTotal(rt.Registry(), telemetry.RouterRepairsTotal); n < 2 {
		t.Fatalf("expected dataset+model repairs, counter %d", n)
	}
}

// TestRouterExcludesNotReadyReplica checks the readiness integration:
// a replica whose boot warm scan has not finished reports ready:false
// and stays out of rotation until WarmFromStore completes.
func TestRouterExcludesNotReadyReplica(t *testing.T) {
	readyAPI := service.NewServer(func(string, ...any) {}).WithRegistry(telemetry.NewRegistry())
	readySrv := httptest.NewServer(readyAPI.Handler())
	defer readySrv.Close()

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	warmAPI := service.NewServer(func(string, ...any) {}).WithRegistry(telemetry.NewRegistry()).WithStore(st)
	warmSrv := httptest.NewServer(warmAPI.Handler())
	defer warmSrv.Close()

	rt, err := cluster.NewRouter([]string{readySrv.URL, warmSrv.URL}, cluster.WithReplication(1))
	if err != nil {
		t.Fatal(err)
	}
	stop := rt.StartProber(30 * time.Millisecond)
	defer stop()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	waitAvailable(t, front.URL, 1) // warming replica excluded
	if _, err := warmAPI.WarmFromStore(); err != nil {
		t.Fatal(err)
	}
	waitAvailable(t, front.URL, 2) // readiness flip admits it
}

// TestRouterPredictPrefersIdleOwner checks the least-loaded order over a
// model's owners: while one owner is still serving predict A, predict B
// for the same model must go to the other, idle owner. Each replica's
// first predict reports its replica index and then holds until the gate
// opens, so "A in flight" is a fact of the test, not a timing guess.
func TestRouterPredictPrefersIdleOwner(t *testing.T) {
	sp := clusterSplit(t)
	ctx := context.Background()

	reps, _ := newReplicas(t, 2)
	gate := make(chan struct{})
	started := make(chan int, len(reps))
	for i, rep := range reps {
		inner := rep.Config.Handler
		var first atomic.Bool
		rep.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/predictions") && first.CompareAndSwap(false, true) {
				started <- i
				<-gate
			}
			inner.ServeHTTP(w, r)
		})
	}
	front, _ := newFront(t, reps, 2)
	// Registered after the servers, so it runs before they close: a
	// failed check must not leave a predict parked on the gate.
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)

	c := client.New(front.URL)
	dsID, err := c.Upload(ctx, "local", sp.Train)
	if err != nil {
		t.Fatal(err)
	}
	mID, err := c.Train(ctx, "local", dsID, pipeline.Config{Classifier: "logreg", Params: map[string]any{}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	predict := func() <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := client.New(front.URL).Predict(ctx, "local", mID, sp.Test.X[:2])
			done <- err
		}()
		return done
	}

	doneA := predict()
	var a int
	select {
	case a = <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for predict A to reach a replica")
	}
	doneB := predict()
	select {
	case b := <-started:
		if b == a {
			t.Fatalf("predict B went to replica %d, which is still serving A", b)
		}
	case err := <-doneB:
		t.Fatalf("predict B was served by replica %d, which is still serving A (err: %v)", a, err)
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for predict B to reach a replica")
	}
	release()
	for name, done := range map[string]<-chan error{"A": doneA, "B": doneB} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("predict %s: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("predict %s did not finish after the gate opened", name)
		}
	}
}

// waitAvailable polls the router /healthz until it reports exactly n
// available replicas.
func waitAvailable(t *testing.T, frontURL string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(frontURL + "/healthz")
		if err == nil {
			var h cluster.RouterHealth
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && h.AvailableReplicas == n {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("router never reported %d available replicas", n)
}
