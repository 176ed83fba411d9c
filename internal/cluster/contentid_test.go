package cluster_test

import (
	"context"
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
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/service"
	"mlaasbench/internal/store"
	"mlaasbench/internal/telemetry"
)

var dtree = pipeline.Config{Classifier: "dtree", Params: map[string]any{}}

// oracle predicts x with dtree fitted in-process on train, no server.
func oracle(t *testing.T, train *dataset.Dataset, seed uint64, x [][]float64) []int {
	t.Helper()
	p, err := platforms.New("local")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := p.Surface().DefaultConfig("dtree")
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Fit(cfg, train, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m.Predict(x)
}

// sumCounter sums one counter over the replicas' registries.
func sumCounter(regs []*telemetry.Registry, name string) int64 {
	var n int64
	for _, reg := range regs {
		n += counterTotal(reg, name)
	}
	return n
}

// TestRouterRepairOverSharedStore: two replicas share one -store-dir, B is
// down while X and label-flipped Y are uploaded and dtree is trained on
// each with the same seed; then B comes up and A dies. B is repaired by
// replay and must serve Y's model. With counter ids Y landed on B as its
// ds-1, whose disk artifact was A's model of X: every label was wrong.
func TestRouterRepairOverSharedStore(t *testing.T) {
	sp := clusterSplit(t)
	ctx := context.Background()
	dir := t.TempDir()
	replica := func() http.Handler {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		api := service.NewServer(func(string, ...any) {}).WithRegistry(telemetry.NewRegistry()).WithStore(st)
		if _, err := api.WarmFromStore(); err != nil {
			t.Fatal(err)
		}
		return api.Handler()
	}
	srvA := httptest.NewServer(replica())
	defer srvA.Close()
	apiB := replica()
	var bOpen atomic.Bool
	srvB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !bOpen.Load() {
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		apiB.ServeHTTP(w, r)
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

	x := sp.Train
	y := *x
	y.Y = make([]int, len(x.Y))
	for i, l := range x.Y {
		y.Y[i] = 1 - l
	}
	c := client.New(front.URL)
	var models []string
	for _, ds := range []*dataset.Dataset{x, &y} {
		dsID, err := c.Upload(ctx, "local", ds)
		if err != nil {
			t.Fatal(err)
		}
		mID, err := c.Train(ctx, "local", dsID, dtree, 7)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, mID)
	}

	bOpen.Store(true)
	waitAvailable(t, front.URL, 2)
	srvA.CloseClientConnections()
	srvA.Close()

	// Y first: under counter ids the first upload B ever sees is its ds-1.
	got, err := c.Predict(ctx, "local", models[1], sp.Test.X)
	if err != nil {
		t.Fatalf("predict after repair: %v", err)
	}
	want := oracle(t, &y, 7, sp.Test.X)
	wrong := 0
	for j := range want {
		if got[j] != want[j] {
			wrong++
		}
	}
	if wrong > 0 {
		t.Fatalf("repaired replica served %d/%d labels of another dataset's model", wrong, len(want))
	}
	// X's model is still missing on B: concurrent predicts race its repair,
	// and every one must still get X's labels (replays are idempotent).
	want = oracle(t, x, 7, sp.Test.X)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.Predict(ctx, "local", models[0], sp.Test.X)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent predict during repair: err %v, labels equal %v", err, reflect.DeepEqual(got, want))
			}
		}()
	}
	wg.Wait()
	if n := counterTotal(rt.Registry(), telemetry.RouterRepairsTotal); n < 4 {
		t.Fatalf("expected dataset+model repairs for both models, counter %d", n)
	}
}

// TestRouterRestartReuploadSameIDs: a router restart loses only its replay
// records. A new router over the same replicas 404s the old ids; the
// client re-uploads and re-trains, gets the same ids and labels back, and
// the replicas — which still hold the model — run no new fit.
func TestRouterRestartReuploadSameIDs(t *testing.T) {
	sp := clusterSplit(t)
	ctx := context.Background()
	reps, regs := newReplicas(t, 3)
	front, _ := newFront(t, reps, 2)
	c := client.New(front.URL)
	dsID, err := c.Upload(ctx, "local", sp.Train)
	if err != nil {
		t.Fatal(err)
	}
	mID, err := c.Train(ctx, "local", dsID, dtree, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Predict(ctx, "local", mID, sp.Test.X)
	if err != nil {
		t.Fatal(err)
	}
	fits := sumCounter(regs, telemetry.ModelCacheMisses)

	front2, _ := newFront(t, reps, 2)
	c2 := client.New(front2.URL)
	if _, err := c2.Predict(ctx, "local", mID, sp.Test.X); err == nil || !strings.HasPrefix(err.Error(), "api: 404") {
		t.Fatalf("new router predict on an old id: %v, want a 404", err)
	}
	if _, err := c2.Train(ctx, "local", dsID, dtree, 7); err == nil || !strings.HasPrefix(err.Error(), "api: 404") {
		t.Fatalf("new router train on an old dataset id: %v, want a 404", err)
	}
	dsID2, err := c2.Upload(ctx, "local", sp.Train)
	if err != nil {
		t.Fatal(err)
	}
	mID2, err := c2.Train(ctx, "local", dsID2, dtree, 7)
	if err != nil {
		t.Fatal(err)
	}
	if dsID2 != dsID || mID2 != mID {
		t.Fatalf("re-upload/re-train ids %s/%s, want %s/%s", dsID2, mID2, dsID, mID)
	}
	got, err := c2.Predict(ctx, "local", mID2, sp.Test.X)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("labels changed across a router restart")
	}
	if n := sumCounter(regs, telemetry.ModelCacheMisses); n != fits {
		t.Fatalf("replicas ran %d new fits after the router restart, want 0", n-fits)
	}
}

// TestRouterRelaysReplicaIDs: the router hands out the replicas' own ids
// — the same a lone server returns for the same upload and trains — so a
// router-issued model id predicts directly against every owner replica.
func TestRouterRelaysReplicaIDs(t *testing.T) {
	sp := clusterSplit(t)
	ctx := context.Background()
	solo := httptest.NewServer(service.NewServer(func(string, ...any) {}).WithRegistry(telemetry.NewRegistry()).Handler())
	defer solo.Close()
	front, rt, _ := newFleet(t, 3, 2)

	var soloDS string
	soloModels := map[string]bool{}
	for _, base := range []string{solo.URL, front.URL} {
		c := client.New(base)
		dsID, err := c.Upload(ctx, "local", sp.Train)
		if err != nil {
			t.Fatal(err)
		}
		if base == solo.URL {
			soloDS = dsID
		} else if dsID != soloDS {
			t.Fatalf("router dataset id %s, lone server %s", dsID, soloDS)
		}
		for seed := uint64(1); seed <= 4; seed++ {
			mID, err := c.Train(ctx, "local", dsID, dtree, seed)
			if err != nil {
				t.Fatal(err)
			}
			if base == solo.URL {
				soloModels[mID] = true
			} else if !soloModels[mID] {
				t.Fatalf("router model id %s (seed %d) is not the lone server's", mID, seed)
			}
		}
	}
	for mID := range soloModels {
		want, err := client.New(front.URL).Predict(ctx, "local", mID, sp.Test.X)
		if err != nil {
			t.Fatal(err)
		}
		owners := rt.ModelOwners("local", mID)
		if len(owners) != 2 {
			t.Fatalf("model %s owners %v, want 2", mID, owners)
		}
		for _, owner := range owners {
			got, err := client.New(owner).Predict(ctx, "local", mID, sp.Test.X)
			if err != nil {
				t.Fatalf("router-issued id %s on owner %s: %v", mID, owner, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("owner %s served different labels for %s", owner, mID)
			}
		}
	}
}
