package service_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mlaasbench/internal/service"
)

// Failure-injection tests: the service must answer malformed traffic with
// honest status codes, never panics or hangs.

func robustServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(service.NewServer(func(string, ...any) {}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestMalformedJSONUpload(t *testing.T) {
	srv := robustServer(t)
	resp, err := http.Post(srv.URL+"/v1/platforms/local/datasets", "application/json",
		strings.NewReader(`{"name": "x", "x": [[1,`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated JSON got %d, want 400", resp.StatusCode)
	}
}

func TestMalformedCSVUpload(t *testing.T) {
	srv := robustServer(t)
	for _, body := range []string{
		"",                       // empty
		"f0\n1\n",                // no label column
		"f0,label\nabc,1\n",      // non-numeric feature
		"f0,label\n1,7\n",        // invalid label
		"f0,label\n1,0\n2,1,3\n", // ragged
	} {
		resp, err := http.Post(srv.URL+"/v1/platforms/local/datasets", "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("csv %q got %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestWrongMethods(t *testing.T) {
	srv := robustServer(t)
	cases := []struct {
		method, path string
	}{
		{http.MethodDelete, "/v1/platforms"},
		{http.MethodGet, "/v1/platforms/local/datasets"},
		{http.MethodPut, "/v1/platforms/local/models"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s got %d, want 405/404", c.method, c.path, resp.StatusCode)
		}
	}
}

func TestTrainOnMissingDataset(t *testing.T) {
	srv := robustServer(t)
	resp, err := http.Post(srv.URL+"/v1/platforms/local/models", "application/json",
		strings.NewReader(`{"dataset": "ds-999", "classifier": "logreg"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("train on missing dataset got %d, want 404", resp.StatusCode)
	}
}

func TestPredictEmptyInstances(t *testing.T) {
	srv := robustServer(t)
	// Upload + train a real model first; ids are opaque, read them back.
	var ds service.UploadResponse
	postJSON(t, srv.URL+"/v1/platforms/local/datasets", "text/csv",
		"f0,label\n1,0\n2,0\n3,1\n4,1\n5,0\n6,1\n", &ds)
	var m service.TrainResponse
	postJSON(t, srv.URL+"/v1/platforms/local/models", "application/json",
		`{"dataset": "`+ds.ID+`", "classifier": "logreg"}`, &m)
	resp, err := http.Post(srv.URL+"/v1/platforms/local/models/"+m.ID+"/predictions", "application/json",
		strings.NewReader(`{"instances": []}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty instances got %d, want 400", resp.StatusCode)
	}
}

// postJSON posts body and decodes a 201 response into out.
func postJSON(t *testing.T, url, contentType, body string, out any) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST %s: status %d, want 201", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownPlatformEverywhere(t *testing.T) {
	srv := robustServer(t)
	paths := []string{
		"/v1/platforms/watson/datasets",
		"/v1/platforms/watson/models",
		"/v1/platforms/watson/models/m-1/predictions",
	}
	for _, p := range paths {
		resp, err := http.Post(srv.URL+p, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s got %d, want 404", p, resp.StatusCode)
		}
	}
}

func TestConcurrentUploadsAndTrains(t *testing.T) {
	srv := robustServer(t)
	const workers = 8
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			resp, err := http.Post(srv.URL+"/v1/platforms/bigml/datasets", "text/csv",
				strings.NewReader("f0,f1,label\n1,0,0\n2,1,0\n3,0,1\n4,1,1\n5,0,0\n6,1,1\n"))
			if err != nil {
				errc <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				errc <- nil
			}
			errc <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
