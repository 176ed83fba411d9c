// The /debug/profiles surface: list the continuous profiler's on-disk
// bundles, fetch one bundle's sidecar, and download individual .pprof
// files — enough for go tool pprof to work against a remote server
// without shell access to its profile directory.
package service

import (
	"fmt"
	"net/http"
	"os"

	"mlaasbench/internal/profiling"
)

// WithProfileStore exposes a profile bundle ring at /debug/profiles and
// returns the server (chainable). The server only reads the store; the
// continuous profiler that writes it is wired up in the main.
func (s *Server) WithProfileStore(ps *profiling.Store) *Server {
	s.profiles = ps
	return s
}

// profileIndexResponse is the GET /debug/profiles body.
type profileIndexResponse struct {
	Bundles []profiling.Meta `json:"bundles"`
}

func (s *Server) handleProfileIndex(w http.ResponseWriter, _ *http.Request) {
	if s.profiles == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "profiling disabled (start the server with -profile-dir)"})
		return
	}
	metas, err := s.profiles.List()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, profileIndexResponse{Bundles: metas})
}

func (s *Server) handleProfileGet(w http.ResponseWriter, r *http.Request) {
	if s.profiles == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "profiling disabled (start the server with -profile-dir)"})
		return
	}
	id := r.PathValue("bundle")
	meta, err := s.profiles.Get(id)
	if err != nil {
		status := http.StatusNotFound
		if !os.IsNotExist(err) {
			status = http.StatusBadRequest
		}
		writeJSON(w, status, apiError{Error: fmt.Sprintf("bundle %q: %v", id, err)})
		return
	}
	writeJSON(w, http.StatusOK, meta)
}

// handleProfileFetch streams one raw gzipped-proto profile; the store
// validates both path components against traversal.
func (s *Server) handleProfileFetch(w http.ResponseWriter, r *http.Request) {
	if s.profiles == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "profiling disabled (start the server with -profile-dir)"})
		return
	}
	id, kind := r.PathValue("bundle"), r.PathValue("kind")
	path, err := s.profiles.ProfilePath(id, kind)
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s-%s.pprof", id, kind))
	http.ServeFile(w, r, path)
}
