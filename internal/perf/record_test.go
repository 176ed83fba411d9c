package perf

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// gitHead names the checked-out commit, and marks it "-dirty" once a
// tracked file is modified, but not for an untracked one.
func TestGitHeadDirty(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-C", dir, "-c", "user.name=perf", "-c", "user.email=perf@example.invalid"}, args...)...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git("init", "-q")
	write("a.txt", "one\n")
	git("add", "a.txt")
	git("commit", "-q", "-m", "one")
	head := git("rev-parse", "HEAD")

	if got := gitHead(dir); got != head {
		t.Fatalf("clean tree: gitHead = %q, want %q", got, head)
	}
	write("untracked.txt", "x\n")
	if got := gitHead(dir); got != head {
		t.Fatalf("untracked file: gitHead = %q, want %q", got, head)
	}
	write("a.txt", "two\n")
	if got := gitHead(dir); got != head+"-dirty" {
		t.Fatalf("modified tree: gitHead = %q, want %q", got, head+"-dirty")
	}
	if got := gitHead(t.TempDir()); got != "" {
		t.Fatalf("outside a repository: gitHead = %q, want empty", got)
	}
}
